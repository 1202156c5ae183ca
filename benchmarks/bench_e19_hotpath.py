"""E19: profiled hot-path ceiling -- loopback ops/sec by depth.

E18 measured pipelining against 1 ms links, where propagation dominates
and the wire path hides behind the RTT.  E19 removes the network: a
:class:`LocalCluster` on loopback with no chaos proxies, so every read
pays only the runtime itself -- encode, seal, syscall, reassemble,
verify, decode, dispatch.  That makes it the *ceiling* benchmark for the
wire-path work: the binary codec, batched HMAC sealing and zero-copy
framing all show up directly in ops/sec, and a cProfile pass attributes
the remaining time to named buckets so the next optimisation target is
data, not guesswork.

Run directly (or via ``make bench-hotpath``) to write
``BENCH_hotpath.json`` at the repository root:

    PYTHONPATH=src python benchmarks/bench_e19_hotpath.py

The pytest entry point is marked ``slow_bench`` and excluded from the
tier-1 run; it asserts the acceptance floor: BSR reads at depth 16 on
loopback reach at least 5x the E18 depth-16 throughput (the 1 ms-link
number this benchmark exists to tower over).
"""

import asyncio
import cProfile
import json
import pstats
import time
from pathlib import Path

import pytest

from repro.runtime import LocalCluster
from repro.transport.codec2 import CachedDecoder, CachedEncoder

pytestmark = pytest.mark.slow_bench

DEPTHS = (1, 4, 16, 64)

#: Reads measured per configuration (after warmup).
OPS = 2000

#: Timed passes per configuration; the *fastest* is reported.  This is
#: a ceiling benchmark: host contention (a shared box, CPU steal) only
#: ever subtracts from the observed rate, so the best pass is the
#: closest estimate of what the runtime itself can do.
REPEATS = 5

#: Unmeasured reads to settle connections and code paths.
WARMUP = 64

#: Acceptance floor: depth-16 loopback ops/sec vs E18's depth-16
#: ops/sec over 1 ms links (recorded in BENCH_pipeline.json).
MIN_SPEEDUP_VS_E18 = 5.0

#: E18 depth-16 BSR ops/sec, used when BENCH_pipeline.json is absent.
E18_DEPTH16_FALLBACK = 1252.6

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_hotpath.json"
E18_REPORT = ROOT / "BENCH_pipeline.json"

#: Profile bucket -> how to recognise it in the pstats table.  Python
#: functions are charged *cumulative* time (they own their callees);
#: C-level socket/poll primitives are charged *total* time.  The
#: encode/decode hot paths run through the cached codec's ``__call__``
#: methods (which own their full-codec fallbacks, so one cumulative
#: entry covers hits and misses); they are matched by line number
#: below since both share the name ``__call__``.
_CUMULATIVE_BUCKETS = {
    "encode": (),
    "seal": ("seal_frames",),
    "verify": ("open_any",),
    "decode": (),
    "assemble": ("feed",),
}

_ENCODE_CALL_LINE = CachedEncoder.__call__.__code__.co_firstlineno
_DECODE_CALL_LINE = CachedDecoder.__call__.__code__.co_firstlineno


def e18_depth16_ops_per_sec() -> float:
    """The recorded E18 depth-16 BSR throughput (or its fallback)."""
    try:
        report = json.loads(E18_REPORT.read_text())
        for row in report["results"]:
            if row["algorithm"] == "bsr" and row["depth"] == 16:
                return float(row["ops_per_sec"])
    except (OSError, ValueError, KeyError):
        pass
    return E18_DEPTH16_FALLBACK


async def _measure(cluster, depth: int, ops: int) -> float:
    """Seconds to complete ``ops`` loopback reads at ``depth``."""
    client = cluster.client(f"r{depth:03d}", timeout=30.0,
                            max_inflight=depth)
    await client.connect()
    for _ in range(WARMUP):
        await client.read()
    remaining = ops

    async def worker() -> None:
        nonlocal remaining
        while remaining > 0:
            remaining -= 1
            await client.read()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(depth)))
    elapsed = time.perf_counter() - started
    await client.close()
    return elapsed


async def _run_depths(depths=DEPTHS, ops=OPS) -> list:
    cluster = LocalCluster("bsr", f=1)
    await cluster.start()
    try:
        rows = []
        for depth in depths:
            seconds = min([await _measure(cluster, depth, ops)
                           for _ in range(REPEATS)])
            rows.append({
                "depth": depth,
                "ops": ops,
                "seconds": round(seconds, 4),
                "ops_per_sec": round(ops / seconds, 1),
            })
        return rows
    finally:
        await cluster.stop()


def _bucket_times(stats: pstats.Stats, wall: float) -> dict:
    """Attribute profiled time to wire-path buckets (fractions of wall).

    Cumulative times of the bucket entry points do not overlap (encode,
    seal, verify, decode and assemble call disjoint subtrees), so each
    is a clean slice of the wall clock; socket send/recv and the epoll
    wait are C primitives charged by total time.  ``other`` is the
    remainder: event-loop bookkeeping, protocol logic, dispatch.
    """
    buckets = {name: 0.0 for name in _CUMULATIVE_BUCKETS}
    buckets["syscall"] = 0.0
    buckets["poll"] = 0.0
    for (filename, line, funcname), row in stats.stats.items():
        _cc, _nc, tottime, cumtime, _callers = row
        for name, funcnames in _CUMULATIVE_BUCKETS.items():
            if funcname in funcnames and (
                    filename.endswith(("codec.py", "codec2.py", "auth.py"))):
                buckets[name] += cumtime
        if funcname == "__call__" and filename.endswith("codec2.py"):
            if line == _ENCODE_CALL_LINE:
                buckets["encode"] += cumtime
            elif line == _DECODE_CALL_LINE:
                buckets["decode"] += cumtime
        if "_socket.socket" in funcname:
            buckets["syscall"] += tottime
        elif "select.epoll" in funcname or "select.kqueue" in funcname:
            buckets["poll"] += tottime
    accounted = sum(buckets.values())
    buckets["other"] = max(0.0, wall - accounted)
    return {name: round(seconds / wall, 4) if wall else 0.0
            for name, seconds in buckets.items()}


async def _profiled_run(depth: int, ops: int) -> dict:
    """One profiled measurement pass; returns the time breakdown."""
    cluster = LocalCluster("bsr", f=1)
    await cluster.start()
    try:
        client = cluster.client("rprof", timeout=30.0,
                                max_inflight=depth)
        await client.connect()
        for _ in range(WARMUP):
            await client.read()
        remaining = ops

        async def worker() -> None:
            nonlocal remaining
            while remaining > 0:
                remaining -= 1
                await client.read()

        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        await asyncio.gather(*(worker() for _ in range(depth)))
        profile.disable()
        wall = time.perf_counter() - started
        await client.close()
        stats = pstats.Stats(profile)
        breakdown = _bucket_times(stats, wall)
        return {
            "depth": depth,
            "ops": ops,
            "profiled_ops_per_sec": round(ops / wall, 1),
            "time_fraction": breakdown,
        }
    finally:
        await cluster.stop()


def run_benchmark(depths=DEPTHS, ops=OPS, profile_depth: int = 16) -> dict:
    results = asyncio.run(_run_depths(depths, ops))
    profiles = [asyncio.run(_profiled_run(profile_depth, ops))]
    reference = e18_depth16_ops_per_sec()
    for row in results:
        row["speedup_vs_e18_depth16"] = round(
            row["ops_per_sec"] / reference, 2)
    return {
        "experiment": ("E19: loopback hot-path ceiling "
                       "(LocalCluster bsr, f=1, no link latency)"),
        "ops_per_config": ops,
        "e18_depth16_ops_per_sec": reference,
        "results": results,
        "profiles": profiles,
    }


def write_report(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def format_report(report: dict) -> str:
    header = (f"{'depth':>5} {'ops':>6} {'seconds':>8} "
              f"{'ops/sec':>9} {'vs E18@16':>9}")
    lines = [header, "-" * len(header)]
    for row in report["results"]:
        lines.append(
            f"{row['depth']:>5} {row['ops']:>6} "
            f"{row['seconds']:>8.3f} {row['ops_per_sec']:>9.1f} "
            f"{row['speedup_vs_e18_depth16']:>8.2f}x"
        )
    lines.append("")
    lines.append("profiled time fractions (depth-16 pass):")
    for profiled in report["profiles"]:
        parts = " ".join(
            f"{name}={fraction:.1%}"
            for name, fraction in profiled["time_fraction"].items())
        lines.append(f"  {parts}")
    return "\n".join(lines)


def test_hotpath_depth16_beats_e18_floor():
    """Loopback reads at depth 16 must reach 5x E18's depth-16 rate."""
    report = run_benchmark(depths=(16,))
    row = report["results"][0]
    assert row["speedup_vs_e18_depth16"] >= MIN_SPEEDUP_VS_E18, (
        f"loopback depth-16 reads only {row['speedup_vs_e18_depth16']}x "
        f"the E18 reference (need >= {MIN_SPEEDUP_VS_E18}x)"
    )


def main() -> None:
    from repro.metrics.report import emit

    report = run_benchmark()
    write_report(report)
    emit(format_report(report))
    emit(f"\nwrote {OUTPUT}")
    [best] = [row for row in report["results"] if row["depth"] == 16]
    emit(f"depth-16 loopback: {best['ops_per_sec']:.1f} ops/s = "
         f"{best['speedup_vs_e18_depth16']:.2f}x the E18 depth-16 "
         f"reference (target {MIN_SPEEDUP_VS_E18}x)")


if __name__ == "__main__":
    main()
