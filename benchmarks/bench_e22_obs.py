"""E22: observability overhead -- what the trace plane costs on the ceiling.

E19 established the loopback hot-path ceiling: depth-16 reads against a
:class:`LocalCluster` with no link latency, where every microsecond of
runtime work shows up directly in ops/sec.  E22 re-runs that exact
workload three ways to price the observability plane on its worst-case
stage:

``off``        flight recorder disabled, no client trace sink -- the
               E19 baseline.
``sampled``    flight recorder at the production default (1-in-64
               deterministic sampling) plus a client-side
               :class:`SamplingSink` at the same modulus, so both ends
               retain stitchable records for the same operations.
``scraped``    the ``sampled`` configuration with a live
               :class:`MetricsExporter` being polled over HTTP for the
               whole measurement window -- recorder cost plus a
               concurrent StatsPing/TraceDump scrape loop.

The acceptance budget is <=5% depth-16 throughput loss for ``sampled``
vs ``off``; ``scraped`` is reported alongside (the scrape loop shares
the box and the event loop's accept queue, so its number contextualises
what a sidecar poller really costs).

Run directly (or via ``make bench-obs``) to write ``BENCH_obs.json``
at the repository root:

    PYTHONPATH=src python benchmarks/bench_e22_obs.py

The pytest entry point is marked ``slow_bench`` and excluded from the
tier-1 run; it asserts the ``sampled`` budget.
"""

import asyncio
import gc
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.deploy import stats_ping
from repro.obs import NullSink, SamplingSink
from repro.obs.httpd import MetricsExporter
from repro.runtime import LocalCluster

pytestmark = pytest.mark.slow_bench

DEPTH = 16

#: Reads measured per pass (after warmup), matching E19.
OPS = 2000

#: Timed passes per configuration; the fastest is reported.  Like E19
#: this is a ceiling comparison -- host contention only subtracts, so
#: best-of is the honest estimate of each configuration's capability.
#: Passes are *interleaved* round-robin across the configurations (all
#: clusters stay up for the whole run): a noisy neighbour or a slow
#: scheduling window then lands on every configuration alike instead of
#: biasing whichever config ran during it.  The default box is a single
#: vCPU, so quiet windows are scarce: the repeat count is sized for
#: every configuration to catch several.
REPEATS = 12

#: Unmeasured reads to settle connections and code paths.
WARMUP = 64

#: Production sampling modulus (LocalCluster's flight default).
SAMPLE = 64

#: Acceptance budget: max percent throughput loss for the sampled
#: recorder configuration vs the recorder-off baseline.
BUDGET_PCT = 5.0

#: Seconds between /metrics polls in the ``scraped`` configuration.
SCRAPE_PERIOD = 0.25

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_obs.json"


async def _measure(cluster, trace_sink) -> float:
    """Seconds to complete ``OPS`` loopback reads at ``DEPTH``."""
    kwargs = {"timeout": 30.0, "max_inflight": DEPTH}
    if trace_sink is not None:
        kwargs["trace_sink"] = trace_sink
    client = cluster.client(f"r{DEPTH:03d}", **kwargs)
    await client.connect()
    for _ in range(WARMUP):
        await client.read()
    remaining = OPS

    async def worker() -> None:
        nonlocal remaining
        while remaining > 0:
            remaining -= 1
            await client.read()

    # Drain garbage from the previous pass outside the timed window so a
    # collection triggered by *earlier* allocations is not billed to
    # whichever configuration happens to run next.
    gc.collect()
    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(DEPTH)))
    elapsed = time.perf_counter() - started
    await client.close()
    return elapsed


def _scrape_loop(url: str, stop: threading.Event, polls: list) -> None:
    """Poll ``/metrics`` until told to stop, counting successes."""
    while not stop.is_set():
        try:
            with urllib.request.urlopen(url, timeout=5.0) as reply:
                reply.read()
            polls.append(1)
        except OSError:
            pass
        stop.wait(SCRAPE_PERIOD)


class _Config:
    """One observability configuration's cluster and trappings."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sample = 0 if name == "off" else SAMPLE
        self.cluster = None
        self.exporter = None
        self.poller = None
        self.stop = threading.Event()
        self.polls = []
        self.seconds = []

    def trace_sink(self):
        if self.name == "off":
            return None
        return SamplingSink(NullSink(), sample=SAMPLE)

    async def start(self) -> None:
        self.cluster = LocalCluster("bsr", f=1, flight_sample=self.sample)
        await self.cluster.start()
        if self.name != "scraped":
            return
        addresses = [node.address for node in self.cluster.nodes.values()]
        auth = next(iter(self.cluster.nodes.values())).auth

        def scrape():
            async def sweep():
                acks = await asyncio.gather(
                    *(stats_ping(address, auth) for address in addresses))
                return [ack.metrics for ack in acks]
            return asyncio.run(sweep())

        self.exporter = MetricsExporter(scrape, port=0)
        host, port = self.exporter.start()
        self.poller = threading.Thread(
            target=_scrape_loop,
            args=(f"http://{host}:{port}/metrics", self.stop, self.polls),
            daemon=True)
        self.poller.start()

    async def teardown(self) -> None:
        self.stop.set()
        if self.poller is not None:
            self.poller.join(timeout=5.0)
        if self.exporter is not None:
            self.exporter.stop()
        if self.cluster is not None:
            await self.cluster.stop()

    def row(self) -> dict:
        seconds = min(self.seconds)
        return {
            "config": self.name,
            "depth": DEPTH,
            "ops": OPS,
            "flight_sample": self.sample,
            "seconds": round(seconds, 4),
            "ops_per_sec": round(OPS / seconds, 1),
            "scrape_polls": len(self.polls),
        }


async def _run_interleaved(names) -> list:
    configs = [_Config(name) for name in names]
    try:
        for config in configs:
            await config.start()
        for _ in range(REPEATS):
            for config in configs:
                config.seconds.append(
                    await _measure(config.cluster, config.trace_sink()))
        return [config.row() for config in configs]
    finally:
        for config in configs:
            await config.teardown()


def run_benchmark(configs=("off", "sampled", "scraped")) -> dict:
    rows = asyncio.run(_run_interleaved(configs))
    baseline = next(row for row in rows if row["config"] == "off")
    for row in rows:
        loss = 100.0 * (1.0 - row["ops_per_sec"] / baseline["ops_per_sec"])
        row["overhead_pct"] = round(loss, 2)
        # Only the recorder configuration carries the acceptance budget;
        # ``scraped`` is informational (a sub-second poll loop sharing a
        # single vCPU with the cluster prices the *poller*, and real
        # deployments scrape at multi-second intervals).
        if row["config"] == "sampled":
            row["budget_pct"] = BUDGET_PCT
            row["within_budget"] = row["overhead_pct"] <= BUDGET_PCT
    return {
        "experiment": ("E22: observability overhead at the loopback "
                       "ceiling (LocalCluster bsr, f=1, depth 16, "
                       f"1-in-{SAMPLE} sampling)"),
        "ops_per_config": OPS,
        "budget_pct": BUDGET_PCT,
        "results": rows,
    }


def write_report(report: dict) -> None:
    import json

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def format_report(report: dict) -> str:
    header = (f"{'config':>8} {'depth':>5} {'ops':>6} {'seconds':>8} "
              f"{'ops/sec':>9} {'overhead':>9} {'budget':>7}")
    lines = [header, "-" * len(header)]
    for row in report["results"]:
        if "within_budget" not in row:
            verdict = "-"
        else:
            verdict = "ok" if row["within_budget"] else "OVER"
        lines.append(
            f"{row['config']:>8} {row['depth']:>5} {row['ops']:>6} "
            f"{row['seconds']:>8.3f} {row['ops_per_sec']:>9.1f} "
            f"{row['overhead_pct']:>8.2f}% {verdict:>7}"
        )
    return "\n".join(lines)


def test_sampled_recorder_stays_within_budget():
    """1-in-64 flight recording must cost <=5% of depth-16 throughput."""
    report = run_benchmark(configs=("off", "sampled"))
    row = next(r for r in report["results"] if r["config"] == "sampled")
    assert row["within_budget"], (
        f"sampled recorder costs {row['overhead_pct']}% at depth {DEPTH} "
        f"(budget {BUDGET_PCT}%)"
    )


def main() -> None:
    from repro.metrics.report import emit

    report = run_benchmark()
    write_report(report)
    emit(format_report(report))
    emit(f"\nwrote {OUTPUT}")
    sampled = next(r for r in report["results"] if r["config"] == "sampled")
    emit(f"1-in-{SAMPLE} recording overhead at depth {DEPTH}: "
         f"{sampled['overhead_pct']}% (budget {BUDGET_PCT}%, "
         f"{'within' if sampled['within_budget'] else 'OVER'})")


if __name__ == "__main__":
    main()
