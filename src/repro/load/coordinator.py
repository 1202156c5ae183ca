"""Load-rig coordinator: clusters, worker fleets, merges, SLO sweeps.

:func:`run_load` is the one entry point behind ``repro load`` and
benchmark E21.  It starts a cluster (in-process
:class:`~repro.runtime.cluster.LocalCluster` or, with ``procs=True``, a
process-per-node :class:`~repro.deploy.supervisor.ClusterSupervisor`),
then runs one or more *passes* against it:

* the **main pass** offers the target rate for the full measured window
  with consistency sampling on (every operation on the sampled keys is
  logged; the coordinator re-checks the merged trace with the paper's
  safety checker afterwards), and
* the **SLO sweep** re-runs shorter passes at other rates -- step
  fractions of the target by default, binary refinement with
  ``sweep="binary"`` -- to locate the maximum rate that still meets the
  :class:`~repro.load.profile.SloPolicy`.

Each pass spawns ``workers`` fresh ``repro load-worker`` subprocesses
(or inline tasks with ``inline=True``) and feeds each its profile slice
as JSON on stdin, mirroring the node supervisor's pipe-per-child idiom.
Workers stream registry snapshots back as JSON lines; the coordinator
tees them into the optional time-series log and, at the end, *aggregates*
the final per-worker registries with
:func:`~repro.obs.registry.merge_registry_snapshots`, so the reported
percentiles are computed from one merged histogram, not averaged
per-worker numbers.

Sweep passes run against the same (now warm, non-empty) cluster, so
full trace sampling is off for them -- a read there can legitimately
return a value written by an earlier pass.  They keep the per-read
prefix check (self-certifying values are pass-agnostic), which is the
consistency clause their SLO verdict uses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.consistency import check_safety, check_safety_per_register
from repro.consistency.registers import REGISTER_META
from repro.core.namespace import DEFAULT_REGISTER
from repro.deploy.spec import ClusterSpec
from repro.deploy.supervisor import ClusterSupervisor, child_env
from repro.errors import ConfigurationError
from repro.load.profile import LoadProfile, SloPolicy
from repro.load.report import LoadReport, pass_metrics
from repro.load.worker import run_worker
from repro.obs import SnapshotLog, counter_sum, merge_registry_snapshots
from repro.runtime.cluster import LocalCluster
from repro.sim.trace import OpKind, Trace
from repro.workloads.arrivals import sample_keys as spread_sample_keys

#: Popularity ranks sampled for the consistency trace (per run).
SAMPLE_KEY_COUNT = 4

SWEEP_MODES = ("step", "binary", "none")

#: Step-sweep fractions of the target rate (the main pass is the 1.0
#: data point, so it is not repeated).
STEP_FRACTIONS = (0.25, 0.5, 0.75)


@dataclass
class PassOutcome:
    """Everything one pass produced, before report shaping."""

    label: str
    target_rps: float
    measure_duration: float
    snapshot: Dict
    summaries: List[Dict]
    trace_records: List[Dict]
    wall_time: float
    violations: int = 0
    safety_detail: str = ""
    sampled: bool = False


class _LineSink:
    """File-like adapter feeding a worker's protocol lines to a handler.

    Inline workers write the same JSON lines a subprocess would write to
    its stdout; this sink parses each one and hands it to the
    coordinator's per-event handler, so both execution modes share one
    protocol path.
    """

    def __init__(self, handler) -> None:
        self._handler = handler
        self._buffer = ""

    def write(self, text: str) -> int:
        self._buffer += text
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            if line.strip():
                self._handler(json.loads(line))
        return len(text)

    def flush(self) -> None:
        pass


async def _run_pass(spec, addresses: Dict[str, Tuple[str, int]],
                    profile: LoadProfile, label: str, workers: int,
                    inline: bool,
                    timeseries: Optional[SnapshotLog]) -> PassOutcome:
    """Run one pass's worker fleet and merge what came back."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    spec_dict = spec.to_dict()
    address_map = {str(pid): [host, port]
                   for pid, (host, port) in addresses.items()}

    def config_for(index: int) -> Dict[str, Any]:
        return {
            "worker": index,
            "workers": workers,
            "spec": spec_dict,
            "addresses": address_map,
            "profile": profile.worker_slice(index, workers).to_dict(),
        }

    def handle_event(index: int, record: Dict) -> Optional[Dict]:
        if record.get("event") == "snapshot" and timeseries is not None:
            timeseries.append(record["snapshot"], record["ts"],
                              extra={"worker": index, "pass": label})
        if record.get("event") == "done":
            return record["result"]
        return None

    async def run_inline(index: int) -> Dict:
        result_box: List[Dict] = []
        sink = _LineSink(lambda rec: result_box.append(r)
                         if (r := handle_event(index, rec)) else None)
        await run_worker(config_for(index), sink)
        if not result_box:
            raise RuntimeError(f"inline worker {index} produced no result")
        return result_box[0]

    async def run_subprocess(index: int) -> Dict:
        # The final ``done`` line carries the worker's whole registry
        # snapshot plus its sampled trace on one JSON line -- far past
        # asyncio's default 64 KiB readline limit.
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "load-worker",
            env=child_env(), limit=64 * 1024 * 1024,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE)
        process.stdin.write(json.dumps(config_for(index)).encode())
        await process.stdin.drain()
        process.stdin.close()
        result: Optional[Dict] = None
        while True:
            line = await process.stdout.readline()
            if not line:
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # stray child output; protocol lines are JSON
            got = handle_event(index, record)
            if got is not None:
                result = got
        await process.wait()
        if result is None:
            raise RuntimeError(
                f"load worker {index} exited (rc={process.returncode}) "
                f"without reporting a result")
        return result

    runner = run_inline if inline else run_subprocess
    results = await asyncio.gather(*(runner(i) for i in range(workers)))
    merged = merge_registry_snapshots([r["snapshot"] for r in results])
    trace_records: List[Dict] = []
    for result in results:
        trace_records.extend(result.get("trace", ()))
    trace_records.sort(key=lambda rec: rec["start"])
    return PassOutcome(
        label=label, target_rps=profile.rps,
        measure_duration=profile.duration, snapshot=merged,
        summaries=[r["summary"] for r in results],
        trace_records=trace_records, wall_time=loop.time() - started,
        sampled=bool(profile.sample_keys),
    )


def _rebuild_trace(records: List[Dict], per_register: bool) -> Trace:
    """The paper-checker :class:`Trace` from shipped worker records.

    Workers stamp operations with wall-clock times (one host, so the
    clocks agree across processes); failed writes arrive with ``end:
    None`` and stay incomplete, exactly as safety's "writes that began"
    quantifier wants.
    """
    trace = Trace()
    for rec in records:
        kind = OpKind.WRITE if rec["kind"] == "write" else OpKind.READ
        value = (rec["value"].encode("utf-8", "replace")
                 if rec.get("value") is not None else None)
        entry = trace.begin(rec["client"], kind, rec["start"],
                            value=value if kind is OpKind.WRITE else None)
        if per_register:
            entry.meta[REGISTER_META] = rec["key"]
        if rec.get("end") is not None:
            trace.complete(entry, rec["end"],
                           value=value if kind is OpKind.READ else None)
    return trace


def _check_pass(outcome: PassOutcome, profile: LoadProfile,
                initial_value: bytes) -> None:
    """Judge a sampled pass's trace; records violations on the outcome."""
    anomalies = int(counter_sum(outcome.snapshot,
                                 "load_value_anomalies_total"))
    if not outcome.sampled:
        outcome.violations = anomalies
        outcome.safety_detail = (
            f"prefix checks only ({anomalies} anomalies)")
        return
    truncated = any(s.get("trace_truncated") for s in outcome.summaries)
    if truncated:
        outcome.violations = anomalies
        outcome.safety_detail = (
            "sampled trace truncated at the per-worker cap; full safety "
            f"check skipped ({anomalies} prefix anomalies)")
        return
    per_register = profile.keys > 1
    trace = _rebuild_trace(outcome.trace_records, per_register)
    if per_register:
        safety = check_safety_per_register(trace,
                                           initial_value=initial_value)
    else:
        safety = check_safety(trace, initial_value=initial_value)
    outcome.violations = len(safety.violations) + anomalies
    outcome.safety_detail = (
        f"{len(trace)} sampled ops: {safety}"
        + (f"; {anomalies} prefix anomalies" if anomalies else ""))


async def run_load(profile: LoadProfile, procs: bool = False,
                   workers: int = 2, slo: Optional[SloPolicy] = None,
                   sweep: str = "step",
                   sweep_duration: Optional[float] = None,
                   sweep_iterations: int = 3,
                   inline: bool = False,
                   timeseries_path: Optional[str] = None) -> LoadReport:
    """Run the main pass plus the SLO sweep; returns the full report.

    ``sweep="step"`` (default) adds short passes at
    :data:`STEP_FRACTIONS` of the target rate; ``"binary"`` additionally
    refines between the best passing and worst failing rates for
    ``sweep_iterations`` rounds; ``"none"`` runs only the main pass (the
    max-sustainable figure then rests on that single data point).
    """
    if sweep not in SWEEP_MODES:
        raise ConfigurationError(
            f"sweep must be one of {SWEEP_MODES}, got {sweep!r}")
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    slo = slo if slo is not None else SloPolicy()
    profile = dataclasses.replace(
        profile, sample_keys=(
            spread_sample_keys(profile.keys, SAMPLE_KEY_COUNT)
            if profile.keys > 1 else [DEFAULT_REGISTER]))
    spec = ClusterSpec.for_workload(
        profile.algorithm, profile.f, keys=profile.keys, seed=profile.seed,
        n=profile.n, secret=f"load-{profile.seed}",
        max_history=profile.max_history)
    initial_value = spec.fleet.initial_value

    if procs:
        cluster = ClusterSupervisor(spec)
    else:
        cluster = LocalCluster(
            profile.algorithm, f=profile.f, n=spec.n,
            secret=spec.secret_bytes, max_history=profile.max_history,
            keyspace=spec.keyspace_config())

    timeseries = (SnapshotLog(timeseries_path, windows=True)
                  if timeseries_path is not None else None)
    outcomes: List[PassOutcome] = []
    await cluster.start()
    try:
        addresses = cluster.addresses
        main = await _run_pass(spec, addresses, profile, "main", workers,
                               inline, timeseries)
        _check_pass(main, profile, initial_value)
        outcomes.append(main)

        if sweep != "none":
            short = sweep_duration if sweep_duration is not None else min(
                max(profile.duration / 3.0, 3.0), 8.0)

            async def sweep_pass(rate: float, label: str) -> PassOutcome:
                sub = dataclasses.replace(
                    profile, rps=rate, duration=short,
                    warmup=min(profile.warmup, 1.0), cooldown=0.25,
                    seed=profile.seed + 1000 + len(outcomes),
                    sample_keys=[])
                outcome = await _run_pass(spec, addresses, sub, label,
                                          workers, inline, timeseries)
                _check_pass(outcome, sub, initial_value)
                outcomes.append(outcome)
                return outcome

            for fraction in STEP_FRACTIONS:
                await sweep_pass(profile.rps * fraction,
                                 f"step-{fraction:g}")
            if sweep == "binary":
                judged = [(o, pass_metrics(o, slo)) for o in outcomes]
                passing = [m["offered_rps"] for o, m in judged
                           if m["slo"]["ok"]]
                failing = [m["offered_rps"] for o, m in judged
                           if not m["slo"]["ok"]]
                lo = max(passing) if passing else 0.0
                hi = min(failing) if failing else profile.rps * 1.5
                for round_index in range(sweep_iterations):
                    if hi - lo <= max(1.0, 0.05 * profile.rps):
                        break
                    mid = (lo + hi) / 2.0
                    outcome = await sweep_pass(mid,
                                               f"binary-{round_index}")
                    metrics = pass_metrics(outcome, slo)
                    if metrics["slo"]["ok"]:
                        lo = metrics["offered_rps"]
                    else:
                        hi = mid
    finally:
        if timeseries is not None:
            timeseries.close()
        await cluster.stop()

    return LoadReport.build(profile=profile, slo=slo, outcomes=outcomes,
                            procs=procs, workers=workers, sweep=sweep)
