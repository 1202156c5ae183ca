"""One workload, start to finish: set up, drive the phases, measure, verify.

An untraced run (``--trace 0``, the end-to-end metrics) is ``warm`` (a
fixed number of operations, discarded) and then eight cycles of

``solo``  closed loop, 1 session: unloaded service time, bytes per op
``sat``   closed loop, 16 sessions: throughput and CPU per operation

followed by ``verify`` (not timed into anything).  Every time-based
metric is computed once per cycle and the *fast quartile* of the eight
values is reported (see :func:`fast_quartile`).

A traced run (``--trace 1``, the per-layer metrics) makes one pass --
``solo``, the open-loop ``ladder`` (four rungs of Poisson arrivals at
fixed absolute rates, latency charged from the due instant), ``sat`` --
repeats ``solo`` and ``sat`` with tracing on (the benchmark's own spans plus the program's
public trace outputs), and runs the layer replay.  End-to-end metrics
are only ever reported from an untraced run.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import statistics
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import MemorySink, stitch

import layers
import procfs
from deployment import Deployment
from gate import Gate
from loadgen import (
    ClosedResult,
    OpenResult,
    clock,
    closed_loop,
    latencies,
    open_loop,
    percentile,
)
from spans import Spans
from workloads import (
    CYCLES,
    RUNGS,
    SAT_SESSIONS,
    SHARE,
    TRACED_SHARE,
    Op,
    Workload,
    op_stream,
    rung_arrivals,
)

#: Windows a traced run's single ``sat`` phase is cut into.
SAT_WINDOWS = 7

#: Generator clients: each holds one socket per server of its group.
CLIENTS = min(os.cpu_count() or 1, 2)

#: The ladder's tail percentile.  The highest one every workload's
#: first rung supports with ten samples beyond it at the contract's run
#: length (the slowest workload offers ~300 operations there).
TAIL = 0.95

#: A rung passes the limit only with at most this share of failures ...
SLO_MAX_FAIL = 0.005
#: ... and at most this many seconds' worth of arrivals still queued or
#: in flight when its time is up.
SLO_MAX_BACKLOG_S = 0.1

#: Bound on fail_ratio: above it the run is not a measurement.
MAX_FAIL_RATIO = 0.001


class TaggingSink(MemorySink):
    """The client's trace sink; also hands each record to its caller.

    ``emit`` runs inside the task that awaits ``client.read/write``, so
    the record of the call a session has just finished is the last one
    emitted under that session's task.
    """

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[Any, Dict] = {}

    def emit(self, record: Dict) -> None:
        super().emit(record)
        self._last[asyncio.current_task()] = record

    def take(self) -> Optional[Dict]:
        return self._last.pop(asyncio.current_task(), None)


class OpRunner:
    """Execute one generated operation and put it through the gate."""

    def __init__(self, workload: Workload, clients: Sequence[Any],
                 gate: Gate, spans: Optional[Spans] = None,
                 sink: Optional[TaggingSink] = None) -> None:
        self.workload = workload
        self.clients = clients
        self.gate = gate
        self.spans = spans
        self.sink = sink
        self.errors: Counter = Counter()
        #: (op_id, phase name) -> span id, for hanging server spans.
        self.phase_spans: Dict[Tuple[int, str], int] = {}

    def _client(self, op: Op, session: int) -> Any:
        if self.workload.split_roles:
            return self.clients[0 if op.write else 1 % len(self.clients)]
        return self.clients[session % len(self.clients)]

    async def __call__(self, op: Op, session: int) -> bool:
        gate = self.gate
        key = self.workload.key(op.rank)
        client = self._client(op, session)
        where = {} if key is None else {"register": key}
        sampled = gate.sampled(key)
        start = clock()
        ok = True
        try:
            if op.write:
                value = gate.mint(key, str(client.client_id))
                slot = (gate.began_write(key, str(client.client_id), value,
                                         start) if sampled else None)
                await client.write(value, **where)
                if slot is not None:
                    gate.completed_write(key, slot, clock())
            else:
                value = await client.read(**where)
                end = clock()
                if gate.check_read(key, value) is None and sampled:
                    gate.completed_read(key, str(client.client_id), value,
                                        start, end)
        except Exception as exc:
            # The boundary between program and generator: whatever the
            # operation raised (liveness timeout, protocol error), it
            # failed, is counted, and the run goes on.
            self.errors[type(exc).__name__] += 1
            ok = False
        if self.spans is not None:
            self._record_spans("client.write" if op.write else "client.read",
                               start, clock())
        return ok

    def _record_spans(self, name: str, start: float, end: float) -> None:
        record = self.sink.take() if self.sink is not None else None
        op_id = record.get("op_id") if record else None
        root = self.spans.add(name, start, end, op=op_id)
        if not record:
            return
        # The program's span record, as children of the call that made it.
        cursor = record["ts"] - record["latency"]
        for phase in record.get("phases", ()):
            span = self.spans.add(f"phase.{phase['phase']}", cursor,
                                  cursor + phase["duration"], root, op_id)
            self.phase_spans[(op_id, phase["phase"])] = span
            cursor += phase["duration"]


# -- snapshot arithmetic ------------------------------------------------------

def counter_total(snapshot: Dict, name: str, **labels: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"]
               if entry["name"] == name
               and all(entry["labels"].get(k) == v for k, v in labels.items()))


def histogram_count(snapshot: Dict, name: str, **labels: str) -> int:
    return sum(sum(entry["counts"]) for entry in snapshot["histograms"]
               if entry["name"] == name
               and all(entry["labels"].get(k) == v for k, v in labels.items()))


def gauge_values(snapshot: Dict, name: str) -> List[float]:
    return [entry["value"] for entry in snapshot["gauges"]
            if entry["name"] == name]


class Delta:
    """Counter and histogram-count growth between two snapshots."""

    def __init__(self, before: Dict, after: Dict) -> None:
        self.before, self.after = before, after

    def counter(self, name: str, **labels: str) -> float:
        return (counter_total(self.after, name, **labels)
                - counter_total(self.before, name, **labels))

    def observations(self, name: str, **labels: str) -> int:
        return (histogram_count(self.after, name, **labels)
                - histogram_count(self.before, name, **labels))


# -- ladder -------------------------------------------------------------------

def rung_summary(workload: Workload, rung: int, result: OpenResult) -> Dict:
    """One rung's numbers and whether it met the latency limit."""
    rate = workload.ladder_rps[rung]
    done = latencies(result.samples)
    # A failed or abandoned operation misses every limit: it sits at the
    # top of the distribution.
    charged = done + [math.inf] * result.failed
    tail = percentile(charged, TAIL)
    late = percentile(sorted(result.late), TAIL)
    fail_share = result.failed / max(1, result.offered)
    limit = workload.slo_ms / 1000.0
    # A pacer that ran later than the limit itself was not offering the
    # schedule it claims to: the rung measured the generator.
    valid = late is not None and late <= limit
    meets = (valid and tail is not None and tail <= limit
             and fail_share <= SLO_MAX_FAIL
             and result.backlog_end <= SLO_MAX_BACKLOG_S * rate)
    return {
        "rate_rps": rate,
        "offered": result.offered,
        "completed": len(done),
        "failed": result.failed,
        "achieved_rps": len(done) / result.seconds,
        "tail_ms": _ms(tail),
        "p50_ms": _ms(percentile(done, 0.5)),
        "late_ms_tail": _ms(late),
        "backlog_end": result.backlog_end,
        "valid": valid,
        "meets_limit": meets,
    }


def slo_rate(workload: Workload, rungs: Sequence[Dict]) -> float:
    """Highest offered rate meeting the limit, read off the ladder.

    Log-interpolated in the tail latency between the last rung that
    meets the limit and the first that misses it.  With no miss it is
    the top rate; with a miss on the first rung, that rate scaled down
    by how far its tail overshot.
    """
    limit = workload.slo_ms
    missed = next((i for i, r in enumerate(rungs) if not r["meets_limit"]),
                  None)
    if missed is None:
        return float(rungs[-1]["rate_rps"])
    miss_tail = rungs[missed]["tail_ms"]
    if missed == 0:
        over = limit / miss_tail if miss_tail and miss_tail > limit else 1.0
        return rungs[0]["rate_rps"] * over
    met = rungs[missed - 1]
    share = 0.0
    if miss_tail is not None and math.isfinite(miss_tail) \
            and miss_tail > limit > met["tail_ms"] > 0:
        share = (math.log(limit / met["tail_ms"])
                 / math.log(miss_tail / met["tail_ms"]))
    return met["rate_rps"] + share * (rungs[missed]["rate_rps"]
                                      - met["rate_rps"])


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _ms(seconds: Optional[float]) -> Optional[float]:
    return _scaled(seconds, 1e3)


# -- the run ------------------------------------------------------------------

class Report:
    """Everything one run measured (see ``run.py`` for the rendering)."""

    def __init__(self) -> None:
        #: metric name -> (value or None, sample count)
        self.end_to_end: Dict[str, Tuple[Optional[float], int]] = {}
        self.per_layer: Dict[str, Tuple[Optional[float], int]] = {}
        self.detail: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.spans: Optional[Spans] = None

    def tally(self, result: Any) -> Any:
        """Count a phase's operations; a rung's abandoned ones too."""
        if isinstance(result, OpenResult):
            self.attempted += result.offered
            self.failed += result.failed
        else:
            self.attempted += len(result.samples)
            self.failed += sum(1 for s in result.samples if not s.ok)
        return result

    @property
    def fail_ratio(self) -> float:
        return self.failed / max(1, self.attempted)

    @property
    def correct(self) -> bool:
        return not self.violations and self.fail_ratio <= MAX_FAIL_RATIO


async def run_workload(workload: Workload, seed: int, seconds: float,
                       trace: int, workdir: str, setup_base: float = 0.0,
                       setup_samples: Sequence[float] = (),
                       setup_only: bool = False) -> Report:
    """Run ``workload`` once.

    ``setup_base`` is what the process spent before this coroutine
    (imports), charged to set-up; ``setup_samples`` are set-up times of
    other fresh processes, pooled with this one's for the median.
    """
    report = Report()
    gate = Gate(workload.value_size, seed, workload.sampled_keys)
    deployment = Deployment(workload, workdir)
    began = time.perf_counter()
    await deployment.start()
    try:
        clients = [deployment.client(f"g{i}") for i in range(CLIENTS)]
        for client in clients:
            await client.connect()
        runner = OpRunner(workload, clients, gate)
        first_ok = await runner(Op(False, 0), 0)     # first op acknowledged
        setups = [setup_base + time.perf_counter() - began, *setup_samples]
        report.attempted, report.failed = 1, int(not first_ok)
        report.end_to_end["setup_s"] = (statistics.median(setups),
                                        len(setups))
        report.detail["setup_samples_s"] = setups
        if setup_only:
            return report
        if trace:
            await _traced_run(report, workload, seed, seconds, deployment,
                              runner)
        else:
            await _untraced_run(report, workload, seed, seconds, deployment,
                                runner)
    finally:
        await deployment.stop()
    report.violations = list(gate.violations)
    if trace:
        report.per_layer["deploy.spawn_s"] = (deployment.spawn_s, 1)
        report.per_layer["deploy.stop_s"] = (deployment.stop_s, 1)
        report.per_layer["gate.fail_ratio"] = (report.fail_ratio,
                                               report.attempted)
    report.detail.update({
        "errors": dict(runner.errors), "fail_ratio": report.fail_ratio,
        "safety_violations": len(gate.violations),
        "reads_prefix_and_hash_checked": gate.reads_checked,
    })
    return report


def fast_quartile(values: Sequence[float], better: str) -> float:
    """The nearest-rank quartile of ``values`` on the ``better`` side.

    Why not the median: on a shared host the stack is CPU-bound and a
    co-tenant only ever takes cycles away, for seconds at a time.  The
    slow cycles measure the neighbour; the fast ones measure the
    program.  A quarter of the cycles being undisturbed is enough for
    this to read the same from run to run, and unlike the single best
    value it does not ride on one lucky cycle (of eight cycles it is
    the second best).
    """
    ordered = sorted(values, reverse=better == "higher")
    return ordered[max(0, math.ceil(0.25 * len(ordered)) - 1)]


async def _warm(report: Report, workload: Workload, seed: int,
                runner: OpRunner) -> None:
    report.tally(await closed_loop(
        runner, itertools.islice(op_stream(workload, seed, "warm"),
                                 workload.warm_ops),
        SAT_SESSIONS, math.inf))


async def _untraced_run(report: Report, workload: Workload, seed: int,
                        seconds: float, deployment: Deployment,
                        runner: OpRunner) -> None:
    """``warm``, then CYCLES x (``solo``, ``sat``), then verify."""
    lengths = {name: share * seconds for name, share in SHARE.items()}
    pids = deployment.node_pids
    await _warm(report, workload, seed, runner)
    cycles: List[Dict[str, Any]] = []
    for cycle in range(CYCLES):
        solo_meter = procfs.Meter(pids)
        solo = report.tally(await closed_loop(
            runner, op_stream(workload, seed, f"solo{cycle}"), 1,
            lengths["solo"], at_deadline=solo_meter.stop))
        sat_meter = procfs.Meter(pids)
        sat = report.tally(await closed_loop(
            runner, op_stream(workload, seed, f"sat{cycle}"), SAT_SESSIONS,
            lengths["sat"], at_deadline=sat_meter.stop))
        cycles.append({"solo": solo, "solo_meter": solo_meter,
                       "sat": sat, "sat_meter": sat_meter})
    rss, node_rss = procfs.rss_mb(pids)
    report.detail["verify"] = runner.gate.verify()

    # One (value, sample count) per metric per cycle ...
    rows: List[Dict[str, Tuple[Optional[float], int]]] = []
    solo_ops = solo_bytes = 0
    for c in cycles:
        sat_ops = c["sat"].completed_within()
        cpu = c["sat_meter"].delta["client_cpu"] + c["sat_meter"].delta[
            "node_cpu"]
        reads = latencies(c["solo"].samples, write=False)
        writes = latencies(c["solo"].samples, write=True)
        rows.append({
            "sat_ops_per_s": (sat_ops / c["sat"].seconds, sat_ops),
            "cpu_us_per_op": (cpu / max(1, sat_ops) * 1e6, sat_ops),
            "read_p50_ms": (_ms(percentile(reads, 0.5)), len(reads)),
            "write_p50_ms": (_ms(percentile(writes, 0.5)), len(writes)),
        })
        solo_ops += c["solo"].completed_within()
        solo_bytes += c["solo_meter"].delta["lo_bytes"]
    # ... and the fast quartile of the cycles is what is reported.
    e2e = report.end_to_end
    per_cycle = {name: [row[name][0] for row in rows] for name in rows[0]}
    for name, values in per_cycle.items():
        known = [v for v in values if v is not None]
        better = "higher" if name == "sat_ops_per_s" else "lower"
        e2e[name] = (fast_quartile(known, better) if known else None,
                     sum(row[name][1] for row in rows))
    e2e["wire_bytes_per_op"] = (solo_bytes / max(1, solo_ops), solo_ops)
    e2e["peak_rss_mb"] = (rss, 1)
    report.detail.update({
        "per_cycle": per_cycle, "phase_seconds": lengths,
        "node_rss_mb_max": node_rss,
    })


async def _traced_run(report: Report, workload: Workload, seed: int,
                      seconds: float, deployment: Deployment,
                      runner: OpRunner) -> None:
    """One untraced pass with the ladder, the traced repeats, the replay."""
    lengths = {name: share * seconds for name, share in TRACED_SHARE.items()}
    pids = deployment.node_pids
    await _warm(report, workload, seed, runner)

    before_solo = await deployment.snapshot()
    report.tally(await closed_loop(
        runner, op_stream(workload, seed, "solo"), 1, lengths["solo"]))
    after_solo = await deployment.snapshot()

    rungs = []
    for rung in range(RUNGS):
        result = report.tally(await open_loop(
            runner, rung_arrivals(workload, seed, rung, seconds),
            lengths["rung"]))
        rungs.append(rung_summary(workload, rung, result))

    before_sat = await deployment.snapshot()
    rss: List[Tuple[float, float]] = []
    sat_meter = procfs.Meter(pids)

    def sat_deadline() -> None:
        sat_meter.stop()
        rss.append(procfs.rss_mb(pids))

    sat = report.tally(await closed_loop(
        runner, op_stream(workload, seed, "sat"), SAT_SESSIONS,
        lengths["sat"], at_deadline=sat_deadline))
    after_sat = await deployment.snapshot()

    traced = await _traced_phases(workload, seed, lengths, deployment,
                                  runner.gate, report)
    runner.errors.update(traced["runner"].errors)
    checked = runner.gate.verify()
    report.detail.update({"rungs": rungs, "verify": checked,
                          "phase_seconds": lengths,
                          "node_rss_mb_max": rss[0][1]})
    await _per_layer(
        report, workload, seed, deployment, runner.gate, traced, checked,
        rungs, Delta(before_solo, after_solo), Delta(before_sat, after_sat),
        sat, sat_meter)


async def _traced_phases(workload: Workload, seed: int,
                         lengths: Dict[str, float], deployment: Deployment,
                         gate: Gate, report: Report) -> Dict[str, Any]:
    """Repeat ``solo`` and ``sat`` with tracing on.

    Tracing = a sink on the client (every operation renders its span
    record) + the benchmark's own root span per call.  The nodes' flight
    recorders stay at their shipped 1-in-64 sampling; their records are
    scraped afterwards and joined per operation.
    """
    spans = Spans()
    sink = TaggingSink()
    clients = [deployment.client(f"t{i}", trace_sink=sink)
               for i in range(CLIENTS)]
    for client in clients:
        await client.connect()
    runner = OpRunner(workload, clients, gate, spans, sink)
    report.tally(await closed_loop(
        runner, op_stream(workload, seed, "traced-solo"), 1,
        lengths["traced_solo"]))
    sat = report.tally(await closed_loop(
        runner, op_stream(workload, seed, "traced-sat"), SAT_SESSIONS,
        lengths["traced_sat"]))
    flight, flight_total = await deployment.flight()
    stitched = [op for op in stitch(sink.records, flight) if op.servers]
    for op in stitched:
        for record in op.servers:
            parent = runner.phase_spans.get((op.op_id, record.get("phase")))
            if parent is not None and op.aligned:
                spans.add(f"server.{record.get('phase')}", record["recv"],
                          record["recv"] + record["queue_wait"]
                          + record["service"], parent, op.op_id)
    return {"runner": runner, "spans": spans, "sink": sink, "sat": sat,
            "stitched": stitched, "flight_total": flight_total}


async def _per_layer(report: Report, workload: Workload, seed: int,
                     deployment: Deployment, gate: Gate,
                     traced: Dict[str, Any], checked: Dict[str, float],
                     rungs: Sequence[Dict], solo_delta: Delta,
                     sat_delta: Delta, sat: ClosedResult,
                     sat_meter: procfs.Meter) -> None:
    """Counter deltas, traced waits, the layer replay and the budget."""
    out = report.per_layer
    w = workload
    ops = max(1, sat.completed_within())
    served = sat_delta.counter("node_frames_total")
    wire = sat_delta.counter("node_wire_frames_total")
    batches = sat_delta.counter("client_send_batches_total")
    rounds = sat_delta.observations("client_phase_seconds")

    def per_op(value: float) -> Tuple[float, int]:
        return (value / ops, ops)

    out["runtime.frames_per_op"] = per_op(served)
    out["runtime.send_batches_per_op"] = per_op(batches)
    out["runtime.frames_per_batch"] = (served / max(1.0, batches),
                                       int(batches))
    out["runtime.reply_batches_per_op"] = per_op(
        sat_delta.counter("node_reply_batches_total"))
    out["runtime.stale_replies_per_op"] = per_op(
        sat_delta.counter("client_replies_stale_total"))
    out["runtime.ctx_switches_per_op"] = per_op(sat_meter.delta["ctx"])
    out["transport.lo_packets_per_op"] = per_op(sat_meter.delta["lo_packets"])
    final = sat_delta.after
    for name, counter in (("runtime.ops_queued", "client_ops_queued_total"),
                          ("runtime.retries", "client_ops_retried_total"),
                          ("runtime.throttled", "client_throttled_total"),
                          ("runtime.drain_timeouts",
                           "client_drain_timeouts_total")):
        out[name] = (counter_total(final, counter), 1)
    out["transport.bad_frames"] = (
        counter_total(final, "node_frames_bad_total")
        + counter_total(final, "client_frames_dropped_total"), 1)

    # The paper's headline: one-shot reads, two-round writes.  Counted
    # in solo, where nothing is retried for load reasons.
    for kind in ("read", "write"):
        done = solo_delta.counter("client_ops_total", op=kind)
        phases = solo_delta.observations("client_phase_seconds", op=kind)
        out[f"core.rounds_per_{kind}"] = (phases / max(1.0, done), int(done))
    out["core.history_len_max"] = (await deployment.history_len_max(), 1)

    out["sharding.evictions_per_op"] = per_op(
        sat_delta.counter("table_evictions_total"))
    out["sharding.rehydrations_per_op"] = per_op(
        sat_delta.counter("table_rehydrations_total"))
    for name, gauge in (("sharding.keys_resident", "table_keys_resident"),
                        ("sharding.keys_archived", "table_keys_archived")):
        values = gauge_values(final, gauge)
        out[name] = (statistics.fmean(values) if values else 0.0,
                     len(values))

    byzantine_nodes = [f"s{i:03d}" for i in w.byzantine]
    out["byzantine.forged_replies"] = (sum(
        histogram_count(final, "node_phase_seconds", node=node, phase=phase)
        for node in byzantine_nodes
        for phase in ("get-tag", "get-data")), 1)

    out["deploy.node_cpu_us_per_op"] = per_op(
        sat_meter.delta["node_cpu"] * 1e6)
    out["deploy.client_cpu_us_per_op"] = per_op(
        sat_meter.delta["client_cpu"] * 1e6)
    out["deploy.node_rss_mb_max"] = (report.detail["node_rss_mb_max"], 1)

    out["consistency.ops_checked"] = (checked["ops_checked"], 1)
    out["consistency.reads_checked"] = (checked["reads_checked"], 1)
    out["consistency.check_us_per_op"] = (
        checked["seconds"] / max(1, checked["ops_checked"]) * 1e6,
        int(checked["ops_checked"]))
    out["gate.safety_violations"] = (len(gate.violations),
                                     gate.reads_checked)

    for index, rung in enumerate(rungs, start=1):
        n = rung["completed"]
        out[f"loadgen.rung{index}_achieved_rps"] = (rung["achieved_rps"], n)
        out[f"loadgen.rung{index}_late_ms_p95"] = (rung["late_ms_tail"], n)
        out[f"loadgen.rung{index}_backlog_end"] = (rung["backlog_end"], n)
        out[f"loadgen.rung{index}_p50_ms"] = (rung["p50_ms"], n)
        out[f"loadgen.rung{index}_p95_ms"] = (rung["tail_ms"], n)
    out["loadgen.slo_rate_rps"] = (slo_rate(workload, rungs),
                                   sum(r["completed"] for r in rungs))

    # Traced run: waits the client saw, and what the servers say about
    # the same operations.
    records = traced["sink"].records
    phases = [p for r in records for p in r.get("phases", ())]
    witness = sorted(p["witness_wait"] for p in phases
                     if p.get("witness_wait") is not None)
    quorum = sorted(p["quorum_wait"] for p in phases
                    if p.get("quorum_wait") is not None)
    served_records = [s for op in traced["stitched"] for s in op.servers]
    queue = sorted(s["queue_wait"] for s in served_records)
    service = sorted(s["service"] for s in served_records)
    out["runtime.witness_wait_ms_p50"] = (
        _ms(percentile(witness, 0.5)), len(witness))
    out["runtime.quorum_wait_ms_p50"] = (
        _ms(percentile(quorum, 0.5)), len(quorum))
    out["runtime.server_queue_wait_us_p50"] = (
        _scaled(percentile(queue, 0.5), 1e6), len(queue))
    out["runtime.server_service_us_p50"] = (
        _scaled(percentile(service, 0.5), 1e6), len(service))
    out["obs.flight_records"] = (traced["flight_total"], 1)
    untraced = statistics.median(sat.window_rates(SAT_WINDOWS))
    traced_rate = statistics.median(
        traced["sat"].window_rates(max(2, SAT_WINDOWS // 2)))
    out["obs.trace_overhead_pct"] = (
        (untraced - traced_rate) / untraced * 100.0, SAT_WINDOWS)

    replay = layers.run_replay(
        w, seed, frames_per_batch=out["runtime.frames_per_batch"][0],
        live_registry=deployment.registry, spans=traced["spans"])
    for name, value in replay.items():
        out[name] = (value, 1)

    cpu_us = (sat_meter.delta["client_cpu"]
              + sat_meter.delta["node_cpu"]) / ops * 1e6
    report.detail["traced_run_cpu_us_per_op"] = cpu_us
    _budget(report, workload, cpu_us, served / ops, wire / ops, rounds / ops)
    report.detail["span_self_times"] = traced["spans"].self_times()
    report.spans = traced["spans"]


def _budget(report: Report, workload: Workload, total: float, served: float,
            wire: float, rounds: float) -> None:
    """Named layer costs + ``runtime.other`` = ``total`` CPU µs per op.

    ``total`` is the CPU per operation of this traced run's own untraced
    ``sat`` phase.  Each layer's cost per operation is its replayed
    per-call time times the calls per operation the live counters show
    (``served`` messages handled by nodes, ``wire`` frames into nodes,
    ``rounds`` client rounds).  What the named layers do not explain -- the event loop,
    task switches, socket system calls -- is ``runtime.other``, the
    honest residual; the shares sum to the whole by construction.
    """
    out = report.per_layer
    w = workload
    quorum_share = (w.n - w.f) / w.n
    write_share = 1.0 - w.read_ratio

    def t(name: str) -> float:
        return out[name][0] or 0.0       # a vanished probe explains nothing

    erasure = (write_share * t("erasure.encode_us")
               + w.read_ratio * t("erasure.decode_clean_us"))
    costs = {
        "transport": (
            (rounds + served) * t("transport.encode_us")
            + (served + served * quorum_share) * t("transport.decode_us")
            + 2 * wire * (t("transport.seal_us") + t("transport.open_us")
                          + t("transport.assemble_us"))),
        # BCSR encodes and decodes inside the client operation; that
        # part is shown under erasure, not twice.
        "core": (served * t("core.server_handle_us")
                 + max(0.0, t("core.client_op_us") - erasure)),
        "sharding": (
            t("sharding.route_us") + served * t("sharding.table_handle_us")
            + out["sharding.rehydrations_per_op"][0]
            * t("sharding.rehydrate_us")),
        "erasure": erasure,
        "byzantine": (served * len(w.byzantine) / w.n
                      * t("byzantine.behavior_us")),
        "obs": (
            (served + 1 + rounds * (3 + w.n - w.f)) * t("obs.observe_ns")
            + (served + 2 * wire + 2) * t("obs.counter_inc_ns")) / 1e3,
        "loadgen": t("loadgen.self_us_per_op"),
    }
    for layer, cost in costs.items():
        out[f"{layer}.us_per_op"] = (cost, 1)
    other = total - sum(costs.values())
    out["runtime.other_us_per_op"] = (other, 1)
    out["runtime.other_share"] = (other / total, 1)
