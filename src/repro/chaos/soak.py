"""Soak runs: a mixed read/write workload under a nemesis schedule.

:func:`run_soak` is the one entry point behind the ``repro chaos`` CLI,
the chaos integration tests and benchmark E17.  It starts a cluster,
lets a writer and a pair of readers issue operations paced across the
schedule window while the :class:`~repro.chaos.nemesis.Nemesis` injects
faults, and records every operation into a
:class:`~repro.sim.trace.Trace` so the paper's safety checker
(Definition 1) can judge the execution afterwards.

Two cluster backends:

* ``procs=False`` (default): a chaos-enabled in-process
  :class:`~repro.runtime.cluster.LocalCluster` -- every schedule works,
  including frame-level faults through the chaos proxies.
* ``procs=True``: a real process-per-node cluster via
  :class:`~repro.deploy.supervisor.ClusterSupervisor` -- crashes are
  SIGKILLs of OS processes and restarts are snapshot-recovering
  respawns, so only crash/restart schedules
  (:data:`~repro.chaos.nemesis.PROCESS_SCHEDULES`) apply.

Liveness is checked the strong way: every schedule that keeps ``n - f``
servers reachable must complete every operation, so any raised
``LivenessError`` (or other failure) is recorded as an error and fails
the soak.  The deliberate exception is ``exceed-f``, which takes down
``f + 1`` servers to *demonstrate* lost liveness -- there the recorded
errors are the expected result.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.nemesis import (
    PROCESS_SCHEDULES,
    Nemesis,
    build_schedule,
)
from repro.consistency import check_safety, check_safety_per_register
from repro.consistency.registers import REGISTER_META
from repro.consistency.result import CheckResult
from repro.errors import ConfigurationError
from repro.metrics import summarize_trace
from repro.obs import (
    LatencySummary,
    MetricRegistry,
    SnapshotLog,
    summarize_histogram_snapshot,
)
from repro.sim.rng import SimRng
from repro.sim.trace import OpKind, Trace
from repro.workloads.generator import ZipfSampler


@dataclass
class SoakResult:
    """Everything a soak run learned."""

    algorithm: str
    schedule: str
    seed: int
    trace: Trace
    safety: CheckResult
    nemesis_events: List[str]
    fault_counts: Dict[str, int]
    client_stats: Dict[str, Dict[str, int]]
    errors: List[str]
    wall_time: float
    #: Whether the workload ran against real OS processes.
    procs: bool = False
    #: Number of distinct keys the workload spanned (1 = single register).
    keys: int = 1
    #: Final on-disk snapshot size per node (bytes), when snapshots exist.
    snapshot_bytes: Dict[str, int] = field(default_factory=dict)
    #: Snapshot of the run's shared metric registry (clients, nodes,
    #: proxies, nemesis) -- see :meth:`repro.obs.MetricRegistry.snapshot`.
    metrics: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Safety held and every operation completed in time."""
        return self.safety.ok and not self.errors

    @property
    def ops_completed(self) -> int:
        return len(self.trace.completed)

    def latency_summary(self):
        """Per-kind latency/round statistics (see :mod:`repro.metrics`).

        Round counts and incompletes come from the trace; the latency
        figures come from the run's ``client_op_seconds`` histograms
        when metrics were recorded (one aggregation path with live
        scrapes) and fall back to the trace's raw latency lists.
        """
        summaries = summarize_trace(self.trace)
        for entry in self.metrics.get("histograms", ()):
            if entry["name"] != "client_op_seconds":
                continue
            op = entry.get("labels", {}).get("op")
            if op in summaries and sum(entry["counts"]):
                summaries[op].latency = summarize_histogram_snapshot(entry)
        return summaries

    def phase_summary(self) -> Dict[str, Dict[str, LatencySummary]]:
        """Per-kind, per-phase latency summaries from the histograms.

        ``{"write": {"get-tag": LatencySummary, "put-data": ...},
        "read": {"get-data": ...}}`` -- empty when the run recorded no
        metrics.
        """
        out: Dict[str, Dict[str, LatencySummary]] = {}
        for entry in self.metrics.get("histograms", ()):
            if entry["name"] != "client_phase_seconds":
                continue
            labels = entry.get("labels", {})
            op = labels.get("op", "")
            phase = labels.get("phase", "")
            if sum(entry["counts"]):
                out.setdefault(op, {})[phase] = (
                    summarize_histogram_snapshot(entry))
        return out

    def outcome_counts(self) -> Dict[str, Dict[str, int]]:
        """``{op: {outcome: count}}`` from ``client_ops_total``."""
        out: Dict[str, Dict[str, int]] = {}
        for entry in self.metrics.get("counters", ()):
            if entry["name"] != "client_ops_total":
                continue
            labels = entry.get("labels", {})
            op = labels.get("op", "")
            outcome = labels.get("outcome", "")
            out.setdefault(op, {})[outcome] = (
                out.get(op, {}).get(outcome, 0) + int(entry["value"]))
        return out


async def _run_op(client, trace: Trace, index: int, kind: OpKind,
                  value_size: int, prefix: str, errors: List[str],
                  register: Optional[str] = None) -> None:
    """Issue one traced operation on ``client``; errors are recorded.

    ``register`` targets a named register of a keyed (namespaced or
    sharded) deployment; the trace record is annotated with it so the
    per-register checkers can split the history afterwards.
    """
    loop = asyncio.get_running_loop()
    kwargs = {"register": register} if register is not None else {}
    if kind is OpKind.WRITE:
        value = f"{prefix}:{index}".encode().ljust(value_size, b".")
        record = trace.begin(client.client_id, kind, loop.time(), value=value)
        if register is not None:
            record.meta[REGISTER_META] = register
        try:
            tag = await client.write(value, **kwargs)
        except Exception as exc:
            errors.append(f"write #{index} by {client.client_id}: {exc}")
            return
        trace.complete(record, loop.time(), tag=tag)
    else:
        record = trace.begin(client.client_id, kind, loop.time())
        if register is not None:
            record.meta[REGISTER_META] = register
        try:
            value = await client.read(**kwargs)
        except Exception as exc:
            errors.append(f"read #{index} by {client.client_id}: {exc}")
            return
        trace.complete(record, loop.time(), value=value)


async def _client_loop(client, trace: Trace, kinds: List[OpKind],
                       think: float, rng: SimRng, value_size: int,
                       prefix: str, errors: List[str],
                       concurrency: int = 1,
                       registers: Optional[List[Optional[str]]] = None) -> None:
    """Issue ``kinds`` on one client, paced across the fault window.

    ``concurrency == 1`` is the classic closed loop: each operation
    completes before the think-time sleep that precedes the next one
    (and the pacing is byte-for-byte reproducible for a given rng, which
    the determinism tests rely on).  With ``concurrency > 1`` the loop
    goes open: submissions keep the schedule's pace whether or not
    earlier operations have finished, with at most ``concurrency``
    in flight at once -- the multiplexed-client load shape.
    """
    if registers is None:
        registers = [None] * len(kinds)
    if concurrency <= 1:
        for index, kind in enumerate(kinds):
            await _run_op(client, trace, index, kind, value_size, prefix,
                          errors, register=registers[index])
            await asyncio.sleep(think * (0.5 + rng.random()))
        return
    limit = asyncio.Semaphore(concurrency)

    async def paced(index: int, kind: OpKind) -> None:
        try:
            await _run_op(client, trace, index, kind, value_size, prefix,
                          errors, register=registers[index])
        finally:
            limit.release()

    tasks = []
    for index, kind in enumerate(kinds):
        await limit.acquire()
        tasks.append(asyncio.ensure_future(paced(index, kind)))
        await asyncio.sleep(think * (0.5 + rng.random()))
    await asyncio.gather(*tasks)


async def _await_redials(clients, cluster, timeout: float,
                         errors: List[str]) -> None:
    """Wait until every client is connected to every running node.

    A process cluster's restarts are respawns that take real time, so the
    last operations can finish before the clients' backoff re-dials the
    node the nemesis brought back; the soak ends healed instead, and a
    client still cut off from a running node after ``timeout`` is
    recorded as an error.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        running = sum(1 for handle in cluster.handles.values()
                      if handle.running)
        behind = [client.client_id for client in clients
                  if client.stats()["connected"] < running]
        if not behind:
            return
        if loop.time() >= deadline:
            errors.append(f"clients {behind} did not re-dial every running "
                          f"node within {timeout}s")
            return
        await asyncio.sleep(0.01)


def _snapshot_sizes(snapshot_dir: Optional[str]) -> Dict[str, int]:
    """On-disk bytes per node snapshot (empty when nothing persisted)."""
    if snapshot_dir is None or not os.path.isdir(snapshot_dir):
        return {}
    sizes = {}
    for name in sorted(os.listdir(snapshot_dir)):
        if name.endswith(".snapshot"):
            sizes[name[:-len(".snapshot")]] = os.path.getsize(
                os.path.join(snapshot_dir, name))
    return sizes


async def run_soak(algorithm: str = "bsr", f: int = 1,
                   schedule: str = "combo", ops: int = 40,
                   read_ratio: float = 0.6, value_size: int = 32,
                   seed: int = 0, start: float = 0.5, period: float = 1.0,
                   timeout: float = 15.0,
                   snapshot_dir: Optional[str] = None,
                   max_history: Optional[int] = None,
                   procs: bool = False,
                   concurrency: int = 1,
                   keys: int = 1, zipf_s: float = 0.99,
                   client_kwargs: Optional[Dict[str, Any]] = None,
                   timeseries_path: Optional[str] = None,
                   timeseries_interval: float = 1.0) -> SoakResult:
    """Run ``ops`` mixed operations under the named nemesis schedule.

    ``procs=True`` runs the workload against a process-per-node cluster
    (one OS process per server, SIGKILL crashes, snapshot-recovery
    restarts); ``max_history`` bounds the history list of history-serving
    and Byzantine servers (other correct ones keep one pair) so long
    soaks keep snapshots from growing without bound.  ``concurrency``
    switches each client's loop from closed to open: up to that many
    operations in flight per client at once (see :func:`_client_loop`).

    ``keys > 1`` turns the workload multi-key: the cluster becomes a
    sharded keyspace, every operation targets a ``key-<i>`` register
    drawn Zipf(``zipf_s``), and safety is judged per register.  Groups
    span the whole fleet (``group_size = n``) so crash schedules keep
    the same liveness margin as the single-register soak -- the point
    here is the per-key state table and routing under faults, not
    placement-induced quorum shrinkage.

    ``timeseries_path`` appends a windowed registry snapshot (JSON line
    with per-interval histogram deltas, see
    :class:`repro.obs.SnapshotLog`) every ``timeseries_interval``
    seconds while the workload runs -- the soak twin of
    ``repro load --timeseries``.
    """
    if concurrency < 1:
        raise ConfigurationError("concurrency must be at least 1")
    if keys < 1:
        raise ConfigurationError("keys must be at least 1")
    # Imported here: repro.runtime.cluster itself imports the chaos proxy,
    # so a module-level import would be circular.
    from repro.deploy import ClusterSpec, ClusterSupervisor
    from repro.runtime.cluster import LocalCluster

    if procs and schedule not in PROCESS_SCHEDULES:
        raise ConfigurationError(
            f"schedule {schedule!r} needs frame-level chaos proxies; a "
            f"process cluster runs {PROCESS_SCHEDULES}")

    rng = SimRng(seed, f"soak/{algorithm}/{schedule}")
    #: One registry for the whole run: clients, nemesis and (in-process)
    #: nodes/proxies all record into it, so the result's histograms
    #: aggregate per phase across every client.
    registry = (client_kwargs or {}).get("registry") or MetricRegistry()
    spec = ClusterSpec.for_workload(
        algorithm, f, keys=keys, seed=seed, snapshot_dir=snapshot_dir,
        max_history=max_history, secret=f"soak-{seed}")
    own_snapshots = snapshot_dir is None
    if own_snapshots:  # only once the spec is valid: nothing to leak
        snapshot_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        spec = dataclasses.replace(spec, snapshot_dir=snapshot_dir)
    loop = asyncio.get_running_loop()
    started = loop.time()
    if procs:
        cluster = ClusterSupervisor(spec, registry=registry)
    else:
        cluster = LocalCluster(algorithm, f=f, chaos=True, chaos_seed=seed,
                               snapshot_dir=snapshot_dir,
                               max_history=max_history, registry=registry,
                               keyspace=spec.keyspace_config())
    initial_value = spec.fleet.initial_value
    await cluster.start()
    try:
        steps = build_schedule(schedule, cluster.server_ids, f, seed=seed,
                               start=start, period=period)
        nemesis = Nemesis(cluster, steps, registry=registry)
        duration = max([step.at for step in steps], default=0.0) + period

        writes = max(1, round(ops * (1.0 - read_ratio)))
        reads = max(1, ops - writes)
        # One writer (BCSR is SWMR) and two readers, ops paced so the
        # workload spans the whole fault window.
        kwargs = dict(backoff_base=0.05, backoff_max=0.5)
        kwargs.update(client_kwargs or {})
        kwargs["registry"] = registry
        writer = cluster.client("w000", timeout=timeout, **kwargs)
        readers = [cluster.client(f"r{i:03d}", timeout=timeout, **kwargs)
                   for i in range(2)]
        for client in [writer] + readers:
            await client.connect()

        trace = Trace()
        errors: List[str] = []
        split = (reads + 1) // 2
        plans = [
            (writer, [OpKind.WRITE] * writes, "w000"),
            (readers[0], [OpKind.READ] * split, "r000"),
            (readers[1], [OpKind.READ] * (reads - split), "r001"),
        ]
        # Key draws come from a dedicated fork so a keys=1 run's pacing
        # stream is byte-for-byte what it was before keys existed.
        sampler = ZipfSampler(keys, zipf_s) if keys > 1 else None

        ts_log: Optional[SnapshotLog] = None
        ts_task: Optional[asyncio.Task] = None
        if timeseries_path is not None:
            import time as time_module

            ts_log = SnapshotLog(timeseries_path, windows=True)

            async def sample_timeseries() -> None:
                while True:
                    await asyncio.sleep(max(0.05, timeseries_interval))
                    ts_log.append(registry.snapshot(),
                                  ts=time_module.time(),
                                  extra={"schedule": schedule})

            ts_task = asyncio.ensure_future(sample_timeseries())

        tasks = [asyncio.ensure_future(nemesis.run())]
        for client, kinds, prefix in plans:
            think = duration / (len(kinds) + 1) if kinds else 0.0
            registers = None
            if sampler is not None:
                krng = rng.fork(f"{prefix}/keys")
                registers = [sampler.key(krng) for _ in kinds]
            tasks.append(asyncio.ensure_future(_client_loop(
                client, trace, kinds, think, rng.fork(prefix), value_size,
                f"{prefix}/{seed}", errors, concurrency=concurrency,
                registers=registers)))
        try:
            await asyncio.gather(*tasks)
        finally:
            if ts_task is not None:
                ts_task.cancel()
                try:
                    await ts_task
                except asyncio.CancelledError:
                    pass
            if ts_log is not None:
                import time as time_module

                # One final window so short runs still get a snapshot.
                # Same ``extra`` as the periodic appends: the extra keys
                # the window-delta series, so changing it would reset
                # the baseline and double-count the run.
                ts_log.append(registry.snapshot(), ts=time_module.time(),
                              extra={"schedule": schedule})
                ts_log.close()
        plan = cluster.chaos_plan  # None on a process cluster
        if plan is not None:
            plan.heal()
        if procs:
            await _await_redials([writer] + readers, cluster, timeout,
                                 errors)

        if keys > 1:
            safety = check_safety_per_register(trace,
                                               initial_value=initial_value)
        else:
            safety = check_safety(trace, initial_value=initial_value)
        return SoakResult(
            algorithm=algorithm, schedule=schedule, seed=seed, trace=trace,
            safety=safety, nemesis_events=list(nemesis.events),
            fault_counts=dict(plan.counts) if plan is not None else {},
            client_stats={c.client_id: c.stats()
                          for c in [writer] + readers},
            errors=errors, wall_time=loop.time() - started,
            procs=procs, keys=keys,
            snapshot_bytes=_snapshot_sizes(snapshot_dir),
            metrics=registry.snapshot(),
        )
    finally:
        await cluster.stop()
        if own_snapshots:
            shutil.rmtree(snapshot_dir, ignore_errors=True)
