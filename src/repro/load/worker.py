"""Open-loop worker: replay an arrival schedule with honest latency.

One worker process runs one :class:`OpenLoopEngine`: a *pacer* coroutine
releases each :class:`~repro.workloads.arrivals.Arrival` at its
scheduled instant into a queue, and ``users`` session coroutines pull
from that queue and execute the operations against shared multiplexed
clients.  The discipline that makes the rig open-loop is in the
measurement, not the plumbing:

* Latency is measured from the arrival's *scheduled* instant, so an
  operation that waited behind a backlog is charged its queueing delay
  (``load_op_seconds``).  The closed-loop view -- measured from actual
  submission, the coordinated-omission number -- is recorded alongside
  it (``load_service_seconds``) so the two can be compared; the
  open-loop tests assert they diverge under overload.
* Late operations are *recorded as queued, never skipped*: a session
  that dequeues an arrival past its due time counts it in
  ``load_ops_queued_total`` and runs it anyway.
* When the run ends, whatever backlog remains after a bounded drain
  grace is *abandoned* -- counted as failures with their
  latency-so-far observed as a lower bound -- rather than silently
  dropped, so an overloaded pass reports an honestly bad tail instead
  of a rosy truncated one.

Writes carry self-certifying values (``key|writer|seq`` padded to the
configured size), so every sampled read can be prefix-checked on the
spot and the full sampled trace re-checked by the coordinator with the
paper's safety checker.

``worker_main`` is the ``repro load-worker`` subprocess entry point:
config arrives as one JSON document on stdin, progress leaves as JSON
lines on stdout (``ready`` / ``snapshot`` / ``done``) -- the same
pipe-per-child protocol the node supervisor uses for readiness lines.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, IO, List, Optional, Sequence

from repro.core.namespace import DEFAULT_REGISTER
from repro.errors import LivenessError
from repro.obs import MetricRegistry
from repro.sim.rng import SimRng
from repro.workloads.arrivals import (
    COOLDOWN,
    MEASURE,
    WARMUP,
    Arrival,
    Windows,
    generate_arrivals,
)

#: A dequeue this much past its scheduled instant counts as "queued"
#: (sessions were saturated); smaller skews are scheduler jitter.
LATE_THRESHOLD = 0.001

#: Hard cap on sampled-trace records per worker (the coordinator merges
#: every worker's, so the cap bounds IPC payloads, not coverage of the
#: sampled keys under normal rates).
TRACE_LIMIT = 50_000

_WINDOWS = (WARMUP, MEASURE, COOLDOWN)


def make_value(register: str, writer: Any, seq: int, size: int) -> bytes:
    """A self-certifying write value: ``key|writer|seq`` padded to size."""
    body = f"{register}|{writer}|{seq}".encode()
    return body.ljust(size, b".") if len(body) < size else body


def value_anomaly(register: str, value: Any,
                  initial: bytes = b"") -> Optional[str]:
    """Why a read value could not have been written to ``register``.

    ``None`` when the value is the initial value or carries the
    register's self-certifying prefix; otherwise a description (a value
    from another key, or bytes no writer of this rig produced).
    """
    if not isinstance(value, (bytes, bytearray)):
        return f"non-bytes value {type(value).__name__}"
    stripped = bytes(value).rstrip(b".")
    if stripped == initial:
        return None
    if stripped.startswith(f"{register}|".encode()):
        return None
    return f"value {stripped[:64]!r} does not certify for key {register!r}"


class OpenLoopEngine:
    """Replay ``arrivals`` against ``clients`` with open-loop recording.

    ``clients`` are duck-typed: anything with ``client_id`` and
    awaitable ``read(register=...)`` / ``write(value, register=...)``
    (the open-loop tests drive the engine with synthetic slow clients).
    Sessions share them round-robin -- the real client multiplexes any
    number of concurrent operations over one connection set.
    """

    def __init__(self, arrivals: Sequence[Arrival], windows: Windows,
                 clients: Sequence[Any], registry: MetricRegistry,
                 users: int, value_size: int = 64,
                 sample_keys: Sequence[str] = (),
                 initial_value: bytes = b"",
                 drain_grace: float = 10.0,
                 trace_limit: int = TRACE_LIMIT) -> None:
        if users < 1:
            raise ValueError("users must be at least 1")
        if not clients:
            raise ValueError("at least one client is required")
        self.arrivals = list(arrivals)
        self.windows = windows
        self.clients = list(clients)
        self.registry = registry
        self.users = users
        self.value_size = value_size
        self.sample_keys = frozenset(sample_keys)
        self.initial_value = initial_value
        self.drain_grace = drain_grace
        self.trace_limit = trace_limit
        self.trace: List[Dict[str, Any]] = []
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._seq = 0
        self._max_backlog = 0
        self._op_hist = {
            (op, window): registry.histogram("load_op_seconds", op=op,
                                             window=window)
            for op in ("read", "write") for window in _WINDOWS
        }
        self._service_hist = {
            (op, window): registry.histogram("load_service_seconds", op=op,
                                             window=window)
            for op in ("read", "write") for window in _WINDOWS
        }
        self._delay_hist = {
            window: registry.histogram("load_queue_delay_seconds",
                                       window=window)
            for window in _WINDOWS
        }
        self._arrivals_counter = {
            window: registry.counter("load_arrivals_total", window=window)
            for window in _WINDOWS
        }
        self._queued = registry.counter("load_ops_queued_total")
        self._anomalies = registry.counter("load_value_anomalies_total")
        self._backlog = registry.gauge("load_backlog")

    @property
    def backlog(self) -> int:
        """Arrivals released but not yet picked up by a session."""
        return self._queue.qsize()

    async def run(self) -> Dict[str, Any]:
        """Replay the whole schedule; returns the run's summary dict."""
        loop = asyncio.get_running_loop()
        self._epoch = loop.time()
        sessions = [asyncio.ensure_future(self._session(i))
                    for i in range(self.users)]
        await self._pace()
        abandoned = 0
        done, pending = await asyncio.wait(
            sessions, timeout=self.drain_grace)
        if pending:
            # Bounded drain: whatever the backlog still holds is counted,
            # not forgotten.  First the queued-but-unstarted arrivals ...
            now = loop.time()
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is None:
                    continue
                sched, arrival = item
                self._record_abandoned(arrival, sched, now)
                abandoned += 1
            # ... then the in-flight ones (their cancellation handler
            # records them -- see _execute).
            for task in pending:
                task.cancel()
            results = await asyncio.gather(*pending, return_exceptions=True)
            abandoned += sum(1 for r in results
                             if isinstance(r, asyncio.CancelledError))
        for task in done:
            task.result()  # surface engine bugs, not op failures
        self._backlog.set(0)
        return {
            "arrivals": {window: int(counter.value) for window, counter
                         in self._arrivals_counter.items()},
            "abandoned": abandoned,
            "queued": int(self._queued.value),
            "anomalies": int(self._anomalies.value),
            "max_backlog": self._max_backlog,
            "trace_records": len(self.trace),
            "trace_truncated": len(self.trace) >= self.trace_limit,
        }

    async def _pace(self) -> None:
        """Release every arrival at its scheduled instant, never skipping.

        When the loop falls behind (the process was starved), all due
        arrivals are released immediately -- they enter the queue late
        and their lateness is charged to their latency, which is the
        whole point.
        """
        loop = asyncio.get_running_loop()
        epoch = self._epoch
        put = self._queue.put_nowait
        for arrival in self.arrivals:
            target = epoch + arrival.offset
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self._arrivals_counter[self.windows.label(arrival.offset)].inc()
            put((target, arrival))
            backlog = self._queue.qsize()
            if backlog > self._max_backlog:
                self._max_backlog = backlog
        for _ in range(self.users):
            put(None)

    async def _session(self, index: int) -> None:
        client = self.clients[index % len(self.clients)]
        queue = self._queue
        while True:
            item = await queue.get()
            if item is None:
                return
            sched, arrival = item
            await self._execute(client, sched, arrival)

    async def _execute(self, client: Any, sched: float,
                       arrival: Arrival) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        window = self.windows.label(arrival.offset)
        delay = start - sched
        self._delay_hist[window].observe(max(0.0, delay))
        if delay > LATE_THRESHOLD:
            self._queued.inc()
        key = arrival.key
        register = key if key is not None else DEFAULT_REGISTER
        sampled = register in self.sample_keys
        wall_start = time.time()
        outcome = "ok"
        value: Any = None
        entry: Optional[Dict[str, Any]] = None
        if sampled and arrival.kind == "write" and (
                len(self.trace) < self.trace_limit):
            # Logged *before* the attempt and left incomplete on failure:
            # safety quantifies over writes that began, and a timed-out
            # write may still have committed server side.
            entry = {"client": str(client.client_id), "kind": "write",
                     "key": register, "start": wall_start, "end": None,
                     "value": None}
            self.trace.append(entry)
        try:
            if arrival.kind == "write":
                self._seq += 1
                value = make_value(register, client.client_id, self._seq,
                                   self.value_size)
                if entry is not None:
                    entry["value"] = value.decode("utf-8", "replace")
                if key is None:
                    await client.write(value)
                else:
                    await client.write(value, register=key)
            else:
                value = await (client.read() if key is None
                               else client.read(register=key))
        except asyncio.CancelledError:
            self._record_abandoned(arrival, sched, loop.time())
            raise
        except LivenessError:
            outcome = "timeout"
        except Exception as exc:
            outcome = "error"
            self.registry.counter("load_errors_total",
                                  kind=type(exc).__name__).inc()
        end = loop.time()
        self._op_hist[(arrival.kind, window)].observe(end - sched)
        self._service_hist[(arrival.kind, window)].observe(end - start)
        self.registry.counter("load_ops_total", op=arrival.kind,
                              window=window, outcome=outcome).inc()
        if outcome != "ok":
            return
        if entry is not None:
            entry["end"] = time.time()
        elif sampled and arrival.kind == "read":
            anomaly = value_anomaly(register, value, self.initial_value)
            if anomaly is not None:
                self._anomalies.inc()
            if len(self.trace) < self.trace_limit:
                rendered = (bytes(value).decode("utf-8", "replace")
                            if isinstance(value, (bytes, bytearray))
                            else None)
                self.trace.append({
                    "client": str(client.client_id),
                    "kind": "read",
                    "key": register,
                    "start": wall_start,
                    "end": time.time(),
                    "value": rendered,
                })

    def _record_abandoned(self, arrival: Arrival, sched: float,
                          now: float) -> None:
        """Count one never-finished arrival with its lower-bound latency."""
        window = self.windows.label(arrival.offset)
        self._op_hist[(arrival.kind, window)].observe(max(0.0, now - sched))
        self.registry.counter("load_ops_total", op=arrival.kind,
                              window=window, outcome="abandoned").inc()


# -- subprocess protocol ----------------------------------------------------

def _emit(stream: IO[str], event: str, **fields: Any) -> None:
    record = {"event": event, **fields}
    stream.write(json.dumps(record, separators=(",", ":"),
                            sort_keys=True) + "\n")
    stream.flush()


async def _stream_snapshots(engine: OpenLoopEngine, registry: MetricRegistry,
                            stream: IO[str], worker: int,
                            interval: float) -> None:
    try:
        while True:
            await asyncio.sleep(interval)
            engine._backlog.set(engine.backlog)
            _emit(stream, "snapshot", worker=worker, ts=time.time(),
                  snapshot=registry.snapshot())
    except asyncio.CancelledError:
        return


async def run_worker(config: Dict[str, Any],
                     stream: IO[str]) -> Dict[str, Any]:
    """Run one worker's pass per ``config``; emits protocol lines.

    The coordinator builds the config: the full cluster spec (so the
    worker derives keys and placement exactly as any client would), the
    live address map, this worker's profile slice and its index.
    """
    from repro.node.spec import ClusterSpec
    from repro.load.profile import LoadProfile

    worker = int(config.get("worker", 0))
    spec = ClusterSpec.from_dict(config["spec"])
    profile = LoadProfile.from_dict(config["profile"])
    addresses = {pid: (host, int(port)) for pid, (host, port)
                 in config["addresses"].items()}
    registry = MetricRegistry()
    windows = profile.windows()
    rng = SimRng(profile.seed, f"load/worker{worker:03d}")
    arrivals = generate_arrivals(profile.rps, windows, profile.read_ratio,
                                 rng, num_keys=profile.keys,
                                 zipf_s=profile.zipf_s)
    clients = [
        spec.client(f"lw{worker:02d}c{i:02d}", addresses=addresses,
                    timeout=profile.timeout, registry=registry)
        for i in range(min(profile.clients_per_worker, profile.users))
    ]
    try:
        for client in clients:
            await client.connect()
        engine = OpenLoopEngine(
            arrivals, windows, clients, registry, users=profile.users,
            value_size=profile.value_size, sample_keys=profile.sample_keys,
            initial_value=spec.initial_value.encode(),
            drain_grace=min(profile.timeout, 10.0))
        _emit(stream, "ready", worker=worker, arrivals=len(arrivals))
        streamer = asyncio.ensure_future(_stream_snapshots(
            engine, registry, stream, worker,
            float(config.get("snapshot_interval", 1.0))))
        try:
            summary = await engine.run()
        finally:
            streamer.cancel()
            try:
                await streamer
            except asyncio.CancelledError:
                pass
        result = {
            "worker": worker,
            "summary": summary,
            "snapshot": registry.snapshot(),
            "trace": engine.trace,
        }
        _emit(stream, "done", worker=worker, result=result)
        return result
    finally:
        for client in clients:
            await client.close()


def worker_main(stdin: IO[str] = None, stdout: IO[str] = None) -> int:
    """``repro load-worker`` entry point: config on stdin, JSONL out."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    config = json.load(stdin)
    asyncio.run(run_worker(config, stdout))
    return 0
