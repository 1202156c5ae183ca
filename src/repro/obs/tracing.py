"""Per-operation tracing: one span per client read/write.

A span records what the paper's round-trip claims are *about*: which
phases the operation ran (``get-tag`` then ``put-data`` for a write, a
single ``get-data`` round for a semi-fast read), how long each phase
took, which servers it was sent to (a thrifty client holds some back
unless it hedges), how quickly each server answered, and the
quorum-wait breakdown --
the time until ``f + 1`` distinct servers had replied (enough witnesses
to trust a value) versus the time until ``n - f`` had (enough replies to
decide).  Spans finish with an outcome: ``ok``, ``retried`` (a lost
link forced an in-flight re-send), ``throttled`` (a server shed a
frame), ``timeout`` (the liveness deadline expired) or ``error``.

Spans always feed the operation/phase histograms of a
:class:`~repro.obs.registry.MetricRegistry`; attaching a *sink*
additionally emits one structured JSON record per operation.  Sinks are
pluggable -- :class:`JsonlSink` appends lines to a file (the default
production choice), :class:`MemorySink` keeps records in a list for
tests, and anything with an ``emit(record: dict)`` method works.

The hot path is deliberately cheap -- a few clock reads and dict writes
per reply -- so tracing can stay on under benchmark load (the E17
overhead budget is 5%).
"""

from __future__ import annotations

import json
import threading
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.registry import MetricRegistry


class NullSink:
    """Discard every record (tracing off, histograms still fed)."""

    def emit(self, record: Dict) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Keep records in a list -- for tests and interactive inspection."""

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def emit(self, record: Dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Append one JSON line per span to a file or writable stream.

    Writes are serialized under a lock so several clients (or threads)
    can share one sink; lines are flushed eagerly because trace files
    are most wanted exactly when the process dies unexpectedly.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._own = isinstance(target, str)
        self._fh = open(target, "a", encoding="utf-8") if self._own else target
        self._lock = threading.Lock()

    def emit(self, record: Dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._own:
            self._fh.close()


class SamplingSink:
    """Keep one span record in ``sample`` by deterministic op_id modulus.

    The predicate (``op_id % sample == 0``) matches
    :meth:`repro.obs.flight.FlightRecorder.wants`, so a client tracing
    through a sampling sink and servers recording at the same modulus
    retain records for exactly the same operations -- every sampled op
    can be stitched end-to-end without any cross-process coordination.
    ``sample <= 1`` keeps everything.
    """

    def __init__(self, sink, sample: int = 64) -> None:
        if sample < 1:
            raise ValueError("sampling modulus must be >= 1")
        self.sink = sink
        self.sample = sample

    def emit(self, record: Dict) -> None:
        op_id = record.get("op_id")
        if self.sample <= 1 or (type(op_id) is int
                                and op_id % self.sample == 0):
            self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()


class PhaseTimings:
    """Mutable per-phase accumulator inside a span."""

    __slots__ = ("name", "started", "ended", "sent", "replies",
                 "witness_wait", "quorum_wait")

    def __init__(self, name: str, started: float,
                 sent: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.started = started
        self.ended: Optional[float] = None
        #: Servers the phase's frames went to (a hedge adds the held).
        self.sent = sent
        #: server id -> seconds from phase start to its first reply.
        self.replies: Dict[str, float] = {}
        self.witness_wait: Optional[float] = None
        self.quorum_wait: Optional[float] = None


class OpSpan:
    """One traced operation; create through :meth:`OpTracer.start`."""

    def __init__(self, tracer: "OpTracer", kind: str, op_id: int,
                 witness: int, quorum: int, started: float,
                 servers: Sequence[str] = ()) -> None:
        self._tracer = tracer
        self.kind = kind
        self.op_id = op_id
        self.witness = witness
        self.quorum = quorum
        self.started = started
        #: The operation's servers (its quorum group).
        self.servers = servers
        self.phases: List[PhaseTimings] = []
        self.throttles = 0
        self.resends = 0
        self.hedges = 0
        self.finished = False

    # -- recording ---------------------------------------------------------
    def begin_phase(self, name: str, now: float,
                    sent: Tuple[str, ...] = ()) -> None:
        """Close the current phase (if any) and open ``name``, whose
        frames go to ``sent``."""
        if self.phases:
            self.phases[-1].ended = now
        self.phases.append(PhaseTimings(name, now, sent))

    def record_reply(self, server: str, now: float) -> None:
        """Attribute one accepted reply to the current phase."""
        if not self.phases:
            return
        phase = self.phases[-1]
        server = str(server)
        if server in phase.replies:
            return  # duplicate (re-sent frame / Byzantine chatter)
        wait = now - phase.started
        phase.replies[server] = wait
        if len(phase.replies) == self.witness and phase.witness_wait is None:
            phase.witness_wait = wait
        if len(phase.replies) == self.quorum and phase.quorum_wait is None:
            phase.quorum_wait = wait

    def note_throttle(self) -> None:
        self.throttles += 1

    def note_resend(self, frames: int = 1) -> None:
        self.resends += frames

    def note_hedge(self, servers: Tuple[str, ...]) -> None:
        """The current phase was also sent to the held ``servers``."""
        self.hedges += 1
        if self.phases:
            self.phases[-1].sent += servers

    def held(self) -> List[str]:
        """Servers of the operation no phase was ever sent to."""
        asked = {server for phase in self.phases for server in phase.sent}
        return [str(server) for server in self.servers
                if server not in asked]

    # -- completion --------------------------------------------------------
    def finish(self, outcome: str, now: float) -> None:
        """Feed the histograms and emit the structured record (once)."""
        if self.finished:
            return
        self.finished = True
        if self.phases and self.phases[-1].ended is None:
            self.phases[-1].ended = now
        self._tracer._record(self, outcome, now)


class OpTracer:
    """Factory for :class:`OpSpan`; owns the registry and the sink.

    Spans may overlap: a multiplexed client runs many operations at
    once, each with its own span keyed by ``op_id``.  The tracer keeps
    the set of active (started, unfinished) spans and mirrors its size
    into the ``client_inflight_ops`` gauge, so scrapes show how deep the
    pipeline currently is.
    """

    def __init__(self, registry: MetricRegistry,
                 sink: Optional[object] = None,
                 client_id: str = "", algorithm: str = "") -> None:
        self.registry = registry
        self.sink = sink
        self.client_id = str(client_id)
        self.algorithm = algorithm
        #: Active spans by ``op_id`` (started but not yet finished).
        self._active: Dict[int, OpSpan] = {}
        self._inflight_gauge = registry.gauge("client_inflight_ops",
                                              client=self.client_id)
        #: Resolved-metric caches: every span finish records into the
        #: same handful of (kind, phase, outcome) metrics, and resolving
        #: them through the registry costs a lock and a label sort each
        #: time -- noticeable at thousands of ops per second.
        self._ops_counters: Dict = {}
        self._op_hists: Dict = {}
        self._phase_hists: Dict = {}
        self._wait_hists: Dict = {}
        self._server_hists: Dict = {}

    def start(self, kind: str, op_id: int, witness: int, quorum: int,
              now: float, servers: Sequence[str] = ()) -> OpSpan:
        span = OpSpan(self, kind, op_id, witness, quorum, now, servers)
        self._active[op_id] = span
        self._inflight_gauge.set(len(self._active))
        return span

    def active(self) -> List[OpSpan]:
        """The currently in-flight spans (snapshot)."""
        return list(self._active.values())

    # -- internal ----------------------------------------------------------
    def _record(self, span: OpSpan, outcome: str, now: float) -> None:
        self._active.pop(span.op_id, None)
        self._inflight_gauge.set(len(self._active))
        latency = now - span.started
        registry = self.registry
        kind = span.kind
        counter = self._ops_counters.get((kind, outcome))
        if counter is None:
            counter = self._ops_counters[(kind, outcome)] = registry.counter(
                "client_ops_total", op=kind, outcome=outcome)
        counter.inc()
        op_hist = self._op_hists.get(kind)
        if op_hist is None:
            op_hist = self._op_hists[kind] = registry.histogram(
                "client_op_seconds", op=kind)
        op_hist.observe(latency)
        for phase in span.phases:
            duration = (phase.ended if phase.ended is not None
                        else now) - phase.started
            phase_hist = self._phase_hists.get((kind, phase.name))
            if phase_hist is None:
                phase_hist = self._phase_hists[(kind, phase.name)] = (
                    registry.histogram("client_phase_seconds", op=kind,
                                       phase=phase.name))
            phase_hist.observe(duration)
            if phase.witness_wait is not None:
                self._wait_hist(kind, "witness").observe(phase.witness_wait)
            if phase.quorum_wait is not None:
                self._wait_hist(kind, "quorum").observe(phase.quorum_wait)
            for server, wait in phase.replies.items():
                server_hist = self._server_hists.get(server)
                if server_hist is None:
                    server_hist = self._server_hists[server] = (
                        registry.histogram("client_server_reply_seconds",
                                           server=server))
                server_hist.observe(wait)
        if self.sink is not None:
            self.sink.emit(self._render(span, outcome, latency, now))

    def _wait_hist(self, kind: str, stage: str):
        hist = self._wait_hists.get((kind, stage))
        if hist is None:
            hist = self._wait_hists[(kind, stage)] = self.registry.histogram(
                "client_quorum_wait_seconds", op=kind, stage=stage)
        return hist

    def _render(self, span: OpSpan, outcome: str, latency: float,
                now: float) -> Dict:
        return {
            "ts": now,
            "client": self.client_id,
            "algorithm": self.algorithm,
            "kind": span.kind,
            "op_id": span.op_id,
            "outcome": outcome,
            "latency": latency,
            "throttles": span.throttles,
            "resends": span.resends,
            "hedges": span.hedges,
            # Never asked: a server that is silent here was not slow.
            "held": span.held(),
            # Operations still in flight when this one finished (pipeline
            # depth at completion time).
            "inflight": len(self._active),
            "phases": [
                {
                    "phase": phase.name,
                    "duration": ((phase.ended if phase.ended is not None
                                  else now) - phase.started),
                    "witness_wait": phase.witness_wait,
                    "quorum_wait": phase.quorum_wait,
                    "sent": [str(server) for server in phase.sent],
                    "replies": dict(phase.replies),
                }
                for phase in span.phases
            ],
        }


#: Request message type -> protocol phase, shared by the client (naming
#: its rounds) and the node (bucketing its per-frame service times), so
#: client-side and server-side histograms line up phase for phase.  The
#: protocol registry merges each registered protocol's message vocabulary
#: into this dict (the node keeps a reference, so updates are live).
PHASE_BY_MESSAGE = {
    "QueryTag": "get-tag",
    "PutData": "put-data",
    "QueryData": "get-data",
}

#: algorithm -> {"write": {round: phase}, "read": {round: phase}},
#: populated by :func:`register_phase_names` as protocols register.
_ROUND_PHASES: dict = {}

#: Fallbacks for rounds no protocol named explicitly: the get-tag /
#: put-data write shape and one-shot get-data reads are the lingua
#: franca of every register here.
_DEFAULT_PHASES = {
    "write": {1: "get-tag", 2: "put-data"},
    "read": {1: "get-data"},
}


def register_phase_names(algorithm: str, write_phases, read_phases,
                         message_phases=None) -> None:
    """Teach the tracer a protocol's phase vocabulary.

    Called by the protocol registry at registration time, keeping this
    module free of per-algorithm knowledge: ``write_phases`` and
    ``read_phases`` map round numbers to phase names for the client
    side, ``message_phases`` maps request type names to phases for the
    server side (merged into :data:`PHASE_BY_MESSAGE`).
    """
    _ROUND_PHASES[algorithm] = {
        "write": dict(write_phases or {}),
        "read": dict(read_phases or {}),
    }
    PHASE_BY_MESSAGE.update(message_phases or {})


def phase_name(kind: str, round_number: int, algorithm: str = "") -> str:
    """Human name of a client round (``get-tag``, ``put-data``, ...)."""
    if algorithm and not _ROUND_PHASES:
        # Lazily pull in the registrations; importing the registry from
        # here at module load would be circular.
        import repro.protocols  # noqa: F401
    table = _ROUND_PHASES.get(algorithm, _DEFAULT_PHASES)
    name = table.get(kind, {}).get(round_number)
    if name is None:
        name = _DEFAULT_PHASES.get(kind, {}).get(round_number)
    return name if name is not None else f"round-{round_number}"
