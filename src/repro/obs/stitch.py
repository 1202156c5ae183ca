"""Causal trace stitching: join client spans with server flight records.

A sampled operation leaves two kinds of evidence: the client's
``OpSpan`` record (phases, per-server reply waits, the f+1 witness and
n-f quorum instants) and each server's flight-recorder entry (when the
frame arrived, how long it queued behind earlier frames in the burst,
how long the protocol handler ran, and whether it was served or shed).
This module joins them by ``op_id`` into one causal timeline::

    client op start
      -> phase begins
        -> server recv / serve / reply   (one line per server record)
        -> reply accepted by client      (per-server wait)
      -> f+1 witness instant
      -> n-f quorum instant
    client op finish

Both sides stamp ``time.monotonic()`` instants (CLOCK_MONOTONIC is
system-wide on Linux), so client and server events from processes on
one host align on a single absolute axis.  When the clocks are clearly
not comparable (multi-host scrape), the stitcher flags the op
``aligned=False`` and the renderer falls back to durations only.

A Byzantine node can withhold (or forge) its trace; stitching is
therefore *best effort by construction*: missing server records leave
a visible gap (``missing_servers``), never an error, and out-of-order
input is sorted before use.

Like the rest of :mod:`repro.obs` this module imports nothing from the
rest of the repository -- inputs are the plain dicts the tracer sinks
and the ``TraceAck`` scrapes already carry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["StitchedOp", "stitch", "stitch_op", "slowest",
           "format_timeline"]

#: A server recv more than this many seconds outside the client's
#: [start, finish] envelope means the clocks are not comparable.
ALIGNMENT_SLACK = 60.0


class StitchedOp:
    """One operation's joined client + server evidence.

    ``phases`` are dicts with absolute ``start`` plus ``duration``,
    ``witness_at`` / ``quorum_at`` instants (``None`` when the phase
    never accumulated that many replies) and the per-server reply
    waits.  ``servers`` are the flight records that matched the op,
    sorted by recv instant.  ``missing_servers`` names servers that
    answered the client but produced no flight record (withheld,
    evicted, or past the sampling window).  ``held_servers`` names
    servers the client never sent this op to (thrifty rounds), so their
    silence is not a fault.
    """

    def __init__(self, client_record: Dict,
                 server_records: Iterable[Dict]) -> None:
        self.record = client_record
        self.op_id = client_record.get("op_id")
        self.client = client_record.get("client", "")
        self.kind = client_record.get("kind", "")
        self.algorithm = client_record.get("algorithm", "")
        self.outcome = client_record.get("outcome", "")
        self.latency = float(client_record.get("latency", 0.0))
        #: Client clock: the sink stamps the *finish* instant.
        self.finished = float(client_record.get("ts", 0.0))
        self.started = self.finished - self.latency
        self.servers = sorted((dict(r) for r in server_records),
                              key=lambda r: r.get("recv", 0.0))
        self.phases = self._build_phases(client_record.get("phases", ()))
        self.aligned = self._check_alignment()
        replied = set()
        for phase in self.phases:
            replied.update(phase["replies"])
        recorded = {r.get("node") for r in self.servers}
        self.missing_servers = sorted(replied - recorded)
        self.held_servers = sorted(client_record.get("held", ()))

    def _build_phases(self, phases: Iterable[Dict]) -> List[Dict]:
        built: List[Dict] = []
        cursor = self.started
        for phase in phases:
            duration = float(phase.get("duration", 0.0))
            witness = phase.get("witness_wait")
            quorum = phase.get("quorum_wait")
            built.append({
                "phase": phase.get("phase", ""),
                "start": cursor,
                "duration": duration,
                "witness_at": (cursor + witness
                               if witness is not None else None),
                "quorum_at": cursor + quorum if quorum is not None else None,
                "replies": dict(phase.get("replies", {})),
            })
            cursor += duration
        return built

    def _check_alignment(self) -> bool:
        lo = self.started - ALIGNMENT_SLACK
        hi = self.finished + ALIGNMENT_SLACK
        for record in self.servers:
            recv = record.get("recv")
            if recv is None or not lo <= float(recv) <= hi:
                return False
        return True

    @property
    def dominant_phase(self) -> str:
        """Name of the longest client phase (empty when phase-less)."""
        if not self.phases:
            return ""
        return max(self.phases, key=lambda p: p["duration"])["phase"]

    def events(self) -> List[Tuple[float, str, str]]:
        """The timeline as ``(offset_seconds, actor, text)``, sorted.

        Offsets are relative to the client's op start.  Server events
        appear only when the clocks aligned; the renderer lists
        unaligned server records separately with durations only.
        """
        out: List[Tuple[float, str, str]] = [
            (0.0, "client", f"op start ({self.kind})")]
        for phase in self.phases:
            out.append((phase["start"] - self.started, "client",
                        f"phase {phase['phase']} begins"))
            for server, wait in sorted(phase["replies"].items(),
                                       key=lambda kv: kv[1]):
                out.append((phase["start"] + wait - self.started, "client",
                            f"reply from {server} accepted"))
            if phase["witness_at"] is not None:
                out.append((phase["witness_at"] - self.started, "client",
                            "witness reached (f+1 replies)"))
            if phase["quorum_at"] is not None:
                out.append((phase["quorum_at"] - self.started, "client",
                            "quorum reached (n-f replies)"))
        if self.aligned:
            for record in self.servers:
                out.append((float(record["recv"]) - self.started,
                            str(record.get("node", "?")),
                            _describe_service(record)))
        out.append((self.latency, "client", f"op finish ({self.outcome})"))
        out.sort(key=lambda item: item[0])
        return out


def _describe_service(record: Dict) -> str:
    phase = record.get("phase", "?")
    queue = float(record.get("queue_wait", 0.0))
    service = float(record.get("service", 0.0))
    verdict = record.get("verdict", "served")
    text = (f"recv {phase} (queue {_ms(queue)}, "
            f"serve {_ms(service)}, {verdict})")
    if record.get("repeat"):
        text += " [repeat]"
    return text


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"


def _index_servers(server_records: Iterable[Dict]) -> Dict[int, List[Dict]]:
    by_op: Dict[int, List[Dict]] = {}
    for record in server_records or ():
        op_id = record.get("op_id")
        if isinstance(op_id, int):
            by_op.setdefault(op_id, []).append(record)
    return by_op


def stitch(client_records: Iterable[Dict],
           server_records: Iterable[Dict]) -> List[StitchedOp]:
    """Join every client record with its servers' flight records.

    Server records that match no client record are dropped (the client
    side drives: without a span there is no envelope to hang them on).
    """
    by_op = _index_servers(server_records)
    stitched = []
    for record in client_records or ():
        op_id = record.get("op_id")
        stitched.append(StitchedOp(record, by_op.get(op_id, ())))
    return stitched


def stitch_op(op_id: int, client_records: Iterable[Dict],
              server_records: Iterable[Dict]) -> Optional[StitchedOp]:
    """Stitch one operation; ``None`` when no client record matches."""
    for record in client_records or ():
        if record.get("op_id") == op_id:
            return StitchedOp(
                record, _index_servers(server_records).get(op_id, ()))
    return None


def slowest(stitched: Iterable[StitchedOp], top: int = 10) -> List[StitchedOp]:
    """The ``top`` highest-latency stitched ops, slowest first."""
    ranked = sorted(stitched, key=lambda op: op.latency, reverse=True)
    return ranked[:max(0, top)]


def format_timeline(op: StitchedOp) -> str:
    """Render one stitched op as an indented ASCII timeline."""
    head = (f"op {op.op_id} {op.kind} by {op.client or '?'}"
            f"{f' ({op.algorithm})' if op.algorithm else ''}"
            f" -- {op.outcome} in {_ms(op.latency)}")
    lines = [head]
    if (op.record.get("throttles") or op.record.get("resends")
            or op.record.get("hedges")):
        lines.append(f"  throttles={op.record.get('throttles', 0)} "
                     f"resends={op.record.get('resends', 0)} "
                     f"hedges={op.record.get('hedges', 0)}")
    width = 10
    for offset, actor, text in op.events():
        stamp = f"+{_ms(max(0.0, offset))}"
        lines.append(f"  {stamp:>{width}}  {actor:>8}  {text}")
    if not op.aligned and op.servers:
        lines.append("  (server clocks not aligned; durations only)")
        for record in op.servers:
            lines.append(f"    {str(record.get('node', '?')):>8}  "
                         f"{_describe_service(record)}")
    if op.missing_servers:
        lines.append("  no server-side records from: "
                     + ", ".join(op.missing_servers))
    if op.held_servers:
        lines.append("  held (never asked): " + ", ".join(op.held_servers))
    return "\n".join(lines)
