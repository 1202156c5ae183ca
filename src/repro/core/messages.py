"""Protocol messages for BSR, BCSR, the regular variants and the baselines.

Every request carries an ``op_id`` unique per client so replies can be
matched to the operation that triggered them (clients run one operation at a
time, but stale replies from earlier operations may still arrive -- the
channels reorder).

Each message knows its approximate wire size so the network layer can do
byte accounting for the communication-cost experiments (E4): a fixed header
per message plus the payload (values, coded elements, histories).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.core.tags import TAG_BYTES, Tag, TaggedValue

#: Fixed per-message overhead charged by ``wire_size`` (type, ids, framing).
HEADER_BYTES = 24


def payload_size(value: Any) -> int:
    """Byte size of a value or coded element on the wire.

    Payload types that know their actual encoded length (coded elements,
    tagged values, tags) report it through their own ``wire_size()``; the
    ``repr`` fallback only remains for exotic payloads no protocol message
    carries, so the E4/E13 communication-cost numbers reflect real bytes.
    """
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    if isinstance(value, str):
        return len(value.encode())
    return len(repr(value))


def stored_size(value: Any) -> int:
    """Bytes of user data a server stores for ``value`` (experiment E4).

    Unlike :func:`payload_size` this excludes wire framing: a coded element
    counts only its data bytes, matching the ``1/k`` storage accounting of
    Section I-C.
    """
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    data = getattr(value, "data", None)
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    return len(repr(value))


def items(field: Any) -> Tuple[Any, ...]:
    """A reply's list field, or nothing when a Byzantine server sent
    something else there (the items are vetted one by one by the reader)."""
    return field if isinstance(field, (tuple, list)) else ()


@dataclass(frozen=True)
class BaseMessage:
    """Common shape: every protocol message has an originating ``op_id``."""

    op_id: int

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes."""
        return HEADER_BYTES


# --------------------------------------------------------------------------
# Write path (Figs 1, 3, 4, 6)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryTag(BaseMessage):
    """``QUERY-TAG``: first phase of a write (Fig 1 line 2)."""


@dataclass(frozen=True)
class TagReply(BaseMessage):
    """Server's ``get-tag-resp``: its highest stored tag (Fig 3 line 3)."""

    tag: Tag

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES


@dataclass(frozen=True)
class PutData(BaseMessage):
    """``PUT-DATA``: second phase of a write (Fig 1 line 7 / Fig 4 line 7).

    ``payload`` is the full value for BSR and a :class:`CodedElement` for
    BCSR.
    """

    tag: Tag
    payload: Any

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class PutAck(BaseMessage):
    """Server acknowledgement of a ``PUT-DATA`` (Fig 3 line 7)."""

    tag: Tag

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES


# --------------------------------------------------------------------------
# Read path (Figs 2, 3, 5, 6)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryData(BaseMessage):
    """``QUERY-DATA``: the single round of a one-shot read (Fig 2 line 3)."""


@dataclass(frozen=True)
class DataReply(BaseMessage):
    """Server's ``get-data-resp``: its highest ``(tag, value)`` pair.

    For BCSR the ``payload`` is the server's coded element.
    """

    tag: Tag
    payload: Any

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class QueryDataHeld(QueryData):
    """``QUERY-DATA`` naming the tag of the pair the reader already holds.

    An extension (not in the paper): a server whose newest tag is ``tag``
    may answer with :class:`DataHeld` instead of repeating the value (or,
    for BCSR, its coded element).
    It subclasses :class:`QueryData`, so every server and behaviour that
    answers a ``QUERY-DATA`` answers this one too.
    """

    tag: Tag

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES


@dataclass(frozen=True)
class DataHeld(BaseMessage):
    """Answer to :class:`QueryDataHeld`: the server's newest pair is the
    one the query named, so the reply carries neither tag nor value."""


# --------------------------------------------------------------------------
# Regular-register extensions (Section III-C)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryHistory(BaseMessage):
    """Variant (a): one-shot read requesting the full write history."""


@dataclass(frozen=True)
class QueryHistoryAbove(QueryHistory):
    """Variant (a) query naming the tag of the pair the reader holds.

    An extension (not in the paper): a server answers with only the
    pairs of ``L`` above ``tag``.  It subclasses :class:`QueryHistory`,
    so every server and behaviour that answers one answers this one too.
    """

    tag: Tag

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES


@dataclass(frozen=True)
class HistoryReply(BaseMessage):
    """Variant (a): the server's entire write history ``L``."""

    history: Tuple[TaggedValue, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(
            TAG_BYTES + payload_size(tv.value) for tv in items(self.history)
        )


@dataclass(frozen=True)
class QueryTagHistory(BaseMessage):
    """Variant (b) round 1: ask for all tags the server has seen."""


@dataclass(frozen=True)
class TagHistoryReply(BaseMessage):
    """Variant (b) round 1 response: every tag in ``L``."""

    tags: Tuple[Tag, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES * len(items(self.tags))


@dataclass(frozen=True)
class QueryValue(BaseMessage):
    """Variant (b) round 2: ask for the value written under ``tag``."""

    tag: Tag

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES


@dataclass(frozen=True)
class ValueReply(BaseMessage):
    """Variant (b) round 2 response: the requested ``(tag, value)``.

    ``payload`` is ``None`` when the server does not hold the tag.
    """

    tag: Tag
    payload: Any

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


# --------------------------------------------------------------------------
# Reliable-broadcast baseline (Bracha phases + relayed data)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RBSend(BaseMessage):
    """Bracha SEND from the broadcast source."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class RBEcho(BaseMessage):
    """Bracha ECHO (server-to-server)."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class RBReady(BaseMessage):
    """Bracha READY (server-to-server)."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class Rb2Send(BaseMessage):
    """Imbs-Raynal 2-step broadcast INIT from the source (writer)."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class Rb2Witness(BaseMessage):
    """Imbs-Raynal 2-step broadcast WITNESS (server-to-server)."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class MprWrite(BaseMessage):
    """MPR register write from the writer to every server."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class MprEcho(BaseMessage):
    """MPR write echo (server-to-server vouching for a write)."""

    tag: Tag
    payload: Any
    source: str

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


@dataclass(frozen=True)
class PushData(BaseMessage):
    """Unsolicited server-to-reader update (the baseline's *relay*).

    Sent to readers with a pending query when a newer value arrives, so that
    baseline reads terminate even when the initial reply set never
    accumulates ``f + 1`` matching pairs.
    """

    tag: Tag
    payload: Any

    def wire_size(self) -> int:
        return HEADER_BYTES + TAG_BYTES + payload_size(self.payload)


# --------------------------------------------------------------------------
# Runtime-level messages (not part of any paper protocol)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HealthPing(BaseMessage):
    """Node-level liveness probe, answered by the TCP node itself.

    Handled before the protocol state machine, so a probe works against
    any hosted algorithm (the supervisor's readiness and status checks
    use it).
    """


@dataclass(frozen=True)
class HealthAck(BaseMessage):
    """Reply to :class:`HealthPing` with a little node telemetry.

    Beyond identity and history length, the ack carries the counters a
    supervisor wants before deciding a node is merely *alive* versus
    *well*: how many frames it has served, how many it shed to rate
    limiting, and how stale its durable snapshot is (``-1`` when the
    node does not persist, or has not checkpointed yet).
    """

    node_id: str = ""
    history_len: int = 0
    frames: int = 0
    throttled: int = 0
    snapshot_age: float = -1.0
    #: RegisterTable occupancy (sharded nodes only; ``-1`` when the node
    #: hosts a single register and has no table).
    keys_resident: int = -1
    keys_archived: int = -1
    rehydrations: int = -1


@dataclass(frozen=True)
class StatsPing(BaseMessage):
    """Scrape request: ask a node for its full metric registry.

    Like :class:`HealthPing` it is answered by the TCP node itself
    (before the protocol state machine, exempt from rate limiting), so
    ``repro cluster status --metrics`` and ``repro metrics dump`` can
    scrape any hosted algorithm over the normal authenticated framing.
    """


@dataclass(frozen=True)
class StatsAck(BaseMessage):
    """Reply to :class:`StatsPing`: a metric-registry snapshot.

    ``metrics`` is the plain-JSON document produced by
    :meth:`repro.obs.MetricRegistry.snapshot` (counters, gauges and
    histogram buckets), renderable to Prometheus text with
    :func:`repro.obs.render_prometheus`.
    """

    node_id: str = ""
    metrics: Any = None


@dataclass(frozen=True)
class TraceDump(BaseMessage):
    """Scrape request for a node's flight-recorder records.

    Like :class:`StatsPing` it is answered by the TCP node itself,
    before the protocol state machine and exempt from rate limiting.
    ``target_op`` of ``-1`` asks for every retained record; a specific
    op_id narrows the dump to that operation.  ``limit`` of ``0`` means
    no cap (the recorder itself is bounded).
    """

    target_op: int = -1
    limit: int = 0


@dataclass(frozen=True)
class TraceAck(BaseMessage):
    """Reply to :class:`TraceDump`: retained server-side span records.

    ``records`` is a list of plain dicts as produced by
    :class:`repro.obs.FlightRecorder` (op_id, phase, recv instant, queue
    wait, service time, verdict); ``total`` counts every record the
    recorder has ever captured, so a scraper can tell how much history
    the bounded buffer has already evicted.
    """

    node_id: str = ""
    records: Any = None
    total: int = 0


@dataclass(frozen=True)
class Throttled(BaseMessage):
    """Flow-control error: the node shed this frame (rate limit exceeded).

    ``retry_after`` is the server's estimate of when the client's token
    bucket will hold a token again, and ``dropped`` names the shed
    message's type; the client backs off for that long and re-sends only
    the matching in-flight frame (re-sending everything pending would
    spend each refilled token on the oldest frame and starve the shed
    one).
    """

    retry_after: float = 0.0
    dropped: str = ""
