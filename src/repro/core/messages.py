"""Protocol messages for BSR, BCSR, the regular variants and the baselines.

Every message is declared by one row of :data:`SCHEMA`: its name, the
message it extends, the fields it adds and their defaults.  The module
builds a frozen slotted :class:`~repro.core.record.Record` class per row
and the wire codec (:mod:`repro.transport.codec2`) reads the same
classes, so adding a message is adding a row.

Every request carries an ``op_id`` unique per client so replies can be
matched to the operation that triggered them (clients run one operation at a
time, but stale replies from earlier operations may still arrive -- the
channels reorder).

Each message knows its approximate wire size so the network layer can do
byte accounting for the communication-cost experiments (E4): a fixed header
per message plus the payload (values, coded elements, histories).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.record import Record
from repro.core.tags import TAG_BYTES

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


#: What ``wire_size`` charges per field beyond the header, by field name.
#: Any other field (ids, telemetry, a broadcast's ``source``) is header.
_CHARGES = {
    "tag": lambda tag: TAG_BYTES,
    "payload": payload_size,
    "history": lambda history: sum(
        TAG_BYTES + payload_size(tv.value) for tv in items(history)),
    "tags": lambda tags: TAG_BYTES * len(items(tags)),
}


class BaseMessage(Record):
    """Common shape: every protocol message has an originating ``op_id``."""

    __slots__ = ("op_id",)
    #: ``(field, charge)`` for every field ``wire_size`` charges.
    _charged: tuple = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._charged = tuple((name, _CHARGES[name]) for name in cls._fields
                             if name in _CHARGES)

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes."""
        size = HEADER_BYTES
        for name, charge in self._charged:
            size += charge(getattr(self, name))
        return size


#: The message schema: name -> (the message it extends, the fields it
#: adds, their defaults, what it is).  Payloads are the full value for
#: BSR and a coded element for BCSR; ``source`` names a broadcast's writer.
SCHEMA: Dict[str, Tuple[str, str, Dict[str, Any], str]] = {
    # -- write path (Figs 1, 3, 4, 6) --------------------------------------
    "QueryTag": ("BaseMessage", "", {},
                 "QUERY-TAG: first phase of a write (Fig 1 line 2)."),
    "TagReply": ("BaseMessage", "tag", {},
                 "get-tag-resp: the server's highest stored tag (Fig 3 "
                 "line 3)."),
    "PutData": ("BaseMessage", "tag payload", {},
                "PUT-DATA: second phase of a write (Fig 1 line 7 / Fig 4 "
                "line 7)."),
    "PutAck": ("BaseMessage", "tag", {},
               "Server acknowledgement of a PUT-DATA (Fig 3 line 7)."),
    # -- read path (Figs 2, 3, 5, 6) ---------------------------------------
    "QueryData": ("BaseMessage", "", {},
                  "QUERY-DATA: the single round of a one-shot read (Fig 2 "
                  "line 3)."),
    "DataReply": ("BaseMessage", "tag payload", {},
                  "get-data-resp: the server's highest (tag, value) pair."),
    # An extension (not in the paper): a QUERY-DATA naming the tag the
    # reader holds, answered by DataHeld when that is the newest pair; as
    # a QueryData subclass every server and behaviour answers it too.
    "QueryDataHeld": ("QueryData", "tag", {},
                      "QUERY-DATA naming the tag of the pair the reader "
                      "already holds."),
    "DataHeld": ("BaseMessage", "", {},
                 "Answer to QueryDataHeld: the server's newest pair is the "
                 "one the query named."),
    # -- regular-register extensions (Section III-C) -----------------------
    "QueryHistory": ("BaseMessage", "", {},
                     "Variant (a): one-shot read requesting the full write "
                     "history."),
    # An extension, as QueryDataHeld: answered with the pairs of L above
    # ``tag`` only.
    "QueryHistoryAbove": ("QueryHistory", "tag", {},
                          "Variant (a) query naming the tag of the pair "
                          "the reader holds."),
    "HistoryReply": ("BaseMessage", "history", {},
                     "Variant (a): the server's write history L."),
    "QueryTagHistory": ("BaseMessage", "", {},
                        "Variant (b) round 1: ask for every tag the server "
                        "has seen."),
    "TagHistoryReply": ("BaseMessage", "tags", {},
                        "Variant (b) round 1 response: every tag in L."),
    "QueryValue": ("BaseMessage", "tag", {},
                   "Variant (b) round 2: ask for the value written under "
                   "tag."),
    "ValueReply": ("BaseMessage", "tag payload", {},
                   "Variant (b) round 2 response; payload is None when the "
                   "server does not hold the tag."),
    # -- reliable-broadcast baselines --------------------------------------
    "RBSend": ("BaseMessage", "tag payload source", {},
               "Bracha SEND from the broadcast source."),
    "RBEcho": ("BaseMessage", "tag payload source", {},
               "Bracha ECHO (server-to-server)."),
    "RBReady": ("BaseMessage", "tag payload source", {},
                "Bracha READY (server-to-server)."),
    "Rb2Send": ("BaseMessage", "tag payload source", {},
                "Imbs-Raynal 2-step broadcast INIT from the writer."),
    "Rb2Witness": ("BaseMessage", "tag payload source", {},
                   "Imbs-Raynal 2-step broadcast WITNESS "
                   "(server-to-server)."),
    "MprWrite": ("BaseMessage", "tag payload source", {},
                 "MPR register write from the writer to every server."),
    "MprEcho": ("BaseMessage", "tag payload source", {},
                "MPR write echo (server-to-server vouching for a write)."),
    "PushData": ("BaseMessage", "tag payload", {},
                 "Unsolicited server-to-reader update (the baseline's "
                 "relay), so baseline reads terminate."),
    # -- runtime-level messages (not part of any paper protocol) -----------
    # Answered by the TCP node itself, before the protocol state machine
    # and exempt from rate limiting, whatever algorithm it hosts.
    "HealthPing": ("BaseMessage", "", {},
                   "Node-level liveness probe."),
    # snapshot_age is -1 when the node does not persist or has not
    # checkpointed; the keys_* and rehydrations counters are -1 on a node
    # hosting one register and no table.
    "HealthAck": ("BaseMessage",
                  "node_id history_len frames throttled snapshot_age "
                  "keys_resident keys_archived rehydrations",
                  {"node_id": "", "history_len": 0, "frames": 0,
                   "throttled": 0, "snapshot_age": -1.0,
                   "keys_resident": -1, "keys_archived": -1,
                   "rehydrations": -1},
                  "Reply to HealthPing with a little node telemetry."),
    "StatsPing": ("BaseMessage", "", {},
                  "Scrape request for a node's metric registry."),
    # metrics is MetricRegistry.snapshot()'s plain-JSON document.
    "StatsAck": ("BaseMessage", "node_id metrics",
                 {"node_id": "", "metrics": None},
                 "Reply to StatsPing: a metric-registry snapshot."),
    # target_op -1 asks for every retained record, limit 0 for no cap.
    "TraceDump": ("BaseMessage", "target_op limit",
                  {"target_op": -1, "limit": 0},
                  "Scrape request for a node's flight-recorder records."),
    # records are FlightRecorder dicts; total counts every record ever
    # captured, so a scraper can tell how much the ring has evicted.
    "TraceAck": ("BaseMessage", "node_id records total",
                 {"node_id": "", "records": None, "total": 0},
                 "Reply to TraceDump: retained server-side span records."),
    # retry_after is when the client's token bucket holds a token again;
    # dropped names the shed message's type, the one frame to re-send.
    "Throttled": ("BaseMessage", "retry_after dropped",
                  {"retry_after": 0.0, "dropped": ""},
                  "Flow-control error: the node shed this frame."),
}

_store = object.__setattr__


# Constructors for the shapes every operation builds and decodes, which
# bind their arguments as fast as a dataclass's; any other shape takes
# the generic Record.__init__.
def _init_op(self, op_id):
    _store(self, "op_id", op_id)


def _init_tag(self, op_id, tag):
    _store(self, "op_id", op_id)
    _store(self, "tag", tag)


def _init_payload(self, op_id, tag, payload):
    _store(self, "op_id", op_id)
    _store(self, "tag", tag)
    _store(self, "payload", payload)


#: A class's fields -> the constructor it takes instead of Record's.
_INITS = {("op_id",): _init_op, ("op_id", "tag"): _init_tag,
          ("op_id", "tag", "payload"): _init_payload}

#: name -> message class, :class:`BaseMessage` and one per schema row.
MESSAGE_TYPES: Dict[str, type] = {"BaseMessage": BaseMessage}
for _name, (_base, _fields, _defaults, _doc) in SCHEMA.items():
    _cls = MESSAGE_TYPES[_name] = type(_name, (MESSAGE_TYPES[_base],), {
        "__slots__": tuple(_fields.split()), "_defaults": _defaults,
        "__doc__": _doc, "__module__": __name__})
    if _cls._fields in _INITS:
        _cls.__init__ = _INITS[_cls._fields]
globals().update(MESSAGE_TYPES)
