"""Client-operation state machines.

A :class:`ClientOperation` is the transport-agnostic core of a register
operation: ``start()`` yields the initial batch of request messages, and
``on_reply(sender, message)`` consumes one reply and yields any follow-up
messages (e.g. the ``put-data`` phase of a write).  The surrounding runtime
-- simulated or asyncio -- moves the messages.

Operations track their round count so the round-complexity experiment (E7)
can read it off directly instead of inferring it from timings.

Every register here writes the same way (:class:`WriteOperation`), the
one-shot reads (BSR, history, BCSR) walk the same way (:class:`QuorumRead`:
one query, ``n - f`` replies, select), the two atomic reads (ABD, MPR) end
with the same write-back round (:class:`WriteBackRead`), and every read
that believes a pair on ``f + 1`` witnesses counts them with
:func:`witnessed`.
"""

from __future__ import annotations

import abc
import itertools
import os
from collections import Counter
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.core.messages import (
    DataHeld,
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryDataHeld,
    QueryTag,
    TagReply,
)
from repro.core.quorum import kth_highest, witness_threshold
from repro.core.tags import Tag, TaggedValue
from repro.errors import ProtocolError
from repro.types import Envelope, ProcessId


def _op_id_base() -> int:
    """Where this process starts numbering its operations.

    An operation is known by its invoker plus a local counter -- the
    channels are authenticated point-to-point links, so whoever receives
    an op_id knows whose it is, and wherever ids of different processes
    meet (flight records, stitching) an operation is ``(party,
    op_id)``.  The counter starts at a random point below ``2**20``, so
    an op_id is at most a three-byte varint on the wire for the first
    million operations, and a restarted process rarely starts where it
    began before.  The start is drawn from
    ``os.urandom``, never from the global ``random`` state that seeded
    experiments share, and is ``1 mod 64``, so ``op_id % sample`` counts
    exactly as from 1 for every sampling modulus up to 64.
    """
    return (int.from_bytes(os.urandom(2), "big") >> 2) << 6 | 1


_op_counter = itertools.count(_op_id_base())


def _redraw_op_counter() -> None:
    """Give a forked child a start of its own.

    A child forked after import would otherwise count on from its
    parent's counter -- every node forked from one warm interpreter from
    the same start, and a restarted node from where the last one was.
    """
    global _op_counter
    _op_counter = itertools.count(_op_id_base())


os.register_at_fork(after_in_child=_redraw_op_counter)


def next_op_id() -> int:
    """This process's next operation identifier."""
    return next(_op_counter)


class ClientOperation(abc.ABC):
    """Base class for read/write operation state machines."""

    kind: str = "op"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int) -> None:
        if f < 0:
            raise ValueError("f must be non-negative")
        if len(servers) <= f:
            raise ValueError("need more than f servers")
        self.client_id = client_id
        self.servers = tuple(servers)
        self.f = f
        self.n = len(servers)
        self.op_id = next_op_id()
        self.rounds = 0
        self._done = False
        self._result: Any = None

    # -- lifecycle --------------------------------------------------------
    @abc.abstractmethod
    def start(self) -> List[Envelope]:
        """Begin the operation; returns the first batch of requests."""

    @abc.abstractmethod
    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Consume one reply; returns any follow-up requests."""

    @property
    def done(self) -> bool:
        """Whether the operation has completed."""
        return self._done

    @property
    def result(self) -> Any:
        """The operation's return value (reads: the value; writes: the tag)."""
        if not self._done:
            raise ProtocolError(f"operation {self.op_id} not complete yet")
        return self._result

    @property
    def result_tag(self):
        """Tag associated with the completed operation, if any."""
        return getattr(self, "_tag", None)

    def _complete(self, result: Any) -> None:
        self._done = True
        self._result = result

    # -- helpers ------------------------------------------------------------
    def broadcast(self, message: Any) -> List[Envelope]:
        """Address ``message`` to every server."""
        return [(server, message) for server in self.servers]

    def accepts(self, message: Any) -> bool:
        """Whether ``message`` belongs to this operation."""
        return getattr(message, "op_id", None) == self.op_id

    @property
    def quorum(self) -> int:
        """Replies to wait for: ``n - f``."""
        return self.n - self.f


class ReplyCollector:
    """Collects at most one reply per server, ignoring duplicates.

    Byzantine servers may reply several times; only the first reply counts,
    which matches the "waits for responses from n - f servers" phrasing of
    the pseudocode (a set of servers, not a multiset of messages).
    """

    def __init__(self, expected_servers: Sequence[ProcessId]) -> None:
        self._expected = set(expected_servers)
        self._replies: Dict[ProcessId, Any] = {}

    def add(self, sender: ProcessId, message: Any) -> bool:
        """Record the reply; returns True if it was fresh and expected."""
        if sender not in self._expected or sender in self._replies:
            return False
        self._replies[sender] = message
        return True

    def __len__(self) -> int:
        return len(self._replies)

    def __contains__(self, sender: ProcessId) -> bool:
        return sender in self._replies

    @property
    def replies(self) -> Dict[ProcessId, Any]:
        """Mapping of server id to its (first) reply."""
        return dict(self._replies)

    def values(self) -> List[Any]:
        """All collected reply messages."""
        return list(self._replies.values())


def witnessed(pairs: Iterable[Tuple[ProcessId, Any, Any]], f: int
              ) -> List[TaggedValue]:
    """The pairs more than ``f`` servers reported, in first-seen order.

    ``pairs`` yields ``(server, tag, value)``, one entry per pair a
    server reported.  A server witnesses a pair once however often it
    repeats it, and an entry whose tag is not a :class:`Tag` or whose
    value is unhashable is Byzantine junk, skipped.  With ``f`` the fault
    bound the threshold is Lemma 5's ``f + 1``.  Results keep the order
    their pairs were first seen in, so ``max`` breaks ties by it.
    """
    pairs = pairs if isinstance(pairs, list) else list(pairs)
    if not pairs:
        return []
    threshold = witness_threshold(f)
    _, first_tag, first_value = pairs[0]
    # Fast path: in a quiet system every server reports the same pair,
    # so there is no need to hash every (tag, value) into a Counter.
    if (isinstance(first_tag, Tag)
            and all(tag == first_tag and value == first_value
                    for _, tag, value in pairs[1:])):
        try:
            hash(first_value)
        except TypeError:
            return []  # an unhashable value: junk
        if len({server for server, _, _ in pairs}) < threshold:
            return []
        return [TaggedValue(first_tag, first_value)]
    counts: Counter = Counter()
    seen = set()
    for server, tag, value in pairs:
        if not isinstance(tag, Tag):
            continue  # junk
        pair = TaggedValue(tag, value)
        try:
            if (server, pair) in seen:
                continue  # a server witnesses a pair once
        except TypeError:
            continue  # an unhashable value: junk too
        seen.add((server, pair))
        counts[pair] += 1
    return [pair for pair, count in counts.items() if count >= threshold]


def held_query(op: ClientOperation, tag: Any, held: Mapping[ProcessId, Any]
               ) -> Tuple[List[Envelope], Dict[ProcessId, DataReply]]:
    """A conditional read's query round, and what each held answer stands for.

    ``held`` maps a server to the payload the reader already holds of
    that server's newest pair, tagged ``tag``: plain BSR's value for every
    server, BCSR's verified column per position.  Those servers are asked
    ``QueryDataHeld(tag)`` and the rest plain ``QueryData``; the map
    returned is the :class:`DataReply` a :class:`DataHeld` from each named
    server counts as.  A :class:`QuorumRead` calls this from its
    ``query()``, once, at ``start()``.
    """
    if not held:
        return op.broadcast(QueryData(op_id=op.op_id)), {}
    named = QueryDataHeld(op_id=op.op_id, tag=tag)
    plain = None
    envelopes = []
    for server in op.servers:
        if server in held:
            envelopes.append((server, named))
            continue
        if plain is None:
            plain = QueryData(op_id=op.op_id)
        envelopes.append((server, plain))
    stand_ins: Dict[ProcessId, DataReply] = {}
    by_payload: Dict[int, DataReply] = {}  # BSR: one reply for every server
    for server, payload in held.items():
        reply = by_payload.get(id(payload))
        if reply is None:
            reply = by_payload[id(payload)] = DataReply(
                op_id=op.op_id, tag=tag, payload=payload)
        stand_ins[server] = reply
    return envelopes, stand_ins


class QuorumRead(ClientOperation):
    """The one-shot read walk: one query, ``n - f`` replies, select.

    Figs. 2 and 5 and Section III-C(a) all read this way; a reader
    supplies its :meth:`query`, which replies it :meth:`admits`, and its
    :meth:`select`, called once on the first ``n - f`` servers' replies.
    A *held* answer (:meth:`is_held`) carries nothing: it counts as the
    reply ``_held`` maps its server to, which the query fixed at
    :meth:`start` -- what the query named, whatever the reader's state
    holds by the time the answer arrives -- and as one of the reader
    state's ``held_replies``.
    """

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId],
                 f: int) -> None:
        super().__init__(client_id, servers, f)
        self._replies = ReplyCollector(self.servers)
        #: Server -> the reply its held answer stands for (empty when the
        #: query named nothing).
        self._held: Dict[ProcessId, Any] = {}

    @abc.abstractmethod
    def query(self) -> Tuple[List[Envelope], Dict[ProcessId, Any]]:
        """The query's envelopes, and what each held answer stands for."""

    def admits(self, message: Any) -> bool:
        """Whether ``message`` is a full reply this read folds in."""
        return isinstance(message, DataReply)

    def is_held(self, message: Any) -> bool:
        """Whether ``message`` is a held answer."""
        return type(message) is DataHeld

    @abc.abstractmethod
    def select(self, replies: Dict[ProcessId, Any]) -> List[Envelope]:
        """Act on ``n - f`` servers' replies: complete the read, or start
        its next round; returns the envelopes to send."""

    def start(self) -> List[Envelope]:
        self.rounds = 1
        envelopes, self._held = self.query()
        return envelopes

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message):
            return []
        if self._held and self.is_held(message):
            stand_in = self._held.get(sender)
            if stand_in is None or not self._replies.add(sender, stand_in):
                return []
            self.reader_state.held_replies += 1
        elif not (self.admits(message) and self._replies.add(sender, message)):
            return []
        if len(self._replies) < self.quorum:
            return []
        return self.select(self._replies.replies)


def put_data(op: "WriteOperation", tag: Tag) -> List[Envelope]:
    """The plain put step: ``PUT-DATA(tag, value)`` to every server."""
    return op.broadcast(PutData(op_id=op.op_id, tag=tag, payload=op.value))


def put_start(start: type, op: "WriteOperation", tag: Tag) -> List[Envelope]:
    """A broadcast register's put step: the ``start`` message of its
    dissemination, stamped with the writer as its source, to every server
    (bind ``start`` with :func:`functools.partial`)."""
    return op.broadcast(start(op_id=op.op_id, tag=tag, payload=op.value,
                              source=op.client_id))


class WriteOperation(ClientOperation):
    """The one write walk (Figs. 1 and 4), shared by every protocol.

    ``get-tag`` collects ``n - f`` tags and takes the ``rank``-th highest
    ``t``; the put step sends the value under ``(t.num + 1, writer)``; the
    write completes on ``n - f`` acks for that tag.  Two parts differ
    between protocols and are passed in:

    * ``rank`` -- ``f + 1`` (the default), which survives ``f`` forged
      high tags (Fig 1 line 4); crash-only ABD trusts the maximum, ``1``;
    * ``put(op, tag)`` -- the put step's envelopes: :func:`put_data`
      (the default), one coded element per server (BCSR), or a broadcast
      start (:func:`put_start`).
    """

    kind = "write"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId],
                 f: int, value: Any,
                 put: Callable[["WriteOperation", Tag], List[Envelope]] = put_data,
                 rank: Optional[int] = None) -> None:
        super().__init__(client_id, servers, f)
        self.value = value
        self.put = put
        self.rank = f + 1 if rank is None else rank
        self._phase = "idle"
        self._tag_replies = ReplyCollector(self.servers)
        self._acks = ReplyCollector(self.servers)
        self._tag: Optional[Tag] = None

    def start(self) -> List[Envelope]:
        self._phase = "get-tag"
        self.rounds = 1
        return self.broadcast(QueryTag(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if not self.accepts(message) or self.done:
            return []
        if self._phase == "get-tag" and isinstance(message, TagReply):
            return self._on_tag_reply(sender, message)
        if self._phase == "put-data" and isinstance(message, PutAck):
            return self._on_ack(sender, message)
        return []

    def _on_tag_reply(self, sender: ProcessId, message: TagReply) -> List[Envelope]:
        if not isinstance(message.tag, Tag):
            return []  # malformed Byzantine reply
        self._tag_replies.add(sender, message)
        if len(self._tag_replies) < self.quorum:
            return []
        tags = [reply.tag for reply in self._tag_replies.values()]
        self._tag = kth_highest(tags, self.rank).next_for(self.client_id)
        self._phase = "put-data"
        self.rounds = 2
        return self.put(self, self._tag)

    def _on_ack(self, sender: ProcessId, message: PutAck) -> List[Envelope]:
        if message.tag != self._tag:
            return []  # ack for something else (or forged)
        self._acks.add(sender, message)
        if len(self._acks) >= self.quorum:
            self._phase = "done"
            self._complete(self._tag)
        return []


class WriteBackRead(ClientOperation):
    """A read that writes its chosen pair back before returning.

    The second round that upgrades a regular-grade read to an atomic one
    (ABD, MPR): ``PUT-DATA`` of the chosen pair to every server, and the
    read returns its value on ``n - f`` acks for its tag.  Subclasses
    (or a mixin after this class) fold first-round replies in with
    ``_select(sender, message)``, which returns the pair once one is
    chosen (``None`` until then); ``_replies`` is there for a ``_select``
    that counts ``n - f`` of them (ABD).
    """

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId],
                 f: int) -> None:
        super().__init__(client_id, servers, f)
        self._chosen: Optional[TaggedValue] = None
        self._replies = ReplyCollector(self.servers)
        self._acks = ReplyCollector(self.servers)

    def start(self) -> List[Envelope]:
        self.rounds = 1
        return self.broadcast(QueryData(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message):
            return []
        if self._chosen is None:
            chosen = self._select(sender, message)
            if chosen is None:
                return []
            self._chosen = chosen
            self._tag = chosen.tag
            self.rounds = 2
            return self.broadcast(PutData(op_id=self.op_id, tag=chosen.tag,
                                          payload=chosen.value))
        if isinstance(message, PutAck) and message.tag == self._chosen.tag:
            self._acks.add(sender, message)
            if len(self._acks) >= self.quorum:
                self._complete(self._chosen.value)
        return []
