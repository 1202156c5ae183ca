"""BSR: the replication-based Byzantine-tolerant safe register (Section III).

Faithful implementation of Figures 1-3:

* **Server** (Fig 3): keeps a list ``L`` of ``(tag, value)`` pairs; answers
  ``QUERY-TAG`` with its maximum tag, stores ``PUT-DATA`` pairs whose tag
  exceeds its current maximum, and answers ``QUERY-DATA`` with the pair
  holding the highest tag.
* **Write** (Fig 1): ``get-tag`` collects ``n - f`` tag replies and selects
  the ``(f+1)``-th highest tag ``t``; ``put-data`` sends
  ``(t.num + 1, writer)`` with the value and waits for ``n - f`` acks.
* **Read** (Fig 2): one round.  The reader collects ``n - f`` data replies,
  keeps the pairs with at least ``f + 1`` witnesses, takes the highest, and
  falls back to the last value it ever returned (initially ``v0``) when no
  pair qualifies.

Resilience: ``n >= 4f + 1`` (validated at construction; Theorems 2 and 5).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    TagReply,
    stored_size,
)
from repro.core.operation import ClientOperation, ReplyCollector
from repro.core.quorum import kth_highest, validate_bsr_config, witness_threshold
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.types import Envelope, ProcessId


class BSRServer:
    """State machine for one BSR server (Fig 3).

    ``max_history`` bounds the length of ``L`` (the paper keeps it
    unbounded): after every store the oldest entries beyond the bound are
    pruned, newest kept.  Plain BSR only ever serves the newest pair, so
    pruning is invisible to it; the *history* read variant trades
    regularity coverage for the reclaimed space -- see the E12 ablation.
    """

    def __init__(self, server_id: ProcessId, initial_value: Any = b"",
                 max_history: Optional[int] = None) -> None:
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be at least 1")
        self.server_id = server_id
        self.max_history = max_history
        #: The write history ``L``; ``L[0]`` is the initial pair.  Kept in
        #: ascending tag order (puts only append strictly higher tags).
        self.history: List[TaggedValue] = [TaggedValue(TAG_ZERO, initial_value)]

    # -- state inspection ---------------------------------------------------
    @property
    def latest(self) -> TaggedValue:
        """The pair with the highest tag in ``L``."""
        return self.history[-1]

    @property
    def max_tag(self) -> Tag:
        """The highest tag in ``L``."""
        return self.history[-1].tag

    def storage_bytes(self) -> int:
        """Approximate bytes of user data stored (for experiment E4).

        Charges only the *current* value, matching the replication baseline
        of Section I-C where each server stores one copy of the register.
        """
        return stored_size(self.latest.value)

    # -- message handling -----------------------------------------------------
    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Dispatch one incoming message; returns outgoing envelopes."""
        # QueryData first: reads are one round of them, and the paper's
        # point is that reads dominate (writes are two rounds, rarer).
        if isinstance(message, QueryData):
            return self._get_data_resp(sender, message)
        if isinstance(message, QueryTag):
            return self._get_tag_resp(sender, message)
        if isinstance(message, PutData):
            return self._put_data_resp(sender, message)
        # Unknown messages are ignored (a correct server never crashes on
        # garbage a Byzantine client might send).
        return []

    def _get_tag_resp(self, sender: ProcessId, message: QueryTag) -> List[Envelope]:
        return [(sender, TagReply(op_id=message.op_id, tag=self.max_tag))]

    def _put_data_resp(self, sender: ProcessId, message: PutData) -> List[Envelope]:
        if message.tag > self.max_tag:
            self.history.append(TaggedValue(message.tag, message.payload))
            self._prune()
        # The ack is unconditional (Fig 3 line 7): late or duplicate puts
        # still get acknowledged, otherwise slow writers would block forever.
        return [(sender, PutAck(op_id=message.op_id, tag=message.tag))]

    def _prune(self) -> None:
        if self.max_history is not None and len(self.history) > self.max_history:
            del self.history[: len(self.history) - self.max_history]

    def history_bytes(self) -> int:
        """Approximate bytes of the whole list ``L`` (for the E12 ablation)."""
        return sum(stored_size(pair.value) for pair in self.history)

    def _get_data_resp(self, sender: ProcessId, message: QueryData) -> List[Envelope]:
        latest = self.latest
        return [(sender, DataReply(op_id=message.op_id, tag=latest.tag,
                                   payload=latest.value))]


class BSRWriteOperation(ClientOperation):
    """A two-phase BSR write (Fig 1)."""

    kind = "write"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 value: Any, enforce_bounds: bool = True) -> None:
        super().__init__(client_id, servers, f)
        if enforce_bounds:
            validate_bsr_config(self.n, f)
        self.value = value
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
        # Fig 1 line 4: the (f+1)-th highest tag survives up to f forged
        # high tags from Byzantine servers.
        tags = [reply.tag for reply in self._tag_replies.values()]
        base = kth_highest(tags, self.f + 1)
        self._tag = base.next_for(self.client_id)
        self._phase = "put-data"
        self.rounds = 2
        return self.broadcast(PutData(op_id=self.op_id, tag=self._tag, payload=self.value))

    def _on_ack(self, sender: ProcessId, message: PutAck) -> List[Envelope]:
        if message.tag != self._tag:
            return []  # ack for something else (or forged)
        self._acks.add(sender, message)
        if len(self._acks) >= self.quorum:
            self._phase = "done"
            self._complete(self._tag)
        return []


class BSRReaderState:
    """Persistent per-reader state: the last ``(tag, value)`` returned.

    Fig 2 line 1 initialises ``(t_local, v_local)`` once per reader, not per
    read; successive reads by the same reader share this object.
    """

    def __init__(self, initial_value: Any = b"") -> None:
        self.local = TaggedValue(TAG_ZERO, initial_value)

    def update(self, candidate: TaggedValue) -> None:
        """Adopt ``candidate`` if it carries a strictly higher tag."""
        if candidate.tag > self.local.tag:
            self.local = candidate

    def held_bytes(self) -> int:
        """What the owner of many states weighs against its byte bound."""
        return stored_size(self.local.value)


class BSRReadOperation(ClientOperation):
    """A one-shot BSR read (Fig 2).

    ``repair=True`` enables *read repair* (an extension, not in the paper):
    after deciding, the reader pushes the winning witnessed pair back to
    every server as a regular PUT-DATA.  The read still completes in one
    round -- the repair messages are fire-and-forget -- but lagging servers
    catch up without waiting for the writer's stragglers, which shrinks the
    window in which Theorem-3-style scatter can starve later reads.
    Safety is unaffected: the repaired pair has ``f + 1`` witnesses, so it
    is genuine written data under its original tag.
    """

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None,
                 enforce_bounds: bool = True, repair: bool = False) -> None:
        super().__init__(client_id, servers, f)
        if enforce_bounds:
            validate_bsr_config(self.n, f)
        self.reader_state = reader_state if reader_state is not None else BSRReaderState()
        self.repair = repair
        self._replies = ReplyCollector(self.servers)

    def start(self) -> List[Envelope]:
        self.rounds = 1
        return self.broadcast(QueryData(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message) or not isinstance(message, DataReply):
            return []
        if not isinstance(message.tag, Tag):
            return []  # malformed Byzantine reply
        self._replies.add(sender, message)
        if len(self._replies) >= self.quorum:
            return self._finish()
        return []

    def _finish(self) -> List[Envelope]:
        # Fig 2 line 5: pairs witnessed by at least f + 1 distinct servers.
        witnessed = self._witnessed_pairs()
        best = max(witnessed, key=lambda tv: tv.tag) if witnessed else None
        if best is not None:
            self.reader_state.update(best)
        self._tag = self.reader_state.local.tag
        self._complete(self.reader_state.local.value)
        if self.repair and best is not None and best.tag > TAG_ZERO:
            # Fire-and-forget anti-entropy: the read is already complete.
            return self.broadcast(PutData(op_id=self.op_id, tag=best.tag,
                                          payload=best.value))
        return []

    def _witnessed_pairs(self) -> List[TaggedValue]:
        replies = list(self._replies.values())
        # Fast path: in a quiet system every server returns the same
        # pair, and quorum >= f + 1 witnesses it outright -- no need to
        # hash every (tag, value) into a Counter.
        first = replies[0]
        if (len(replies) >= witness_threshold(self.f)
                and all(reply.tag == first.tag
                        and reply.payload == first.payload
                        for reply in replies[1:])):
            return [TaggedValue(first.tag, first.payload)]
        counts: Counter = Counter()
        for reply in replies:
            try:
                counts[TaggedValue(reply.tag, reply.payload)] += 1
            except TypeError:
                continue  # unhashable junk from a Byzantine server
        threshold = witness_threshold(self.f)
        return [pair for pair, count in counts.items() if count >= threshold]
