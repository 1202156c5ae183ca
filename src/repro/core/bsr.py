"""BSR: the replication-based Byzantine-tolerant safe register (Section III).

Faithful implementation of Figures 1-3:

* **Server** (Fig 3): keeps a list ``L`` of ``(tag, value)`` pairs (the
  :class:`~repro.core.store.RegisterStore`); answers ``QUERY-TAG`` with
  its maximum tag, stores ``PUT-DATA`` pairs whose tag exceeds its current
  maximum, and answers ``QUERY-DATA`` with the pair holding the highest
  tag.
* **Write** (Fig 1): ``get-tag`` collects ``n - f`` tag replies and selects
  the ``(f+1)``-th highest tag ``t``; ``put-data`` sends
  ``(t.num + 1, writer)`` with the value and waits for ``n - f`` acks --
  the shared :class:`~repro.core.operation.WriteOperation`.
* **Read** (Fig 2): one round.  The reader collects ``n - f`` data replies,
  keeps the pairs with at least ``f + 1`` witnesses, takes the highest, and
  falls back to the last value it ever returned (initially ``v0``) when no
  pair qualifies.

*Conditional reads* (an extension, not in the paper): a reader that
already holds a pair above ``TAG_ZERO`` names its tag in the query, and a
server whose newest tag is that tag answers :class:`DataHeld` without the
value.  The read counts each such reply as a reply of the pair it named.
That is exact: the pair was returned with ``f + 1`` witnesses, so a
correct writer wrote it, and a tag names one value, so every correct
server holding the tag holds that value; a Byzantine ``DataHeld`` only
replays a genuine pair, which that server could have sent in full.

Resilience: ``n >= 4f + 1`` (Theorems 2 and 5), checked once per deployment
by :meth:`~repro.protocols.fleet.Fleet.build`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    stored_size,
)
from repro.core.operation import QuorumRead, held_query, witnessed
from repro.core.store import RegisterStore
from repro.core.tags import TAG_ZERO, Tag, TaggedValue, tag_in_range
from repro.types import Envelope, ProcessId


class BSRServer(RegisterStore):
    """State machine for one BSR server (Fig 3): the register store plus
    the direct ``PUT-DATA`` path.

    Plain BSR only ever serves the newest pair, so pruning ``L`` to
    ``max_history`` is invisible to it (see :class:`RegisterStore`); the
    *history* read variant keeps the deployment's bound and trades
    regularity coverage for the reclaimed space.
    """

    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Dispatch one incoming message; returns outgoing envelopes."""
        # QueryData first: reads are one round of them, and the paper's
        # point is that reads dominate (writes are two rounds, rarer).
        if isinstance(message, QueryData):
            return self._get_data_resp(sender, message)
        if isinstance(message, QueryTag):
            return self._get_tag_resp(sender, message)
        if isinstance(message, PutData):
            # The ack is unconditional for a tag in range (Fig 3 line 7):
            # late or duplicate puts still get acknowledged, otherwise slow
            # writers would block forever.
            if (self.adopt(TaggedValue(message.tag, message.payload))
                    or tag_in_range(message.tag)):
                return [(sender, PutAck(op_id=message.op_id, tag=message.tag))]
        # Unknown messages, and puts out of range, are ignored (a correct
        # server never crashes on garbage a Byzantine client might send).
        return []


class BSRReaderState:
    """Persistent per-reader state: the last ``(tag, value)`` returned.

    Fig 2 line 1 initialises ``(t_local, v_local)`` once per reader, not per
    read; successive reads by the same reader share this object.
    """

    def __init__(self, initial_value: Any = b"") -> None:
        self.local = TaggedValue(TAG_ZERO, initial_value)
        #: :class:`DataHeld` replies reads counted since :meth:`take_held`.
        self.held_replies = 0

    def update(self, candidate: TaggedValue) -> None:
        """Adopt ``candidate`` if it carries a strictly higher tag."""
        if candidate.tag > self.local.tag:
            self.local = candidate

    def held_bytes(self) -> int:
        """What the owner of many states weighs against its byte bound."""
        return stored_size(self.local.value)

    def take_held(self) -> int:
        """:class:`DataHeld` replies counted since the last call."""
        held, self.held_replies = self.held_replies, 0
        return held


class BSRReadOperation(QuorumRead):
    """A one-shot BSR read (Fig 2).

    ``repair=True`` enables *read repair* (an extension, not in the paper):
    after deciding, the reader pushes the winning witnessed pair back to
    every server as a regular PUT-DATA.  The read still completes in one
    round -- the repair messages are fire-and-forget -- but lagging servers
    catch up without waiting for the writer's stragglers, which shrinks the
    window in which Theorem-3-style scatter can starve later reads.
    Safety is unaffected: the repaired pair has ``f + 1`` witnesses, so it
    is genuine written data under its original tag.

    The query names the reader's ``local`` pair as it stood at
    :meth:`start` (see the module docstring), and a :class:`DataHeld`
    stands for that captured pair even if an overlapping read of the same
    reader has moved ``local`` on since: the server compared against the
    tag this query named, not whatever the reader holds now.
    """

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None,
                 repair: bool = False) -> None:
        super().__init__(client_id, servers, f)
        self.reader_state = reader_state if reader_state is not None else BSRReaderState()
        self.repair = repair

    def query(self) -> Tuple[List[Envelope], Dict[ProcessId, DataReply]]:
        local = self.reader_state.local
        # local never falls below TAG_ZERO, which names nothing.
        return held_query(self, local.tag, dict.fromkeys(self.servers, local.value)
                          if local.tag != TAG_ZERO else {})

    def admits(self, message: Any) -> bool:
        # A reply whose tag is not a Tag is malformed: it is not counted.
        return isinstance(message, DataReply) and isinstance(message.tag, Tag)

    def _reported(self, replies: Dict[ProcessId, Any]) -> List[Tuple[ProcessId, Any, Any]]:
        """``(server, tag, value)`` of each pair the replies report."""
        return [(server, reply.tag, reply.payload)
                for server, reply in replies.items()]

    def select(self, replies: Dict[ProcessId, Any]) -> List[Envelope]:
        # Fig 2 lines 5-8: the highest pair witnessed by at least f + 1
        # distinct servers, else the last value this reader returned.
        pairs = witnessed(self._reported(replies), self.f)
        best = max(pairs, key=lambda tv: tv.tag) if pairs else None
        if best is not None:
            self.reader_state.update(best)
        self._tag = self.reader_state.local.tag
        self._complete(self.reader_state.local.value)
        if self.repair and best is not None and best.tag > TAG_ZERO:
            # Fire-and-forget anti-entropy: the read is already complete.
            return self.broadcast(PutData(op_id=self.op_id, tag=best.tag,
                                          payload=best.value))
        return []
