"""Regular-register extensions of BSR (Section III-C).

BSR alone is *not* regular: Theorem 3 exhibits an execution (five concurrent
writes, each landing on a different server) whose read finds no pair with
``f + 1`` witnesses and falls back to ``v0``.  The paper sketches two fixes
and defers details to a technical report; both are implemented here.

**Variant (a) -- history reads** (:class:`HistoryReadOperation`): servers
return their entire write history ``L`` instead of only the latest pair.
Any write that completed before the read put its pair on ``n - f`` servers,
so the pair appears in at least ``n - 2f >= 2f + 1 > f`` of the reader's
``n - f`` histories and is witnessed.  Reads stay one-shot; the price is
larger messages.  A reader holding a pair above ``TAG_ZERO`` asks only for
the pairs above its tag (:class:`QueryHistoryAbove`, an extension): the read
adopts a witnessed pair only if it is strictly above that tag, so the pairs
left out could never change its result.

**Variant (b) -- two-round reads** (:class:`TwoRoundReadOperation`):
round 1 gathers tag histories and picks a target tag; round 2 fetches the
value written under that tag and waits for ``f + 1`` matching replies.

.. note::
   The paper's sketch says round 1 picks "the largest tag verified by
   >= f + 1 servers".  With only ``f + 1`` witnesses, ``f`` of them may be
   Byzantine, leaving a single correct holder -- too few to ever produce the
   ``f + 1`` *matching* round-2 replies the sketch then waits for.  We
   therefore require ``2f + 1`` witnesses in round 1 (guaranteeing
   ``f + 1`` correct holders, hence round-2 termination).  Every write that
   completed before the read reaches ``n - f`` servers and is seen in at
   least ``n - 2f >= 2f + 1`` of the round-1 replies, so the stronger
   threshold never loses a completed write.  This deviation is recorded in
   DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bsr import BSRReaderState, BSRReadOperation, BSRServer
from repro.core.messages import (
    HistoryReply,
    QueryHistory,
    QueryHistoryAbove,
    QueryTagHistory,
    QueryValue,
    TagHistoryReply,
    ValueReply,
    items,
)
from repro.core.operation import QuorumRead, witnessed
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.types import Envelope, ProcessId


class RegularBSRServer(BSRServer):
    """A BSR server that additionally serves both regular-read protocols.

    Handles everything :class:`BSRServer` does, plus:

    * ``QueryHistory`` -> ``HistoryReply`` with the whole list ``L``
      (variant a; the paper's "change line 9 of Algorithm 3"), or only
      its pairs above the tag a ``QueryHistoryAbove`` names.
    * ``QueryTagHistory`` -> ``TagHistoryReply`` with every stored tag
      (variant b, round 1).
    * ``QueryValue(tag)`` -> ``ValueReply`` with the matching pair, or a
      ``None`` payload when the tag is unknown (variant b, round 2).
    """

    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if isinstance(message, QueryHistory):
            history = self.history
            if (type(message) is QueryHistoryAbove
                    and isinstance(message.tag, Tag)):
                above = len(history)  # ascending: scan the newest end
                while above and history[above - 1].tag > message.tag:
                    above -= 1
                history = history[above:]
            return [(sender, HistoryReply(op_id=message.op_id,
                                          history=tuple(history)))]
        if isinstance(message, QueryTagHistory):
            tags = tuple(pair.tag for pair in self.history)
            return [(sender, TagHistoryReply(op_id=message.op_id, tags=tags))]
        if isinstance(message, QueryValue):
            return self._query_value_resp(sender, message)
        return super().handle(sender, message)

    def _query_value_resp(self, sender: ProcessId, message: QueryValue) -> List[Envelope]:
        for pair in self.history:
            if pair.tag == message.tag:
                return [(sender, ValueReply(op_id=message.op_id, tag=pair.tag,
                                            payload=pair.value))]
        return [(sender, ValueReply(op_id=message.op_id, tag=message.tag,
                                    payload=None))]


class HistoryReadOperation(BSRReadOperation):
    """Variant (a): BSR's one-shot read (Fig 2) over full histories.

    Each server witnesses every distinct pair of its history.  A reader
    holding a pair names its tag (see the module docstring); an answer
    with no pair above it is a held answer.
    """

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None) -> None:
        super().__init__(client_id, servers, f, reader_state)  # no repair

    def query(self) -> Tuple[List[Envelope], Dict[ProcessId, HistoryReply]]:
        local = self.reader_state.local
        if local.tag == TAG_ZERO:  # local never falls below TAG_ZERO
            return self.broadcast(QueryHistory(op_id=self.op_id)), {}
        nothing_above = HistoryReply(op_id=self.op_id, history=())
        return (self.broadcast(QueryHistoryAbove(op_id=self.op_id, tag=local.tag)),
                dict.fromkeys(self.servers, nothing_above))

    def admits(self, message: Any) -> bool:
        return isinstance(message, HistoryReply)

    def is_held(self, message: Any) -> bool:
        return isinstance(message, HistoryReply) and message.history == ()

    def _reported(self, replies: Dict[ProcessId, Any]) -> List[Tuple[ProcessId, Any, Any]]:
        return [(server, pair.tag, pair.value)
                for server, reply in replies.items()
                for pair in items(reply.history)
                if isinstance(pair, TaggedValue)]


class TwoRoundReadOperation(QuorumRead):
    """Variant (b): a slow (two-round) regular read.

    Round 1 is the one-shot walk over tag histories; round 2 asks for the
    value under the target tag and returns once ``f + 1`` servers agree.
    """

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None) -> None:
        super().__init__(client_id, servers, f)
        self.reader_state = reader_state if reader_state is not None else BSRReaderState()
        self._target: Optional[Tag] = None
        #: Server -> its first round-2 reply carrying a value for the target.
        self._values: Dict[ProcessId, ValueReply] = {}

    def query(self) -> Tuple[List[Envelope], Dict[ProcessId, Any]]:
        return self.broadcast(QueryTagHistory(op_id=self.op_id)), {}

    def admits(self, message: Any) -> bool:
        return isinstance(message, TagHistoryReply)

    def select(self, replies: Dict[ProcessId, Any]) -> List[Envelope]:
        # 2f + 1 witnesses guarantee f + 1 correct holders (see module note);
        # TAG_ZERO is held by every correct server, so a target always exists.
        strong = witnessed([(server, tag, None)
                            for server, reply in replies.items()
                            for tag in items(reply.tags)], 2 * self.f)
        self._target = max(strong).tag if strong else TAG_ZERO
        self.rounds = 2
        return self.broadcast(QueryValue(op_id=self.op_id, tag=self._target))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self._target is None:
            return super().on_reply(sender, message)
        if (self.done or not self.accepts(message)
                or not isinstance(message, ValueReply)
                or message.tag != self._target or message.payload is None):
            return []
        if sender in self.servers:
            self._values.setdefault(sender, message)
        agreed = witnessed([(server, reply.tag, reply.payload)
                            for server, reply in self._values.items()], self.f)
        if agreed:
            self.reader_state.update(agreed[0])
            self._tag = self.reader_state.local.tag
            self._complete(self.reader_state.local.value)
        return []
