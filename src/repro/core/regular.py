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

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

from repro.core.bsr import BSRReaderState, BSRServer
from repro.core.messages import (
    HistoryReply,
    QueryHistory,
    QueryHistoryAbove,
    QueryTagHistory,
    QueryValue,
    TagHistoryReply,
    TagReply,
    ValueReply,
    items,
)
from repro.core.operation import ClientOperation, ReplyCollector
from repro.core.quorum import witness_threshold
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


class HistoryReadOperation(ClientOperation):
    """Variant (a): one-shot read over full histories.

    A reader holding a pair names its tag (see the module docstring);
    an answer with no pair above it counts as a held reply.
    """

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None) -> None:
        super().__init__(client_id, servers, f)
        self.reader_state = reader_state if reader_state is not None else BSRReaderState()
        self._replies = ReplyCollector(self.servers)
        self._conditional = False

    def start(self) -> List[Envelope]:
        self.rounds = 1
        local = self.reader_state.local
        if local.tag != TAG_ZERO:  # local never falls below TAG_ZERO
            self._conditional = True
            return self.broadcast(QueryHistoryAbove(op_id=self.op_id,
                                                    tag=local.tag))
        return self.broadcast(QueryHistory(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message) or not isinstance(message, HistoryReply):
            return []
        if (self._replies.add(sender, message) and self._conditional
                and message.history == ()):
            self.reader_state.held_replies += 1
        if len(self._replies) >= self.quorum:
            self._finish()
        return []

    def _finish(self) -> None:
        counts: Counter = Counter()
        for reply in self._replies.values():
            seen = set()
            for pair in items(reply.history):
                if not isinstance(pair, TaggedValue) or not isinstance(pair.tag, Tag):
                    continue  # Byzantine junk
                try:
                    if pair in seen:
                        continue  # a server is counted once per distinct pair
                    seen.add(pair)
                except TypeError:
                    continue  # an unhashable value: junk too
                counts[pair] += 1
        threshold = witness_threshold(self.f)
        witnessed = [pair for pair, count in counts.items() if count >= threshold]
        if witnessed:
            self.reader_state.update(max(witnessed, key=lambda tv: tv.tag))
        self._tag = self.reader_state.local.tag
        self._complete(self.reader_state.local.value)


class TwoRoundReadOperation(ClientOperation):
    """Variant (b): a slow (two-round) regular read."""

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 reader_state: Optional[BSRReaderState] = None) -> None:
        super().__init__(client_id, servers, f)
        self.reader_state = reader_state if reader_state is not None else BSRReaderState()
        self._phase = "idle"
        self._tag_replies = ReplyCollector(self.servers)
        self._value_replies = ReplyCollector(self.servers)
        self._target: Optional[Tag] = None

    def start(self) -> List[Envelope]:
        self._phase = "get-tag"
        self.rounds = 1
        return self.broadcast(QueryTagHistory(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message):
            return []
        if self._phase == "get-tag" and isinstance(message, TagHistoryReply):
            return self._on_tag_history(sender, message)
        if self._phase == "get-data" and isinstance(message, ValueReply):
            return self._on_value(sender, message)
        return []

    def _on_tag_history(self, sender: ProcessId, message: TagHistoryReply) -> List[Envelope]:
        self._tag_replies.add(sender, message)
        if len(self._tag_replies) < self.quorum:
            return []
        counts: Counter = Counter()
        for reply in self._tag_replies.values():
            seen = set()
            for tag in items(reply.tags):
                if isinstance(tag, Tag) and tag not in seen:
                    seen.add(tag)
                    counts[tag] += 1
        # 2f + 1 witnesses guarantee f + 1 correct holders (see module note);
        # TAG_ZERO is held by every correct server, so a target always exists.
        strong = [tag for tag, count in counts.items() if count >= 2 * self.f + 1]
        self._target = max(strong) if strong else TAG_ZERO
        self._phase = "get-data"
        self.rounds = 2
        return self.broadcast(QueryValue(op_id=self.op_id, tag=self._target))

    def _on_value(self, sender: ProcessId, message: ValueReply) -> List[Envelope]:
        if message.tag != self._target or message.payload is None:
            return []
        self._value_replies.add(sender, message)
        counts: Counter = Counter()
        for reply in self._value_replies.values():
            try:
                counts[reply.payload] += 1
            except TypeError:
                continue
        threshold = witness_threshold(self.f)
        for value, count in counts.items():
            if count >= threshold:
                self.reader_state.update(TaggedValue(self._target, value))
                self._tag = self.reader_state.local.tag
                self._complete(self.reader_state.local.value)
                break
        return []
