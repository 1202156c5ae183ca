"""Reusable Byzantine server strategies.

Each behaviour implements::

    on_message(server, sender, message, correct_replies) -> [(dest, message)]

where ``server`` is the underlying *correct* state machine (whose state the
behaviour may consult -- a Byzantine server knows its own history), and
``correct_replies`` is what a correct server would have sent.  Returning
``correct_replies`` unchanged makes the server honest for that message.

The strategies cover the paper's list of example deviations (Section II-A):
"incorrect register values, incorrect timestamp values, no reply or multiple
replies to a certain request".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.messages import (
    DataReply,
    HistoryReply,
    PutAck,
    PutData,
    QueryData,
    QueryHistory,
    QueryTag,
    QueryTagHistory,
    QueryValue,
    TagHistoryReply,
    TagReply,
    ValueReply,
)
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.sim.rng import SimRng
from repro.types import Envelope, ProcessId


class Behavior:
    """Base behaviour: honest (returns the correct replies)."""

    name = "honest"

    def on_message(self, server: Any, sender: ProcessId, message: Any,
                   correct_replies: List[Envelope]) -> List[Envelope]:
        """Decide what to actually send in response to ``message``."""
        return correct_replies


class SilentBehavior(Behavior):
    """Never replies (but its state still updates, so it can turn chatty).

    From the clients' perspective this is indistinguishable from a crashed
    or very slow server -- the weakest Byzantine strategy, and the one the
    liveness bound (Lemma 6) is calibrated against.
    """

    name = "silent"

    def on_message(self, server, sender, message, correct_replies):
        return []


class StaleBehavior(Behavior):
    """Answers every query with the *initial* state of the register.

    Models a server that pretends no write ever happened: stale tag replies
    slow writers down and stale data replies try to drag readers back to
    ``v0``.  Acks are suppressed for puts so the server also "forgets"
    writes.
    """

    name = "stale"

    def on_message(self, server, sender, message, correct_replies):
        oldest = server.history[0]
        if isinstance(message, QueryTag):
            return [(sender, TagReply(op_id=message.op_id, tag=oldest.tag))]
        if isinstance(message, QueryData):
            return [(sender, DataReply(op_id=message.op_id, tag=oldest.tag,
                                       payload=oldest.value))]
        if isinstance(message, QueryHistory):
            return [(sender, HistoryReply(op_id=message.op_id, history=(oldest,)))]
        if isinstance(message, QueryTagHistory):
            return [(sender, TagHistoryReply(op_id=message.op_id, tags=(oldest.tag,)))]
        if isinstance(message, PutData):
            return []  # swallow the ack
        return correct_replies


class ForgeTagBehavior(Behavior):
    """Inflates timestamps: the "incorrect timestamp values" deviation.

    Query replies advertise a tag ``boost`` higher than anything real, with
    a fabricated value.  A reader must see ``f + 1`` witnesses to believe a
    pair (Lemma 5) and a writer takes the ``(f+1)``-th highest tag (Fig 1
    line 4), so ``f`` forgers alone can mislead neither -- which is exactly
    what the E8 ablation measures.
    """

    name = "forge_tag"

    def __init__(self, boost: int = 1_000_000, fake_value: Any = b"\xde\xad") -> None:
        self.boost = boost
        self.fake_value = fake_value

    def _forged_tag(self, server) -> Tag:
        return Tag(server.max_tag.num + self.boost, server.server_id)

    def on_message(self, server, sender, message, correct_replies):
        forged = self._forged_tag(server)
        if isinstance(message, QueryTag):
            return [(sender, TagReply(op_id=message.op_id, tag=forged))]
        if isinstance(message, QueryData):
            return [(sender, DataReply(op_id=message.op_id, tag=forged,
                                       payload=self.fake_value))]
        if isinstance(message, QueryHistory):
            pair = TaggedValue(forged, self.fake_value)
            return [(sender, HistoryReply(op_id=message.op_id,
                                          history=tuple(server.history) + (pair,)))]
        if isinstance(message, QueryTagHistory):
            tags = tuple(p.tag for p in server.history) + (forged,)
            return [(sender, TagHistoryReply(op_id=message.op_id, tags=tags))]
        return correct_replies


class CorruptValueBehavior(Behavior):
    """Returns correct tags but corrupted values/coded elements.

    This is the adversary the BCSR decoder must defeat: the coded element
    has the right position and plausible length but flipped bytes.
    """

    name = "corrupt_value"

    def __init__(self, xor_mask: int = 0xA5) -> None:
        if not 0 <= xor_mask <= 255:
            raise ValueError("xor_mask must be a byte")
        self.xor_mask = xor_mask
        #: ``bytes.translate`` table: the XOR runs in C, so a measured
        #: victim is not charged the attacker's per-byte loop.
        self._table = bytes(b ^ xor_mask for b in range(256))

    def _corrupt(self, payload: Any) -> Any:
        if isinstance(payload, CodedElement):
            return CodedElement(payload.index,
                                bytes(payload.data).translate(self._table))
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload).translate(self._table)
        return payload

    def on_message(self, server, sender, message, correct_replies):
        corrupted: List[Envelope] = []
        for dest, reply in correct_replies:
            if isinstance(reply, DataReply):
                reply = DataReply(op_id=reply.op_id, tag=reply.tag,
                                  payload=self._corrupt(reply.payload))
            elif isinstance(reply, ValueReply):
                reply = ValueReply(op_id=reply.op_id, tag=reply.tag,
                                   payload=self._corrupt(reply.payload))
            elif isinstance(reply, HistoryReply):
                reply = HistoryReply(
                    op_id=reply.op_id,
                    history=tuple(TaggedValue(p.tag, self._corrupt(p.value))
                                  for p in reply.history),
                )
            corrupted.append((dest, reply))
        return corrupted


class HistoryReplayBehavior(Behavior):
    """Answers data queries with an *older* entry of its own history.

    ``offset=1`` replays the second-newest stored pair -- exactly the lie
    server ``s0`` tells in the Theorem 5 / Theorem 6 lower-bound executions
    ("suppose s0 returns v1 instead of v2").  The replayed pair is a real
    former state of the register, so it is indistinguishable from an honest
    but slow server -- the hardest kind of lie to defend against.
    """

    name = "history_replay"

    def __init__(self, offset: int = 1) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.offset = offset

    def _replayed(self, server) -> TaggedValue:
        index = max(0, len(server.history) - 1 - self.offset)
        return server.history[index]

    def on_message(self, server, sender, message, correct_replies):
        if isinstance(message, QueryData):
            pair = self._replayed(server)
            return [(sender, DataReply(op_id=message.op_id, tag=pair.tag,
                                       payload=pair.value))]
        if isinstance(message, QueryHistory):
            pair = self._replayed(server)
            cutoff = server.history.index(pair) + 1
            return [(sender, HistoryReply(op_id=message.op_id,
                                          history=tuple(server.history[:cutoff])))]
        if isinstance(message, QueryTagHistory):
            pair = self._replayed(server)
            cutoff = server.history.index(pair) + 1
            tags = tuple(p.tag for p in server.history[:cutoff])
            return [(sender, TagHistoryReply(op_id=message.op_id, tags=tags))]
        return correct_replies


class EquivocateBehavior(Behavior):
    """Tells different readers different stories.

    Each distinct querier is answered with a *different* fabricated value
    under the same forged tag -- the canonical attack reliable broadcast
    exists to prevent, here defeated by witness counting instead.
    """

    name = "equivocate"

    def __init__(self, tag_boost: int = 500_000) -> None:
        self.tag_boost = tag_boost
        self._per_reader: Dict[ProcessId, bytes] = {}

    def _story_for(self, reader: ProcessId) -> bytes:
        if reader not in self._per_reader:
            self._per_reader[reader] = f"lie-for-{reader}".encode()
        return self._per_reader[reader]

    def on_message(self, server, sender, message, correct_replies):
        if isinstance(message, QueryData):
            forged = Tag(server.max_tag.num + self.tag_boost, server.server_id)
            return [(sender, DataReply(op_id=message.op_id, tag=forged,
                                       payload=self._story_for(sender)))]
        return correct_replies


class MultiReplyBehavior(Behavior):
    """Sends every correct reply several times ("multiple replies").

    Duplicate replies must not let one server masquerade as several
    witnesses; :class:`repro.core.operation.ReplyCollector` counts each
    server once, which this behaviour exists to exercise.
    """

    name = "multi_reply"

    def __init__(self, copies: int = 3) -> None:
        if copies < 1:
            raise ValueError("copies must be at least 1")
        self.copies = copies

    def on_message(self, server, sender, message, correct_replies):
        return [envelope for envelope in correct_replies
                for _ in range(self.copies)]


class FlipFlopBehavior(Behavior):
    """Alternates between honest and stale replies per message.

    Exercises readers against a server whose lies are intermittent, which
    defeats naive "blacklist a server after one bad reply" designs.
    """

    name = "flip_flop"

    def __init__(self) -> None:
        self._honest_turn = True
        self._stale = StaleBehavior()

    def on_message(self, server, sender, message, correct_replies):
        self._honest_turn = not self._honest_turn
        if self._honest_turn:
            return correct_replies
        return self._stale.on_message(server, sender, message, correct_replies)


class RandomBehavior(Behavior):
    """Randomly picks a strategy per message (seeded, reproducible).

    A crude approximation of "arbitrary" used by the randomized resilience
    sweeps: each message is answered honestly, silently, stalely, with a
    forged tag, or corrupted, with equal probability.
    """

    name = "random"

    def __init__(self, rng: Optional[SimRng] = None) -> None:
        self.rng = rng or SimRng(0, "byz-random")
        self._strategies: List[Behavior] = [
            Behavior(), SilentBehavior(), StaleBehavior(),
            ForgeTagBehavior(), CorruptValueBehavior(),
        ]

    def on_message(self, server, sender, message, correct_replies):
        strategy = self.rng.choice(self._strategies)
        return strategy.on_message(server, sender, message, correct_replies)


#: Name -> factory map used by failure schedules and the CLI.
BEHAVIOR_REGISTRY = {
    "honest": Behavior,
    "silent": SilentBehavior,
    "stale": StaleBehavior,
    "forge_tag": ForgeTagBehavior,
    "history_replay": HistoryReplayBehavior,
    "corrupt_value": CorruptValueBehavior,
    "equivocate": EquivocateBehavior,
    "multi_reply": MultiReplyBehavior,
    "flip_flop": FlipFlopBehavior,
    "random": RandomBehavior,
}


def make_behavior(name: str, **kwargs) -> Behavior:
    """Instantiate a registered behaviour by name."""
    try:
        factory = BEHAVIOR_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown behavior {name!r}; known: {sorted(BEHAVIOR_REGISTRY)}"
        ) from None
    return factory(**kwargs)
