"""Mutation tests: break the protocol on purpose, the checkers must notice.

Each mutation removes one safeguard the paper's design arguments call out
as necessary.  If a mutated protocol sailed through the consistency
checkers, the *verification stack* would be broken -- these tests pin the
checkers' sensitivity, and double as executable documentation of why each
protocol rule exists:

* witness threshold ``f + 1`` (Lemma 5)            -> GullibleReadOperation
* one witness per server and pair (Lemma 5)      -> RepeatCountingHistoryRead
* writes reaching ``n - f`` servers (Lemma 7)      -> ShallowWriteOperation
* fresh tag per write (Lemma 2)                    -> NonIncrementingWrite
"""

import pytest

from repro.core.register import RegisterSystem
from repro.byzantine.behaviors import Behavior
from repro.consistency import check_safety
from repro.core.bsr import BSRReadOperation
from repro.core.messages import HistoryReply, PutData, QueryData, QueryHistory
from repro.core.operation import ReplyCollector, WriteOperation
from repro.core.quorum import kth_highest
from repro.core.regular import HistoryReadOperation
from repro.core.tags import Tag, TaggedValue
from repro.sim.delays import ConstantDelay, RuleBasedDelays, UniformDelay
from repro.types import server_id, writer_id


class GullibleReadOperation(BSRReadOperation):
    """MUTATION: accepts a pair on a single witness (drops Lemma 5)."""

    def select(self, replies):
        self.f = 0  # selects as if no server could lie
        return super().select(replies)


class RepeatCountingHistoryRead(HistoryReadOperation):
    """MUTATION: a pair a server's history repeats counts once per repeat."""

    def _reported(self, replies):
        return [((server, i), tag, value) for i, (server, tag, value)
                in enumerate(super()._reported(replies))]


class RepeatedForgery(Behavior):
    """Byzantine: its history ends in one forged high-tag pair, ``f + 1``
    times over."""

    def __init__(self, f):
        self.f = f

    def on_message(self, server, sender, message, correct_replies):
        if not isinstance(message, QueryHistory):
            return correct_replies
        forged = TaggedValue(Tag(server.max_tag.num + 1_000_000,
                                 server.server_id), b"\xde\xad")
        return [(sender, HistoryReply(
            op_id=message.op_id,
            history=tuple(server.history) + (forged,) * (self.f + 1)))]


class ShallowWriteOperation(WriteOperation):
    """MUTATION: declares the write complete after f + 1 acks (not n - f)."""

    def _on_ack(self, sender, message):
        if message.tag != self._tag:
            return []
        self._acks.add(sender, message)
        if len(self._acks) >= self.f + 1:
            self._phase = "done"
            self._complete(self._tag)
        return []


class NonIncrementingWriteOperation(WriteOperation):
    """MUTATION: reuses the observed tag number instead of incrementing."""

    def _on_tag_reply(self, sender, message):
        if not isinstance(message.tag, Tag):
            return []
        self._tag_replies.add(sender, message)
        if len(self._tag_replies) < self.quorum:
            return []
        tags = [reply.tag for reply in self._tag_replies.values()]
        base = kth_highest(tags, self.rank)
        self._tag = Tag(max(base.num, 1), self.client_id)  # no + 1
        self._phase = "put-data"
        self.rounds = 2
        return self.put(self, self._tag)


def swap_operation_class(system, client, cls):
    """Make the client's next submitted operation use the mutated class."""
    entry = system.clients[client]._pending[-1]
    original_factory = entry[2]

    def mutated_factory():
        operation = original_factory()
        operation.__class__ = cls
        return operation

    system.clients[client]._pending[-1] = (entry[0], entry[1],
                                           mutated_factory, entry[3])


def test_gullible_reader_is_caught_by_validity_check():
    """One forged witness suffices for the mutant -> fabricated value."""
    system = RegisterSystem("bsr", f=1, seed=1, initial_value=b"v0",
                            byzantine={0: "forge_tag"},
                            delay_model=ConstantDelay(1.0))
    system.write(b"real", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    swap_operation_class(system, "r000", GullibleReadOperation)
    trace = system.run()
    assert read.value == b"\xde\xad"  # the forger's fabrication wins
    result = check_safety(trace, initial_value=b"v0")
    assert not result.ok
    # The sequential read must have returned the real write's value; the
    # checker pins the fabricated bytes as inadmissible.
    assert any("dead" in str(v) or "\\xde" in str(v) or "clause (i)" in str(v)
               for v in result.violations)


def test_correct_reader_survives_the_same_adversary():
    system = RegisterSystem("bsr", f=1, seed=1, initial_value=b"v0",
                            byzantine={0: "forge_tag"},
                            delay_model=ConstantDelay(1.0))
    system.write(b"real", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    trace = system.run()
    assert read.value == b"real"
    assert check_safety(trace, initial_value=b"v0").ok


def history_read_against_repeated_forgery(mutant):
    system = RegisterSystem("bsr-history", f=1, seed=4, initial_value=b"v0",
                            byzantine={0: RepeatedForgery(f=1)},
                            delay_model=ConstantDelay(1.0))
    system.write(b"real", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    if mutant:
        swap_operation_class(system, "r000", RepeatCountingHistoryRead)
    return read, system.run()


def test_repeat_counting_history_reader_is_caught_by_validity_check():
    """One server repeating a forged pair f + 1 times fools the mutant."""
    read, trace = history_read_against_repeated_forgery(mutant=True)
    assert read.value == b"\xde\xad"
    result = check_safety(trace, initial_value=b"v0")
    assert not result.ok
    assert any("clause (i)" in str(v) for v in result.violations)


def test_correct_history_reader_survives_the_same_adversary():
    read, trace = history_read_against_repeated_forgery(mutant=False)
    assert read.value == b"real"
    assert check_safety(trace, initial_value=b"v0").ok


def test_shallow_write_is_caught_by_staleness_check():
    """A write acked by only f + 1 servers can be missed by a later read."""
    delays = RuleBasedDelays(fallback=ConstantDelay(0.5))
    # The writer's PUT-DATA reaches only s000 and s001 in time.
    delays.hold(lambda src, dst, msg: (
        isinstance(msg, PutData) and src == writer_id(0)
        and dst not in (server_id(0), server_id(1))))
    # s000 is Byzantine: it acks puts normally but replays its previous
    # state on reads (so it contributes an ack to the shallow write yet
    # denies the value afterwards).
    system = RegisterSystem("bsr", f=1, seed=2, initial_value=b"v0",
                            byzantine={0: "history_replay"},
                            delay_model=delays)
    write = system.write(b"shallow", writer=0, at=0.0)
    swap_operation_class(system, "w000", ShallowWriteOperation)
    read = system.read(reader=0, at=20.0)
    trace = system.run(release_held_at_end=False)
    assert write.done          # the mutant "completed" on 2 acks
    assert read.value == b"v0"  # ... and a non-concurrent read missed it
    result = check_safety(trace, initial_value=b"v0")
    assert not result.ok


def test_non_incrementing_writer_is_caught():
    """Two writes by one writer under the same tag: the second is lost."""
    system = RegisterSystem("bsr", f=1, seed=3, initial_value=b"v0",
                            delay_model=ConstantDelay(1.0))
    first = system.write(b"first", writer=0, at=0.0)
    swap_operation_class(system, "w000", NonIncrementingWriteOperation)
    second = system.write(b"second", writer=0, at=20.0)
    swap_operation_class(system, "w000", NonIncrementingWriteOperation)
    read = system.read(reader=0, at=40.0)
    trace = system.run()
    assert first.done and second.done  # acks are unconditional (Fig 3 l.7)
    assert read.value == b"first"      # the second write never stuck
    result = check_safety(trace, initial_value=b"v0")
    assert not result.ok


def test_correct_protocol_passes_where_all_mutants_fail():
    """Sanity: the unmutated protocol under the harshest of the setups."""
    system = RegisterSystem("bsr", f=1, seed=3, initial_value=b"v0",
                            delay_model=ConstantDelay(1.0))
    system.write(b"first", writer=0, at=0.0)
    system.write(b"second", writer=0, at=20.0)
    read = system.read(reader=0, at=40.0)
    trace = system.run()
    assert read.value == b"second"
    check_safety(trace, initial_value=b"v0").raise_if_violated()
