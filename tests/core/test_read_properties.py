"""Property-based tests for the BSR read decision function.

These drive :class:`BSRReadOperation` directly with arbitrary reply
multisets (hypothesis-generated) and assert the invariants of Fig 2 that
every safety argument leans on, independent of any schedule:

1. the returned value is either a pair with >= f + 1 witnesses or the
   reader's cached local value -- never a lone server's claim;
2. with at most f arbitrary ("Byzantine") replies injected, a pair that
   f + 1 honest servers reported can never lose to a *fabricated* pair;
3. the reader's cached tag never decreases across reads.

Seeded simulation properties cover conditional reads: a correct
server's ``DataHeld`` always stands for the pair (BSR) or the coded
element (BCSR) it stores.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency import check_safety
from repro.core.bsr import BSRReadOperation, BSRReaderState
from repro.core.messages import DataHeld, DataReply, QueryDataHeld
from repro.core.register import RegisterSystem
from repro.sim.delays import ExponentialDelay
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.types import server_id

N, F = 5, 1
SERVERS = [server_id(i) for i in range(N)]

tags = st.builds(Tag, st.integers(min_value=0, max_value=6),
                 st.sampled_from(["", "w000", "w001"]))
values = st.sampled_from([b"", b"a", b"b", b"c"])
replies = st.lists(st.tuples(tags, values), min_size=N - F, max_size=N - F)


def run_read(reply_list, state=None):
    operation = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    operation.start()
    for server, (tag, value) in zip(SERVERS, reply_list):
        operation.on_reply(server, DataReply(op_id=operation.op_id,
                                             tag=tag, payload=value))
    assert operation.done
    return operation


@settings(max_examples=200, deadline=None)
@given(replies)
def test_result_is_witnessed_or_cached(reply_list):
    state = BSRReaderState(b"")
    operation = run_read(reply_list, state)
    counts = Counter(TaggedValue(t, v) for t, v in reply_list)
    witnessed = {pair for pair, c in counts.items() if c >= F + 1}
    best_tag = max((pair.tag for pair in witnessed), default=TAG_ZERO)
    if witnessed and best_tag > TAG_ZERO:
        # Several witnessed pairs may share the max tag (possible only for
        # adversarial inputs); any of their values is an acceptable pick.
        acceptable = {pair.value for pair in witnessed if pair.tag == best_tag}
        assert operation.result in acceptable
    else:
        # Nothing witnessed beats the cache: the initial value is returned.
        assert operation.result == b""


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(tags, values), min_size=F, max_size=F),
       st.integers(min_value=1, max_value=6))
def test_f_byzantine_replies_cannot_fabricate(byzantine_replies, honest_num):
    """f arbitrary replies + an honest (f+1)-witnessed pair: honest wins
    unless the adversary echoes a genuinely higher *witnessed* pair --
    which it cannot, having only f voices."""
    honest_pair = (Tag(honest_num, "w000"), b"honest")
    reply_list = [honest_pair] * (N - F - len(byzantine_replies)) \
        + byzantine_replies
    operation = run_read(reply_list, BSRReaderState(b""))
    # The fabricated pairs have at most f witnesses each (they'd need to
    # collide with the honest pair exactly to gain more).
    if operation.result != b"honest":
        # Only possible if a byzantine reply *equals* the honest pair count
        # threshold by duplicating... with f = 1 a single lone reply can
        # never be witnessed, so the result must be the honest value.
        counts = Counter(TaggedValue(t, v) for t, v in reply_list)
        fabricated_witnessed = [
            pair for pair, c in counts.items()
            if c >= F + 1 and pair.value != b"honest"
        ]
        assert fabricated_witnessed, "unwitnessed value returned!"


@settings(max_examples=100, deadline=None)
@given(st.lists(replies, min_size=2, max_size=4))
def test_cached_tag_is_monotone_across_reads(reply_lists):
    state = BSRReaderState(b"")
    previous = TAG_ZERO
    for reply_list in reply_lists:
        run_read(reply_list, state)
        assert state.local.tag >= previous
        previous = state.local.tag


# -- conditional reads in seeded simulations -----------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_every_held_reply_of_a_correct_server_is_the_pair_it_stores(seed):
    """Random schedules, random delays, one Byzantine server: whenever a
    correct server answers :class:`DataHeld`, the pair the read will
    count for it is exactly the pair that server stores right then."""
    rng = random.Random(seed)
    behavior = ("claim_held", "stale", "corrupt_value", "honest")[seed % 4]
    system = RegisterSystem("bsr", f=F, seed=seed, num_writers=2,
                            num_readers=2, byzantine={0: behavior},
                            delay_model=ExponentialDelay(mean=1.0))
    for index in range(30):
        at = rng.uniform(0.0, 60.0)
        if rng.random() < 0.3:
            system.write(b"v%d-%d" % (seed, index), writer=rng.randrange(2),
                         at=at)
        else:
            system.read(reader=rng.randrange(2), at=at)
    named = {}  # op_id -> the pair its query named

    def tap(src, dst, message):
        if type(message) is QueryDataHeld and message.op_id not in named:
            [read] = [h.operation for h in system.handles
                      if h.operation is not None
                      and h.operation.op_id == message.op_id]
            named[message.op_id] = read.reader_state.local
            assert read.reader_state.local.tag == message.tag
        elif type(message) is DataHeld and src != SERVERS[0]:
            assert system.server_protocols[src].latest == named[message.op_id]
            held.append(message)

    held = []
    system.sim.network.add_tap(tap)
    trace = system.run()
    assert held, "the schedule never exercised a held reply"
    assert all(handle.done for handle in system.handles)
    assert check_safety(trace, initial_value=b"").ok


@pytest.mark.parametrize("seed", range(8))
def test_every_held_bcsr_reply_of_a_correct_server_is_the_element_it_stores(
        seed):
    """The BCSR twin: one writer, two readers, one Byzantine server; the
    column a read counts for a correct server's :class:`DataHeld` is
    exactly the coded element that server stores right then."""
    rng = random.Random(seed)
    behavior = ("claim_held", "stale", "corrupt_value", "honest")[seed % 4]
    system = RegisterSystem("bcsr", f=F, seed=seed, num_writers=1,
                            num_readers=2, byzantine={0: behavior},
                            delay_model=ExponentialDelay(mean=1.0))
    for index in range(30):
        at = rng.uniform(0.0, 60.0)
        if rng.random() < 0.3:
            system.write(b"v%d-%d" % (seed, index), writer=0, at=at)
        else:
            system.read(reader=rng.randrange(2), at=at)
    held = []

    def tap(src, dst, message):
        if type(message) is DataHeld and src != "s000":
            [read] = [h.operation for h in system.handles
                      if h.operation is not None
                      and h.operation.op_id == message.op_id]
            stored = system.server_protocols[src].latest.value
            assert read._held[src].payload == stored
            held.append(message)

    system.sim.network.add_tap(tap)
    trace = system.run()
    assert held, "the schedule never exercised a held reply"
    assert all(handle.done for handle in system.handles)
    assert check_safety(trace, initial_value=b"").ok
