"""Tests for coordinated Byzantine coalitions."""

import pytest

from repro.core.register import RegisterSystem
from repro.byzantine.collusion import (
    ColludingStaleBehavior,
    CollusionState,
    SplitWorldBehavior,
    make_coalition,
)
from repro.consistency import check_regularity, check_safety
from repro.core.bsr import BSRServer
from repro.core.messages import PutData, QueryData
from repro.core.tags import Tag
from repro.sim.delays import UniformDelay


def loaded_server(pid):
    server = BSRServer(pid, initial_value=b"v0")
    server.handle("w", PutData(op_id=1, tag=Tag(1, "w"), payload=b"old"))
    server.handle("w", PutData(op_id=2, tag=Tag(2, "w"), payload=b"new"))
    return server


# -- unit level ---------------------------------------------------------------

def test_collusion_state_first_choice_wins():
    state = CollusionState()
    from repro.core.tags import TaggedValue
    first = TaggedValue(Tag(1, "w"), b"a")
    second = TaggedValue(Tag(2, "w"), b"b")
    assert state.agree_on(first) is first
    assert state.agree_on(second) is first  # sticks with the first story


def test_colluders_replay_identical_pair():
    state = CollusionState()
    behaviors = [ColludingStaleBehavior(state) for _ in range(2)]
    servers = [loaded_server(f"s{i}") for i in range(2)]
    replies = []
    for behavior, server in zip(behaviors, servers):
        message = QueryData(op_id=9)
        [(_, reply)] = behavior.on_message(server, "r0", message,
                                           server.handle("r0", message))
        replies.append((reply.tag, reply.payload))
    assert replies[0] == replies[1] == (Tag(1, "w"), b"old")


def test_split_world_partitions_clients():
    state = CollusionState()
    behavior = SplitWorldBehavior(state)
    server = loaded_server("s0")
    message = QueryData(op_id=9)
    [(_, to_r0)] = behavior.on_message(server, "r0", message, [])
    [(_, to_r1)] = behavior.on_message(server, "r1", message, [])
    [(_, to_r0_again)] = behavior.on_message(server, "r0", message, [])
    assert to_r0.payload != to_r1.payload
    assert to_r0.payload == to_r0_again.payload  # consistent per client


def test_make_coalition_shares_state():
    coalition = make_coalition(ColludingStaleBehavior, 3)
    assert len(coalition) == 3
    assert len({id(b.state) for b in coalition}) == 1


# -- system level --------------------------------------------------------------

def test_colluding_stale_coalition_defeated_at_bound():
    """f colluders focusing one stale pair still lack a witness majority."""
    f = 2
    coalition = make_coalition(ColludingStaleBehavior, f)
    system = RegisterSystem(
        "bsr", f=f, seed=7, initial_value=b"v0",
        byzantine={i: coalition[i] for i in range(f)},
        delay_model=UniformDelay(0.3, 1.0),
    )
    system.write(b"first", writer=0, at=0.0)
    system.write(b"current", writer=1, at=20.0)
    read = system.read(reader=0, at=40.0)
    trace = system.run()
    assert read.value == b"current"
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_split_world_cannot_make_two_readers_disagree():
    f = 2
    coalition = make_coalition(SplitWorldBehavior, f)
    system = RegisterSystem(
        "bsr-history", f=f, seed=8, num_readers=2, initial_value=b"v0",
        byzantine={i: coalition[i] for i in range(f)},
        delay_model=UniformDelay(0.3, 1.0),
    )
    system.write(b"truth", writer=0, at=0.0)
    first = system.read(reader=0, at=20.0)
    second = system.read(reader=1, at=20.0)
    trace = system.run()
    assert first.value == b"truth"
    assert second.value == b"truth"
    check_regularity(trace, initial_value=b"v0").raise_if_violated()


def test_split_world_forged_tags_do_not_poison_writers():
    f = 1
    coalition = make_coalition(SplitWorldBehavior, f)
    system = RegisterSystem(
        "bsr", f=f, seed=9, byzantine={0: coalition[0]},
        delay_model=UniformDelay(0.3, 1.0),
    )
    first = system.write(b"a", writer=0, at=0.0)
    second = system.write(b"b", writer=1, at=20.0)
    system.run()
    # Tags advance by one per write despite the coalition's boosts.
    assert first.value.num == 1
    assert second.value.num == 2
