"""Unit tests for the Byzantine behaviour strategies."""

import pytest

from repro.byzantine.behaviors import (
    BEHAVIOR_REGISTRY,
    Behavior,
    CorruptValueBehavior,
    EquivocateBehavior,
    FlipFlopBehavior,
    ForgeTagBehavior,
    HistoryReplayBehavior,
    MultiReplyBehavior,
    RandomBehavior,
    SilentBehavior,
    StaleBehavior,
    make_behavior,
)
from repro.core.bsr import BSRServer
from repro.core.messages import (
    DataReply,
    PutData,
    QueryData,
    QueryTag,
    TagReply,
)
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.striping import CodedElement
from repro.sim.rng import SimRng


@pytest.fixture
def server():
    s = BSRServer("s000", initial_value=b"v0")
    s.handle("w000", PutData(op_id=1, tag=Tag(1, "w000"), payload=b"v1"))
    s.handle("w001", PutData(op_id=2, tag=Tag(2, "w001"), payload=b"v2"))
    return s


def correct_replies(server, sender, message):
    return server.handle(sender, message)


def test_base_behavior_is_honest(server):
    message = QueryData(op_id=5)
    replies = correct_replies(server, "r0", message)
    assert Behavior().on_message(server, "r0", message, replies) == replies


def test_silent_behavior_replies_nothing(server):
    message = QueryData(op_id=5)
    replies = correct_replies(server, "r0", message)
    assert SilentBehavior().on_message(server, "r0", message, replies) == []


def test_stale_behavior_returns_initial_state(server):
    message = QueryData(op_id=5)
    out = StaleBehavior().on_message(server, "r0", message,
                                     correct_replies(server, "r0", message))
    [(dest, reply)] = out
    assert reply.tag == TAG_ZERO and reply.payload == b"v0"


def test_stale_behavior_swallows_put_acks(server):
    message = PutData(op_id=9, tag=Tag(5, "w"), payload=b"x")
    out = StaleBehavior().on_message(server, "w", message,
                                     correct_replies(server, "w", message))
    assert out == []


def test_forge_tag_inflates_query_tag(server):
    behavior = ForgeTagBehavior(boost=100)
    message = QueryTag(op_id=5)
    [(_, reply)] = behavior.on_message(server, "w0", message,
                                       correct_replies(server, "w0", message))
    assert reply.tag.num == server.max_tag.num + 100


def test_forge_tag_fabricates_data(server):
    behavior = ForgeTagBehavior(boost=100, fake_value=b"evil")
    message = QueryData(op_id=5)
    [(_, reply)] = behavior.on_message(server, "r0", message,
                                       correct_replies(server, "r0", message))
    assert reply.payload == b"evil"
    assert reply.tag > server.max_tag


def test_history_replay_returns_previous_value(server):
    behavior = HistoryReplayBehavior(offset=1)
    message = QueryData(op_id=5)
    [(_, reply)] = behavior.on_message(server, "r0", message,
                                       correct_replies(server, "r0", message))
    assert reply.payload == b"v1"  # second-newest


def test_history_replay_offset_clamps_to_initial(server):
    behavior = HistoryReplayBehavior(offset=99)
    message = QueryData(op_id=5)
    [(_, reply)] = behavior.on_message(server, "r0", message,
                                       correct_replies(server, "r0", message))
    assert reply.payload == b"v0"


def test_corrupt_value_flips_bytes(server):
    behavior = CorruptValueBehavior(xor_mask=0xFF)
    message = QueryData(op_id=5)
    [(_, reply)] = behavior.on_message(server, "r0", message,
                                       correct_replies(server, "r0", message))
    assert reply.payload == bytes(b ^ 0xFF for b in b"v2")
    assert reply.tag == server.max_tag  # tag untouched


def test_corrupt_value_handles_coded_elements(server):
    behavior = CorruptValueBehavior(xor_mask=0x01)
    original = DataReply(op_id=5, tag=Tag(1, "w"),
                         payload=CodedElement(3, b"\x00\x01"))
    [(_, reply)] = behavior.on_message(server, "r0", QueryData(op_id=5),
                                       [("r0", original)])
    assert reply.payload == CodedElement(3, b"\x01\x00")


def test_corrupt_value_bytes_are_the_per_byte_xor_for_every_mask(server):
    """The table-driven XOR emits exactly what the per-byte loop did."""
    data = bytes(range(256)) + b"\x00\xff tail"
    for mask in range(256):
        behavior = CorruptValueBehavior(xor_mask=mask)
        expected = bytes(b ^ mask for b in data)
        for payload, corrupted in (
                (data, expected), (bytearray(data), expected),
                (CodedElement(2, data), CodedElement(2, expected))):
            original = DataReply(op_id=5, tag=Tag(1, "w"), payload=payload)
            [(_, reply)] = behavior.on_message(server, "r0", QueryData(op_id=5),
                                               [("r0", original)])
            assert reply.payload == corrupted
            assert type(reply.payload) is type(corrupted)


def test_equivocate_gives_each_reader_a_different_story(server):
    behavior = EquivocateBehavior()
    message = QueryData(op_id=5)
    [(_, to_r0)] = behavior.on_message(server, "r0", message,
                                       correct_replies(server, "r0", message))
    [(_, to_r1)] = behavior.on_message(server, "r1", message,
                                       correct_replies(server, "r1", message))
    assert to_r0.payload != to_r1.payload
    assert to_r0.tag == to_r1.tag  # same forged tag, different values


def test_equivocate_is_consistent_per_reader(server):
    behavior = EquivocateBehavior()
    message = QueryData(op_id=5)
    first = behavior.on_message(server, "r0", message, [])[0][1]
    second = behavior.on_message(server, "r0", message, [])[0][1]
    assert first.payload == second.payload


def test_multi_reply_duplicates(server):
    behavior = MultiReplyBehavior(copies=3)
    message = QueryData(op_id=5)
    out = behavior.on_message(server, "r0", message,
                              correct_replies(server, "r0", message))
    assert len(out) == 3
    assert len({id(reply) for _, reply in out}) <= 3


def test_multi_reply_validates_copies():
    with pytest.raises(ValueError):
        MultiReplyBehavior(copies=0)


def test_flip_flop_alternates(server):
    behavior = FlipFlopBehavior()
    message = QueryData(op_id=5)
    replies = correct_replies(server, "r0", message)
    first = behavior.on_message(server, "r0", message, replies)
    second = behavior.on_message(server, "r0", message, replies)
    payloads = {out[0][1].payload for out in (first, second)}
    assert payloads == {b"v0", b"v2"}  # one stale, one honest


def test_random_behavior_is_seeded(server):
    message = QueryData(op_id=5)
    replies = correct_replies(server, "r0", message)

    def run(seed):
        behavior = RandomBehavior(rng=SimRng(seed, "t"))
        return [len(behavior.on_message(server, "r0", message, replies))
                for _ in range(10)]

    assert run(1) == run(1)


def test_registry_and_factory():
    assert set(BEHAVIOR_REGISTRY) >= {
        "honest", "silent", "stale", "forge_tag", "history_replay",
        "corrupt_value", "equivocate", "multi_reply", "flip_flop", "random",
    }
    assert isinstance(make_behavior("stale"), StaleBehavior)
    assert isinstance(make_behavior("forge_tag", boost=5), ForgeTagBehavior)
    with pytest.raises(ValueError):
        make_behavior("nonexistent")


def test_corrupt_value_validates_mask():
    with pytest.raises(ValueError):
        CorruptValueBehavior(xor_mask=300)


def test_history_replay_validates_offset():
    with pytest.raises(ValueError):
        HistoryReplayBehavior(offset=-1)
