"""Unit tests for the BSR server state machine and client operations.

These drive the state machines directly (no simulator), pinning each
transition of Figs 1-3.
"""

import pytest

from repro.core.bsr import BSRReadOperation, BSRReaderState, BSRServer
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
from repro.core.operation import WriteOperation
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.errors import QuorumError
from repro.protocols.fleet import Fleet

SERVERS = [f"s{i:03d}" for i in range(5)]
F = 1


# -- server ------------------------------------------------------------------

def test_server_initial_state():
    server = BSRServer("s000", initial_value=b"v0")
    assert server.max_tag == TAG_ZERO
    assert server.latest.value == b"v0"


def test_query_tag_returns_max_tag():
    server = BSRServer("s000")
    [(dest, reply)] = server.handle("w000", QueryTag(op_id=7))
    assert dest == "w000"
    assert isinstance(reply, TagReply) and reply.tag == TAG_ZERO
    assert reply.op_id == 7


def test_put_data_stores_higher_tag_and_acks():
    server = BSRServer("s000")
    tag = Tag(1, "w000")
    [(dest, ack)] = server.handle("w000", PutData(op_id=1, tag=tag, payload=b"v1"))
    assert isinstance(ack, PutAck) and ack.tag == tag
    assert server.latest == TaggedValue(tag, b"v1")


def test_put_data_with_stale_tag_acks_but_does_not_store():
    server = BSRServer("s000")
    server.handle("w000", PutData(op_id=1, tag=Tag(5, "w000"), payload=b"new"))
    [(_, ack)] = server.handle("w001", PutData(op_id=2, tag=Tag(3, "w001"),
                                               payload=b"old"))
    assert isinstance(ack, PutAck)  # ack is unconditional (liveness)
    assert server.latest.value == b"new"
    assert len(server.history) == 2  # stale pair not appended


def test_query_data_returns_latest_pair():
    server = BSRServer("s000")
    tag = Tag(2, "w001")
    server.handle("w001", PutData(op_id=1, tag=tag, payload=b"fresh"))
    [(_, reply)] = server.handle("r000", QueryData(op_id=9))
    assert isinstance(reply, DataReply)
    assert reply.tag == tag and reply.payload == b"fresh"


def test_server_ignores_unknown_messages():
    server = BSRServer("s000")
    assert server.handle("x", "garbage") == []


def test_storage_bytes_reflects_current_value():
    server = BSRServer("s000", initial_value=b"")
    server.handle("w", PutData(op_id=1, tag=Tag(1, "w"), payload=b"12345678"))
    assert server.storage_bytes() == 8


# -- write operation ------------------------------------------------------------

def tag_reply(op, tag):
    return TagReply(op_id=op.op_id, tag=tag)


def test_write_requires_bsr_bound():
    # Checked once per deployment, when its fleet is built.
    with pytest.raises(QuorumError):
        Fleet.build("bsr", f=F, n=4)


def test_write_happy_path():
    op = WriteOperation("w000", SERVERS, F, b"v1")
    start = op.start()
    assert len(start) == 5 and all(isinstance(m, QueryTag) for _, m in start)
    # n - f - 1 tag replies: not yet enough
    for sid in SERVERS[:3]:
        assert op.on_reply(sid, tag_reply(op, TAG_ZERO)) == []
    # the 4th reply triggers put-data with tag (0+1, w000)
    puts = op.on_reply(SERVERS[3], tag_reply(op, TAG_ZERO))
    assert len(puts) == 5
    assert all(isinstance(m, PutData) and m.tag == Tag(1, "w000") for _, m in puts)
    assert not op.done
    for sid in SERVERS[:4]:
        op.on_reply(sid, PutAck(op_id=op.op_id, tag=Tag(1, "w000")))
    assert op.done
    assert op.result == Tag(1, "w000")
    assert op.rounds == 2


def test_write_selects_f_plus_1_th_highest_tag():
    op = WriteOperation("w000", SERVERS, F, b"v")
    op.start()
    replies = [Tag(9, "byz"), Tag(3, "w1"), Tag(3, "w1"), Tag(2, "w1")]
    for sid, tag in zip(SERVERS, replies):
        out = op.on_reply(sid, tag_reply(op, tag))
    # (f+1)-th = 2nd highest of [9,3,3,2] is 3 -> new tag num 4
    assert out[0][1].tag == Tag(4, "w000")


def test_write_ignores_malformed_tag_replies():
    op = WriteOperation("w000", SERVERS, F, b"v")
    op.start()
    assert op.on_reply(SERVERS[0], TagReply(op_id=op.op_id, tag="not-a-tag")) == []
    # the malformed reply must not count toward the quorum
    for sid in SERVERS[1:4]:
        assert op.on_reply(sid, tag_reply(op, TAG_ZERO)) == []
    puts = op.on_reply(SERVERS[4], tag_reply(op, TAG_ZERO))
    assert len(puts) == 5


def test_write_ignores_duplicate_replies_from_same_server():
    op = WriteOperation("w000", SERVERS, F, b"v")
    op.start()
    for _ in range(10):
        assert op.on_reply(SERVERS[0], tag_reply(op, TAG_ZERO)) == []
    assert not op.done


def test_write_ignores_acks_for_other_tags():
    op = WriteOperation("w000", SERVERS, F, b"v")
    op.start()
    for sid in SERVERS[:4]:
        op.on_reply(sid, tag_reply(op, TAG_ZERO))
    for sid in SERVERS[:4]:
        op.on_reply(sid, PutAck(op_id=op.op_id, tag=Tag(999, "byz")))
    assert not op.done


def test_write_ignores_wrong_op_id():
    op = WriteOperation("w000", SERVERS, F, b"v")
    op.start()
    assert op.on_reply(SERVERS[0], TagReply(op_id=op.op_id + 1, tag=TAG_ZERO)) == []


# -- read operation ---------------------------------------------------------------

def data_reply(op, tag, value):
    return DataReply(op_id=op.op_id, tag=tag, payload=value)


def test_read_happy_path_returns_witnessed_value():
    op = BSRReadOperation("r000", SERVERS, F)
    assert len(op.start()) == 5
    tag = Tag(1, "w000")
    for sid in SERVERS[:3]:
        op.on_reply(sid, data_reply(op, tag, b"v1"))
    assert not op.done
    op.on_reply(SERVERS[3], data_reply(op, TAG_ZERO, b""))
    assert op.done
    assert op.result == b"v1"
    assert op.rounds == 1


def test_read_requires_f_plus_1_witnesses():
    # Four distinct values: no pair reaches 2 witnesses -> initial value.
    op = BSRReadOperation("r000", SERVERS, F)
    op.start()
    for i, sid in enumerate(SERVERS[:4]):
        op.on_reply(sid, data_reply(op, Tag(1, f"w{i}"), f"v{i}".encode()))
    assert op.done
    assert op.result == b""  # reader-state default


def test_read_picks_highest_witnessed_pair():
    op = BSRReadOperation("r000", SERVERS, F)
    op.start()
    low, high = Tag(1, "w000"), Tag(2, "w001")
    op.on_reply(SERVERS[0], data_reply(op, low, b"old"))
    op.on_reply(SERVERS[1], data_reply(op, low, b"old"))
    op.on_reply(SERVERS[2], data_reply(op, high, b"new"))
    op.on_reply(SERVERS[3], data_reply(op, high, b"new"))
    assert op.result == b"new"
    assert op.result_tag == high


def test_witnesses_must_match_on_value_not_just_tag():
    # A Byzantine server echoing the right tag with a wrong value must not
    # help that value reach the threshold.
    op = BSRReadOperation("r000", SERVERS, F)
    op.start()
    tag = Tag(1, "w000")
    op.on_reply(SERVERS[0], data_reply(op, tag, b"real"))
    op.on_reply(SERVERS[1], data_reply(op, tag, b"fake"))
    op.on_reply(SERVERS[2], data_reply(op, TAG_ZERO, b""))
    op.on_reply(SERVERS[3], data_reply(op, TAG_ZERO, b""))
    assert op.done
    # (TAG_ZERO, b"") has 2 witnesses; "real" and "fake" have 1 each.
    assert op.result == b""


def test_reader_state_persists_across_reads():
    state = BSRReaderState(b"v0")
    first = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    first.start()
    tag = Tag(3, "w000")
    for sid in SERVERS[:4]:
        first.on_reply(sid, data_reply(first, tag, b"seen"))
    assert first.result == b"seen"

    # Second read sees nothing witnessed; falls back to the cached pair.
    second = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    second.start()
    for i, sid in enumerate(SERVERS[:4]):
        second.on_reply(sid, data_reply(second, Tag(9, f"b{i}"), f"x{i}".encode()))
    assert second.result == b"seen"


def test_reader_state_never_regresses():
    state = BSRReaderState(b"v0")
    state.update(TaggedValue(Tag(5, "w"), b"newest"))
    state.update(TaggedValue(Tag(2, "w"), b"older"))
    assert state.local.value == b"newest"


def test_read_ignores_unhashable_byzantine_payload():
    op = BSRReadOperation("r000", SERVERS, F)
    op.start()
    op.on_reply(SERVERS[0], data_reply(op, Tag(1, "w"), [1, 2, 3]))  # unhashable
    tag = Tag(1, "w000")
    for sid in SERVERS[1:4]:
        op.on_reply(sid, data_reply(op, tag, b"good"))
    assert op.done and op.result == b"good"


def test_read_ignores_malformed_tag():
    op = BSRReadOperation("r000", SERVERS, F)
    op.start()
    op.on_reply(SERVERS[0], data_reply(op, "garbage-tag", b"x"))
    assert len(op._replies) == 0


# -- conditional reads (extension) ---------------------------------------------

def test_server_elides_only_when_its_newest_tag_is_the_named_one():
    server = BSRServer("s000", max_history=None)
    older, newest = Tag(1, "w000"), Tag(2, "w001")
    server.handle("w000", PutData(op_id=1, tag=older, payload=b"old"))
    server.handle("w001", PutData(op_id=2, tag=newest, payload=b"new"))
    [(dest, held)] = server.handle("r000", QueryDataHeld(op_id=3, tag=newest))
    assert dest == "r000" and held == DataHeld(op_id=3)
    # Stored but not newest, never stored, or not named: the full pair.
    for query in (QueryDataHeld(op_id=4, tag=older),
                  QueryDataHeld(op_id=5, tag=Tag(3, "w000")),
                  QueryDataHeld(op_id=6, tag=Tag(2, "w000")),
                  QueryData(op_id=7)):
        [(_, reply)] = server.handle("r000", query)
        assert reply == DataReply(op_id=query.op_id, tag=newest,
                                  payload=b"new")


def serve(servers, envelopes):
    """Deliver ``envelopes`` to ``servers`` -> ``[(server, reply)]``."""
    return [(dest, reply) for dest, message in envelopes
            for _, reply in servers[dest].handle("r000", message)]


def write_everywhere(servers, tag, value):
    for server in servers.values():
        server.handle(tag.writer, PutData(op_id=0, tag=tag, payload=value))


def read_from(servers, state):
    """One read against every server; replies fed in server order."""
    op = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    replies = serve(servers, op.start())
    for sender, reply in replies:
        op.on_reply(sender, reply)
    assert op.done
    return op, [reply for _, reply in replies]


def test_a_read_of_an_unchanged_key_returns_the_value_with_held_replies():
    servers = {sid: BSRServer(sid, max_history=1) for sid in SERVERS}
    state = BSRReaderState(b"v0")
    tag = Tag(1, "w000")
    write_everywhere(servers, tag, b"value")
    first, replies = read_from(servers, state)
    assert first.result == b"value"
    assert all(type(r) is DataReply for r in replies)  # named no pair yet
    assert state.take_held() == 0
    second, replies = read_from(servers, state)
    assert all(type(r) is DataHeld for r in replies)
    assert second.result == b"value" and second.result_tag == tag
    assert state.take_held() == len(SERVERS) - F  # the quorum, no more
    assert state.take_held() == 0


def test_a_read_after_a_write_gets_full_replies():
    servers = {sid: BSRServer(sid, max_history=1) for sid in SERVERS}
    state = BSRReaderState(b"v0")
    write_everywhere(servers, Tag(1, "w000"), b"first")
    read_from(servers, state)
    newer = Tag(2, "w001")
    write_everywhere(servers, newer, b"second")
    op, replies = read_from(servers, state)
    assert replies == [DataReply(op_id=op.op_id, tag=newer, payload=b"second")
                       ] * len(SERVERS)
    assert op.result == b"second" and state.take_held() == 0


def test_held_replies_need_a_named_pair_and_count_once_per_server():
    state = BSRReaderState(b"v0")
    fresh = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    # TAG_ZERO names nothing.
    assert all(type(query) is QueryData for _, query in fresh.start())
    for sid in SERVERS:
        fresh.on_reply(sid, DataHeld(op_id=fresh.op_id))
    assert not fresh.done  # a DataHeld to an unnamed query means nothing
    state.update(TaggedValue(Tag(4, "w000"), b"kept"))
    op = BSRReadOperation("r000", SERVERS, F, reader_state=state)
    assert all(q == QueryDataHeld(op_id=op.op_id, tag=Tag(4, "w000"))
               for _, q in op.start())
    for _ in range(3):
        op.on_reply(SERVERS[0], DataHeld(op_id=op.op_id))
    op.on_reply(SERVERS[1], DataHeld(op_id=op.op_id + 1))  # someone else's
    assert len(op._replies) == 1
    for sid in SERVERS[1:4]:
        op.on_reply(sid, DataHeld(op_id=op.op_id))
    assert op.done and op.result == b"kept"
    assert state.take_held() == 4


def test_an_overlapping_read_substitutes_the_pair_it_captured():
    """Two reads of one register by one reader overlap; the later one
    finishes first and moves ``local`` on.  The earlier one's DataHeld
    replies still stand for the pair *its* query named."""
    servers = {sid: BSRServer(sid, max_history=1) for sid in SERVERS}
    state = BSRReaderState(b"v0")
    old, new = Tag(1, "w000"), Tag(2, "w001")
    write_everywhere(servers, old, b"old")
    read_from(servers, state)
    assert state.local == TaggedValue(old, b"old")

    earlier = BSRReadOperation("r000", SERVERS, F, reader_state=state,
                               repair=True)
    held = serve(servers, earlier.start())  # answered before the write
    write_everywhere(servers, new, b"new")
    later, _ = read_from(servers, state)
    assert later.result == b"new"
    assert state.local == TaggedValue(new, b"new")

    follow_ups = []
    for sender, reply in held:
        assert type(reply) is DataHeld
        follow_ups += earlier.on_reply(sender, reply)
    assert earlier.done
    # Four witnesses of the captured pair, never of the live one: the
    # repair pushes back what the servers vouched for.
    assert {(m.tag, m.payload) for _, m in follow_ups} == {(old, b"old")}
    assert earlier.result == b"new"  # the reader never goes back
