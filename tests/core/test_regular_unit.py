"""Unit tests for the regular-register extensions (Section III-C)."""

import pytest

from repro.core.bsr import BSRReaderState
from repro.core.messages import (
    HistoryReply,
    PutData,
    QueryHistory,
    QueryHistoryAbove,
    QueryTagHistory,
    QueryValue,
    TagHistoryReply,
    ValueReply,
)
from repro.core.regular import (
    HistoryReadOperation,
    RegularBSRServer,
    TwoRoundReadOperation,
)
from repro.core.tags import TAG_ZERO, Tag, TaggedValue

SERVERS = [f"s{i:03d}" for i in range(5)]
F = 1


def loaded_server(pid="s000"):
    server = RegularBSRServer(pid, initial_value=b"v0")
    server.handle("w000", PutData(op_id=1, tag=Tag(1, "w000"), payload=b"v1"))
    server.handle("w001", PutData(op_id=2, tag=Tag(2, "w001"), payload=b"v2"))
    return server


# -- server extensions --------------------------------------------------------

def test_query_history_returns_whole_list():
    server = loaded_server()
    [(_, reply)] = server.handle("r000", QueryHistory(op_id=5))
    assert isinstance(reply, HistoryReply)
    assert [pair.value for pair in reply.history] == [b"v0", b"v1", b"v2"]


def test_query_tag_history_returns_all_tags():
    server = loaded_server()
    [(_, reply)] = server.handle("r000", QueryTagHistory(op_id=5))
    assert reply.tags == (TAG_ZERO, Tag(1, "w000"), Tag(2, "w001"))


def test_query_value_known_tag():
    server = loaded_server()
    [(_, reply)] = server.handle("r000", QueryValue(op_id=5, tag=Tag(1, "w000")))
    assert isinstance(reply, ValueReply)
    assert reply.payload == b"v1"


def test_query_value_unknown_tag_returns_none_payload():
    server = loaded_server()
    [(_, reply)] = server.handle("r000", QueryValue(op_id=5, tag=Tag(9, "zz")))
    assert reply.payload is None


def test_regular_server_still_answers_plain_bsr():
    from repro.core.messages import QueryData
    server = loaded_server()
    [(_, reply)] = server.handle("r000", QueryData(op_id=5))
    assert reply.payload == b"v2"


# -- history reads ----------------------------------------------------------------

def history_reply(op, pairs):
    return HistoryReply(op_id=op.op_id, history=tuple(pairs))


def test_history_read_witnesses_across_histories():
    op = HistoryReadOperation("r000", SERVERS, F)
    op.start()
    shared = TaggedValue(Tag(1, "w000"), b"v1")
    # Each server has a different latest value but all share (1, v1).
    for i, sid in enumerate(SERVERS[:4]):
        unique = TaggedValue(Tag(2, f"w{i}"), f"x{i}".encode())
        op.on_reply(sid, history_reply(op, [shared, unique]))
    assert op.done
    assert op.result == b"v1"  # the only pair with >= f+1 witnesses


def test_history_read_prefers_highest_witnessed_pair():
    op = HistoryReadOperation("r000", SERVERS, F)
    op.start()
    old = TaggedValue(Tag(1, "w000"), b"old")
    new = TaggedValue(Tag(2, "w001"), b"new")
    for sid in SERVERS[:2]:
        op.on_reply(sid, history_reply(op, [old, new]))
    for sid in SERVERS[2:4]:
        op.on_reply(sid, history_reply(op, [old]))
    assert op.result == b"new"


def test_history_read_duplicate_pairs_in_one_history_count_once():
    op = HistoryReadOperation("r000", SERVERS, F)
    op.start()
    pair = TaggedValue(Tag(1, "w000"), b"dup")
    # One server repeating a pair must not fabricate a second witness.
    op.on_reply(SERVERS[0], history_reply(op, [pair, pair, pair]))
    for i, sid in enumerate(SERVERS[1:4]):
        op.on_reply(sid, history_reply(op, [TaggedValue(Tag(3, f"w{i}"),
                                                        f"u{i}".encode())]))
    assert op.done
    assert op.result == b""  # nothing reached f+1 witnesses


def test_history_read_ignores_junk_entries():
    op = HistoryReadOperation("r000", SERVERS, F)
    op.start()
    good = TaggedValue(Tag(1, "w000"), b"ok")
    op.on_reply(SERVERS[0], history_reply(op, ["junk", good]))
    op.on_reply(SERVERS[1], history_reply(op, [good]))
    op.on_reply(SERVERS[2], history_reply(op, []))
    op.on_reply(SERVERS[3], history_reply(op, []))
    assert op.result == b"ok"


def test_query_history_above_returns_only_newer_pairs():
    server = loaded_server()
    for above, values in ((TAG_ZERO, [b"v1", b"v2"]),
                          (Tag(1, "w000"), [b"v2"]), (Tag(2, "w001"), []),
                          (Tag(9, "w000"), [])):
        [(_, reply)] = server.handle("r000",
                                     QueryHistoryAbove(op_id=5, tag=above))
        assert [pair.value for pair in reply.history] == values
    # A malformed tag names nothing: the whole list.
    [(_, reply)] = server.handle("r000", QueryHistoryAbove(op_id=6, tag=None))
    assert len(reply.history) == 3


def test_a_history_reader_holding_a_pair_asks_only_above_it():
    servers = [loaded_server(sid) for sid in SERVERS]
    state = BSRReaderState(b"v0")
    for expect_query, held in ((QueryHistory, 0), (QueryHistoryAbove, 4)):
        op = HistoryReadOperation("r000", SERVERS, F, reader_state=state)
        [(_, query)] = op.start()[:1]
        assert type(query) is expect_query
        for server, sid in zip(servers, SERVERS[:4]):
            [(_, reply)] = server.handle("r000", query)
            op.on_reply(sid, reply)
        assert op.result == b"v2" and state.take_held() == held
        assert state.local.tag == Tag(2, "w001")


@pytest.mark.parametrize("junk", [None, 7])
def test_a_reply_list_of_the_wrong_type_is_junk_from_that_server(junk):
    """One Byzantine server's non-list field costs its own reply only."""
    good = TaggedValue(Tag(1, "w000"), b"ok")
    op = HistoryReadOperation("r000", SERVERS, F)
    op.start()
    op.on_reply(SERVERS[0], HistoryReply(op_id=op.op_id, history=junk))
    for sid in SERVERS[1:4]:
        op.on_reply(sid, history_reply(op, [good]))
    assert op.result == b"ok"
    op = TwoRoundReadOperation("r000", SERVERS, F)
    op.start()
    op.on_reply(SERVERS[0], TagHistoryReply(op_id=op.op_id, tags=junk))
    for sid in SERVERS[1:4]:
        op.on_reply(sid, TagHistoryReply(op_id=op.op_id,
                                         tags=(TAG_ZERO, good.tag)))
    assert op._target == good.tag


# -- two-round reads -----------------------------------------------------------------

def tag_history(op, tags):
    return TagHistoryReply(op_id=op.op_id, tags=tuple(tags))


def test_two_round_read_happy_path():
    op = TwoRoundReadOperation("r000", SERVERS, F)
    round1 = op.start()
    assert all(isinstance(m, QueryTagHistory) for _, m in round1)
    target = Tag(2, "w001")
    for sid in SERVERS[:3]:
        out = op.on_reply(sid, tag_history(op, [TAG_ZERO, Tag(1, "w000"), target]))
    out = op.on_reply(SERVERS[3], tag_history(op, [TAG_ZERO, Tag(1, "w000"), target]))
    # Round 2 queries the highest tag with >= 2f+1 witnesses.
    assert all(isinstance(m, QueryValue) and m.tag == target for _, m in out)
    assert op.rounds == 2
    op.on_reply(SERVERS[0], ValueReply(op_id=op.op_id, tag=target, payload=b"v2"))
    assert not op.done  # one matching reply is not enough
    op.on_reply(SERVERS[1], ValueReply(op_id=op.op_id, tag=target, payload=b"v2"))
    assert op.done and op.result == b"v2"


def test_two_round_read_needs_2f_plus_1_tag_witnesses():
    op = TwoRoundReadOperation("r000", SERVERS, F)
    op.start()
    rare = Tag(7, "wx")  # appears at only 2 servers (< 2f+1 = 3)
    op.on_reply(SERVERS[0], tag_history(op, [TAG_ZERO, rare]))
    op.on_reply(SERVERS[1], tag_history(op, [TAG_ZERO, rare]))
    op.on_reply(SERVERS[2], tag_history(op, [TAG_ZERO]))
    out = op.on_reply(SERVERS[3], tag_history(op, [TAG_ZERO]))
    # Falls back to TAG_ZERO, which every correct server can serve.
    assert all(m.tag == TAG_ZERO for _, m in out)


def test_two_round_read_mismatched_values_do_not_complete():
    op = TwoRoundReadOperation("r000", SERVERS, F)
    op.start()
    target = Tag(1, "w000")
    for sid in SERVERS[:4]:
        op.on_reply(sid, tag_history(op, [TAG_ZERO, target]))
    op.on_reply(SERVERS[0], ValueReply(op_id=op.op_id, tag=target, payload=b"a"))
    op.on_reply(SERVERS[1], ValueReply(op_id=op.op_id, tag=target, payload=b"b"))
    assert not op.done
    op.on_reply(SERVERS[2], ValueReply(op_id=op.op_id, tag=target, payload=b"a"))
    assert op.done and op.result == b"a"


def test_two_round_read_ignores_none_payloads():
    op = TwoRoundReadOperation("r000", SERVERS, F)
    op.start()
    target = Tag(1, "w000")
    for sid in SERVERS[:4]:
        op.on_reply(sid, tag_history(op, [TAG_ZERO, target]))
    op.on_reply(SERVERS[0], ValueReply(op_id=op.op_id, tag=target, payload=None))
    op.on_reply(SERVERS[1], ValueReply(op_id=op.op_id, tag=target, payload=b"v"))
    op.on_reply(SERVERS[2], ValueReply(op_id=op.op_id, tag=target, payload=b"v"))
    assert op.done and op.result == b"v"


def test_two_round_read_duplicate_tags_per_server_count_once():
    op = TwoRoundReadOperation("r000", SERVERS, F)
    op.start()
    inflated = Tag(9, "byz")
    op.on_reply(SERVERS[0], tag_history(op, [inflated] * 10 + [TAG_ZERO]))
    for sid in SERVERS[1:4]:
        out = op.on_reply(sid, tag_history(op, [TAG_ZERO]))
    # inflated has only 1 witness; TAG_ZERO is the target.
    assert all(m.tag == TAG_ZERO for _, m in out)


def test_reader_state_shared_with_two_round_reads():
    state = BSRReaderState(b"v0")
    op = TwoRoundReadOperation("r000", SERVERS, F, reader_state=state)
    op.start()
    target = Tag(4, "w002")
    for sid in SERVERS[:4]:
        op.on_reply(sid, tag_history(op, [TAG_ZERO, target]))
    for sid in SERVERS[:2]:
        op.on_reply(sid, ValueReply(op_id=op.op_id, tag=target, payload=b"current"))
    assert state.local == TaggedValue(target, b"current")
