"""Unit tests for the BCSR server and coded client operations."""

import pytest

from repro.core.bcsr import (
    BCSRReadOperation,
    BCSRServer,
    coded_write,
    make_codec,
)
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
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.striping import CodedElement, DecodeMemo
from repro.errors import QuorumError
from repro.protocols.fleet import Fleet

N, F = 6, 1
SERVERS = [f"s{i:03d}" for i in range(N)]


@pytest.fixture
def codec():
    return make_codec(N, F)


def test_make_codec_dimension(codec):
    assert codec.n == N and codec.k == N - 5 * F


def test_server_requires_valid_index(codec):
    with pytest.raises(ValueError):
        BCSRServer("s009", 9, codec)


def test_server_initial_element_matches_initial_value(codec):
    value = b"init"
    elements = codec.encode(value)
    for i in range(N):
        server = BCSRServer(SERVERS[i], i, codec, initial_value=value)
        assert server.latest.value == elements[i]
        assert server.max_tag == TAG_ZERO


def test_server_stores_coded_elements(codec):
    server = BCSRServer("s000", 0, codec)
    element = codec.encode(b"hello")[0]
    tag = Tag(1, "w000")
    [(_, ack)] = server.handle("w000", PutData(op_id=1, tag=tag, payload=element))
    assert isinstance(ack, PutAck)
    assert server.latest.value == element
    assert server.storage_bytes() == len(element.data)


def test_server_data_reply_carries_element(codec):
    server = BCSRServer("s002", 2, codec)
    element = codec.encode(b"abc")[2]
    server.handle("w", PutData(op_id=1, tag=Tag(1, "w"), payload=element))
    [(_, reply)] = server.handle("r", QueryData(op_id=5))
    assert isinstance(reply, DataReply) and reply.payload == element


def test_write_requires_bcsr_bound_without_codec():
    # Checked once per deployment, when its fleet is built.
    with pytest.raises(QuorumError):
        Fleet.build("bcsr", f=F, n=5)


def test_write_rejects_non_bytes(codec):
    with pytest.raises(TypeError):
        coded_write("w000", SERVERS, F, "text", codec)


def test_write_sends_distinct_elements_per_server(codec):
    op = coded_write("w000", SERVERS, F, b"payload-value", codec)
    op.start()
    for sid in SERVERS[:N - F]:
        out = op.on_reply(sid, TagReply(op_id=op.op_id, tag=TAG_ZERO))
    puts = {dest: msg for dest, msg in out}
    assert len(puts) == N
    elements = codec.encode(b"payload-value")
    for i, sid in enumerate(SERVERS):
        assert puts[sid].payload == elements[i]
        assert puts[sid].tag == Tag(1, "w000")


def test_write_completes_after_quorum_acks(codec):
    op = coded_write("w000", SERVERS, F, b"v", codec)
    op.start()
    for sid in SERVERS[:N - F]:
        op.on_reply(sid, TagReply(op_id=op.op_id, tag=TAG_ZERO))
    for sid in SERVERS[:N - F]:
        op.on_reply(sid, PutAck(op_id=op.op_id, tag=Tag(1, "w000")))
    assert op.done and op.result == Tag(1, "w000") and op.rounds == 2


def _respond_with_elements(op, value, codec, server_subset, corrupt=()):
    elements = codec.encode(value)
    for sid in server_subset:
        index = SERVERS.index(sid)
        element = elements[index]
        if sid in corrupt:
            element = CodedElement(index, bytes(b ^ 0x55 for b in element.data))
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=Tag(1, "w000"),
                                   payload=element))


def test_read_decodes_clean_elements(codec):
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec)
    op.start()
    _respond_with_elements(op, b"decoded!", codec, SERVERS[:N - F])
    assert op.done and op.result == b"decoded!"
    assert op.rounds == 1


def test_read_corrects_up_to_2f_corrupted_elements(codec):
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec)
    op.start()
    _respond_with_elements(op, b"survives corruption", codec, SERVERS[:N - F],
                           corrupt=set(SERVERS[:2 * F]))
    assert op.result == b"survives corruption"


def test_read_falls_back_to_initial_value_when_undecodable(codec):
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec,
                           initial_value=b"v0")
    op.start()
    # Every server returns junk of mismatched stripes: undecodable.
    for i, sid in enumerate(SERVERS[:N - F]):
        junk = CodedElement(i, bytes([i]) * (i + 1))
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=Tag(1, "w"), payload=junk))
    assert op.done and op.result == b"v0"


def test_read_ignores_non_element_payloads(codec):
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec)
    op.start()
    op.on_reply(SERVERS[0], DataReply(op_id=op.op_id, tag=Tag(1, "w"),
                                      payload=b"not-an-element"))
    _respond_with_elements(op, b"fine", codec, SERVERS[1:N - F + 1])
    assert op.done and op.result == b"fine"


def test_read_rebinds_element_index_to_sender(codec):
    """A Byzantine server cannot claim another server's codeword position."""
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec)
    op.start()
    elements = codec.encode(b"position-bound")
    # s000 sends s003's element, claiming index 3; the reader must treat it
    # as position 0 (the sender's), making it merely one erroneous element.
    op.on_reply(SERVERS[0], DataReply(op_id=op.op_id, tag=Tag(1, "w"),
                                      payload=elements[3]))
    for sid in SERVERS[1:N - F]:
        index = SERVERS.index(sid)
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=Tag(1, "w"),
                                   payload=elements[index]))
    assert op.done and op.result == b"position-bound"


def test_roundtrip_large_value(codec):
    value = bytes(range(256)) * 8
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec)
    op.start()
    _respond_with_elements(op, value, codec, SERVERS[:N - F])
    assert op.result == value


# -- conditional reads: the reader names the version it decoded -------------

def _servers(codec, writes):
    """A correct server per position, each holding every ``(tag, value)``."""
    servers = {sid: BCSRServer(sid, i, codec, max_history=1)
               for i, sid in enumerate(SERVERS)}
    for num, (tag, value) in enumerate(writes):
        for i, (sid, server) in enumerate(servers.items()):
            server.handle("w000", PutData(op_id=num, tag=tag,
                                          payload=codec.encode(value)[i]))
    return servers


def _serve(servers, envelopes, only=SERVERS):
    """Each addressed server's reply to its query, for ``only`` of them."""
    return [(sid, reply) for sid, query in envelopes if sid in only
            for _, reply in servers[sid].handle("r000", query)]


def _read(codec, memo, servers, only=SERVERS[:N - F]):
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec,
                           reader_state=memo)
    envelopes = op.start()
    replies = _serve(servers, envelopes, only)
    for sid, reply in replies:
        op.on_reply(sid, reply)
    return op, envelopes, replies


def test_server_elides_only_on_its_newest_tag(codec):
    older, newest = Tag(1, "w000"), Tag(2, "w000")
    server = _servers(codec, [(older, b"one"), (newest, b"two")])["s002"]
    [(_, held)] = server.handle("r000", QueryDataHeld(op_id=3, tag=newest))
    assert held == DataHeld(op_id=3)
    for query in (QueryDataHeld(op_id=4, tag=older), QueryData(op_id=5),
                  QueryDataHeld(op_id=6, tag=Tag(3, "w000"))):
        [(_, reply)] = server.handle("r000", query)
        assert reply == DataReply(op_id=query.op_id, tag=newest,
                                  payload=codec.encode(b"two")[2])


def test_a_repeat_read_names_the_decoded_version_to_its_verifiers(codec):
    tag = Tag(1, "w000")
    servers = _servers(codec, [(tag, b"value")])
    memo = DecodeMemo()
    first, envelopes, replies = _read(codec, memo, servers)
    assert {type(q) for _, q in envelopes} == {QueryData}  # holds nothing
    assert first.result == b"value"
    # The n - f positions that sent a column under the decoded tag.
    assert memo.tag == tag and memo.named == frozenset(range(N - F))
    second, envelopes, replies = _read(codec, memo, servers)
    assert [type(q) for _, q in envelopes] == [QueryDataHeld] * (N - F) + [
        QueryData]  # the position it never heard from is asked in full
    assert {q.tag for _, q in envelopes[:N - F]} == {tag}
    assert all(type(reply) is DataHeld for _, reply in replies)
    assert second.done and second.result == b"value"
    assert memo.take_held() == N - F and memo.take_counts()[:2] == (1, 1)


def test_a_version_is_named_only_to_f_plus_1_positions_that_sent_it(codec):
    """Verified columns under other tags are not named: the column a
    DataHeld stands for must be one that server sent under that tag."""
    tag, odd = Tag(1, "w000"), Tag(9, "s004")
    servers = _servers(codec, [(tag, b"value")])
    elements = codec.encode(b"value")
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec,
                           reader_state=DecodeMemo())
    op.start()
    for i, sid in enumerate(SERVERS[:N - F]):
        # s004 sends its correct column under a tag of its own.
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=odd if i == 4 else tag,
                                   payload=elements[i]))
    assert op.result == b"value"
    assert op.reader_state.tag == tag
    assert op.reader_state.named == frozenset(range(4))
    # A tag fewer than f + 1 servers sent is never named.
    lone = DecodeMemo()
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec, reader_state=lone)
    op.start()
    for i, sid in enumerate(SERVERS[:N - F]):
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=Tag(i + 1, "w000"),
                                   payload=elements[i]))
    assert op.result == b"value" and lone.tag is None and not lone.named
    assert all(type(q) is QueryData for _, q in BCSRReadOperation(
        "r000", SERVERS, F, codec=codec, reader_state=lone).start())


def test_held_bcsr_replies_need_a_named_position_and_count_once(codec):
    tag = Tag(1, "w000")
    servers = _servers(codec, [(tag, b"value")])
    memo = DecodeMemo()
    _read(codec, memo, servers, only=SERVERS[1:])  # s000 never answered
    op = BCSRReadOperation("r000", SERVERS, F, codec=codec, reader_state=memo)
    op.start()
    op.on_reply(SERVERS[0], DataHeld(op_id=op.op_id))  # was not named
    for _ in range(3):
        op.on_reply(SERVERS[1], DataHeld(op_id=op.op_id))
    assert len(op._replies) == 1
    for sid in SERVERS[2:N]:
        op.on_reply(sid, DataHeld(op_id=op.op_id))
    assert op.done and op.result == b"value" and memo.take_held() == N - F


def test_an_overlapping_bcsr_read_substitutes_the_columns_it_captured(codec):
    """The later of two overlapping reads decodes a newer version first;
    the earlier one's DataHeld replies still stand for the columns *its*
    query named, so it returns the version those servers held."""
    old, new = Tag(1, "w000"), Tag(2, "w000")
    servers = _servers(codec, [(old, b"old")])
    memo = DecodeMemo()
    _read(codec, memo, servers)
    earlier = BCSRReadOperation("r000", SERVERS, F, codec=codec,
                                reader_state=memo)
    held = _serve(servers, earlier.start(), SERVERS[:N - F])
    assert all(type(reply) is DataHeld for _, reply in held)
    for i, server in enumerate(servers.values()):
        server.handle("w000", PutData(op_id=9, tag=new,
                                      payload=codec.encode(b"new")[i]))
    later, _, _ = _read(codec, memo, servers)
    assert later.result == b"new" and memo.tag == new
    for sid, reply in held:
        earlier.on_reply(sid, reply)
    assert earlier.done and earlier.result == b"old"
