"""Unit tests for the BCSR server and coded client operations."""

import pytest

from repro.core.bcsr import (
    BCSRReadOperation,
    BCSRServer,
    coded_write,
    make_codec,
)
from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    TagReply,
)
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.striping import CodedElement
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
