"""Unit tests for the ABD crash-tolerant baseline."""

import pytest

from repro.baselines.abd import ABDReadOperation
from repro.core.messages import DataReply, PutAck, PutData, QueryTag, TagReply
from repro.core.tags import TAG_ZERO, Tag
from repro.errors import QuorumError
from repro.protocols.fleet import Fleet

SERVERS = [f"s{i:03d}" for i in range(3)]  # n=3, f=1
F = 1


def test_config_validation():
    # Checked once per deployment, when its fleet is built.
    assert Fleet.build("abd", f=1, n=3).n == 3
    with pytest.raises(QuorumError):
        Fleet.build("abd", f=1, n=2)


def abd_write(value):
    """An ABD write, as a deployment builds it."""
    return Fleet.build("abd", f=F).write_op("w000", value)[1]


def test_write_uses_plain_max_tag():
    op = abd_write(b"v")
    op.start()
    op.on_reply(SERVERS[0], TagReply(op_id=op.op_id, tag=Tag(4, "w9")))
    out = op.on_reply(SERVERS[1], TagReply(op_id=op.op_id, tag=Tag(2, "w3")))
    # crash model: max (not (f+1)-th highest) -> 4 + 1
    assert out[0][1].tag == Tag(5, "w000")


def test_write_completes_on_majority_acks():
    op = abd_write(b"v")
    op.start()
    for sid in SERVERS[:2]:
        op.on_reply(sid, TagReply(op_id=op.op_id, tag=TAG_ZERO))
    for sid in SERVERS[:2]:
        op.on_reply(sid, PutAck(op_id=op.op_id, tag=Tag(1, "w000")))
    assert op.done and op.rounds == 2


def test_read_writes_back_before_returning():
    op = ABDReadOperation("r000", SERVERS, F)
    op.start()
    tag = Tag(3, "w001")
    op.on_reply(SERVERS[0], DataReply(op_id=op.op_id, tag=tag, payload=b"x"))
    out = op.on_reply(SERVERS[1], DataReply(op_id=op.op_id, tag=TAG_ZERO,
                                            payload=b""))
    # phase 2: write-back of the max pair
    assert all(isinstance(m, PutData) and m.tag == tag for _, m in out)
    assert not op.done
    for sid in SERVERS[:2]:
        op.on_reply(sid, PutAck(op_id=op.op_id, tag=tag))
    assert op.done and op.result == b"x" and op.rounds == 2


def test_abd_server_is_a_bsr_server():
    # ABD differs from BSR only on the client side: its spec builds the
    # plain BSR server, with no class of its own.
    from repro.core.bsr import BSRServer
    from repro.protocols.fleet import Fleet
    assert type(Fleet.build("abd", f=F).server("s000")) is BSRServer


def test_read_ignores_acks_for_other_tags():
    op = ABDReadOperation("r000", SERVERS, F)
    op.start()
    tag = Tag(1, "w000")
    for sid in SERVERS[:2]:
        op.on_reply(sid, DataReply(op_id=op.op_id, tag=tag, payload=b"v"))
    op.on_reply(SERVERS[0], PutAck(op_id=op.op_id, tag=Tag(9, "zz")))
    assert not op.done
