"""Unit tests for message serialization."""

import pytest

from repro.core.messages import (
    DataReply,
    HistoryReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    QueryTagHistory,
    QueryValue,
    RBSend,
    TagHistoryReply,
    TagReply,
    ValueReply,
)
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import ProtocolError
from repro.transport.codec2 import (
    MESSAGE_TYPES,
    decode_message_v2,
    encode_message_v2,
)

ROUNDTRIP_MESSAGES = [
    QueryTag(op_id=1),
    QueryData(op_id=2),
    QueryTagHistory(op_id=3),
    TagReply(op_id=4, tag=Tag(7, "w001")),
    TagReply(op_id=4, tag=TAG_ZERO),
    PutData(op_id=5, tag=Tag(1, "w000"), payload=b"\x00\x01binary\xff"),
    PutData(op_id=5, tag=Tag(1, "w000"), payload=CodedElement(3, b"\x01\x02")),
    PutAck(op_id=6, tag=Tag(1, "w000")),
    DataReply(op_id=7, tag=Tag(2, "w001"), payload=b"value"),
    DataReply(op_id=7, tag=Tag(2, "w001"), payload=CodedElement(0, b"")),
    HistoryReply(op_id=8, history=(
        TaggedValue(TAG_ZERO, b""),
        TaggedValue(Tag(1, "w000"), b"v1"),
    )),
    TagHistoryReply(op_id=9, tags=(TAG_ZERO, Tag(1, "w"), Tag(2, "w"))),
    QueryValue(op_id=10, tag=Tag(1, "w")),
    ValueReply(op_id=11, tag=Tag(1, "w"), payload=None),
    ValueReply(op_id=11, tag=Tag(1, "w"), payload=b"x"),
    RBSend(op_id=12, tag=Tag(1, "w"), payload=b"v", source="w000"),
]


@pytest.mark.parametrize("message", ROUNDTRIP_MESSAGES,
                         ids=lambda m: f"{type(m).__name__}-{m.op_id}")
def test_roundtrip(message):
    assert decode_message_v2(encode_message_v2(message)) == message


def test_registry_covers_all_message_classes():
    assert "QueryTag" in MESSAGE_TYPES
    assert "HistoryReply" in MESSAGE_TYPES
    assert "PushData" in MESSAGE_TYPES


def test_encode_rejects_unregistered_types():
    with pytest.raises(ProtocolError):
        encode_message_v2("not a message")


def test_encode_rejects_unserializable_payload():
    message = PutData(op_id=1, tag=Tag(1, "w"), payload=object())
    with pytest.raises(ProtocolError):
        encode_message_v2(message)


def test_decode_rejects_garbage():
    """Anything but a v2 payload is refused, and the error says what came."""
    with pytest.raises(ProtocolError, match=r"first byte 0x6e"):
        decode_message_v2(b"not binary at all")
    with pytest.raises(ProtocolError,
                       match=r"not a v2 payload \(first byte 0x7b\)"):
        decode_message_v2(b'{"type":"QueryTag","fields":{"op_id":1}}')
    with pytest.raises(ProtocolError, match="empty payload"):
        decode_message_v2(b"")
    with pytest.raises(ProtocolError, match="empty payload"):
        decode_message_v2(memoryview(b""))


def test_decoded_history_is_tuple():
    message = HistoryReply(op_id=1, history=(TaggedValue(TAG_ZERO, b"a"),))
    decoded = decode_message_v2(encode_message_v2(message))
    assert isinstance(decoded.history, tuple)
    assert decoded == message


def test_large_binary_payload_roundtrips():
    payload = bytes(range(256)) * 100
    message = PutData(op_id=1, tag=Tag(1, "w"), payload=payload)
    assert decode_message_v2(encode_message_v2(message)).payload == payload
