"""The wire codec: exact round-trips, cached paths, sizes, fuzz, garbage.

The codec is only acceptable if it is *exact at the object level*: for
every registered message type and every payload shape the protocols
emit, ``decode(encode(m))`` must equal ``m`` -- through the plain entry
points and through the caching encoder/decoder the runtime uses.  These
tests enumerate the full registry with representative instances, fuzz
the value space with hypothesis, and confirm malformed inputs die with
``ProtocolError`` rather than arbitrary exceptions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    BaseMessage,
    DataReply,
    HealthAck,
    HealthPing,
    HistoryReply,
    MprEcho,
    MprWrite,
    PushData,
    PutAck,
    PutData,
    QueryData,
    QueryHistory,
    QueryTag,
    QueryTagHistory,
    QueryValue,
    RBEcho,
    RBReady,
    RBSend,
    Rb2Send,
    Rb2Witness,
    StatsAck,
    StatsPing,
    TagHistoryReply,
    TagReply,
    Throttled,
    TraceAck,
    TraceDump,
    ValueReply,
)
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import ProtocolError
from repro.transport.codec2 import (
    MAGIC_V2,
    MESSAGE_TYPES,
    CachedDecoder,
    CachedEncoder,
    decode_message_v2,
    encode_message_v2,
)

TAG = Tag(7, "w001")

#: One representative instance per registered message type.  The test
#: below asserts this map covers the registry exactly, so adding a new
#: message type without extending the suite fails loudly.
SAMPLES = {
    "BaseMessage": BaseMessage(op_id=0),
    "QueryTag": QueryTag(op_id=1),
    "TagReply": TagReply(op_id=2, tag=TAG),
    "PutData": PutData(op_id=3, tag=TAG, payload=b"value"),
    "PutAck": PutAck(op_id=4, tag=TAG),
    "QueryData": QueryData(op_id=5),
    "DataReply": DataReply(op_id=6, tag=TAG,
                           payload=CodedElement(2, b"\x00\xff coded")),
    "QueryHistory": QueryHistory(op_id=7),
    "HistoryReply": HistoryReply(op_id=8, history=(
        TaggedValue(Tag(0, ""), b""), TaggedValue(TAG, b"v2"))),
    "QueryTagHistory": QueryTagHistory(op_id=9),
    "TagHistoryReply": TagHistoryReply(op_id=10, tags=(Tag(0, ""), TAG)),
    "QueryValue": QueryValue(op_id=11, tag=TAG),
    "ValueReply": ValueReply(op_id=12, tag=TAG, payload=None),
    "RBSend": RBSend(op_id=13, tag=TAG, payload=b"rb", source="w001"),
    "RBEcho": RBEcho(op_id=14, tag=TAG, payload=b"rb", source="s000"),
    "RBReady": RBReady(op_id=15, tag=TAG, payload=None, source="s001"),
    "Rb2Send": Rb2Send(op_id=25, tag=TAG, payload=b"ir2", source="w002"),
    "Rb2Witness": Rb2Witness(op_id=26, tag=TAG, payload=b"ir2",
                             source="w002"),
    "MprWrite": MprWrite(op_id=27, tag=TAG, payload=b"mpr", source="w003"),
    "MprEcho": MprEcho(op_id=28, tag=TAG, payload=None, source="w003"),
    "PushData": PushData(op_id=16, tag=TAG, payload=b"push"),
    "HealthPing": HealthPing(op_id=17),
    "HealthAck": HealthAck(op_id=18, node_id="s000", history_len=3,
                           frames=100, throttled=2, snapshot_age=1.5),
    "StatsPing": StatsPing(op_id=19),
    "StatsAck": StatsAck(op_id=20, node_id="s001", metrics={
        "counters": [{"name": "frames", "labels": {"node": "s001"},
                      "value": 41.0}],
        "histograms": [],
    }),
    "Throttled": Throttled(op_id=21, retry_after=0.25, dropped="PutData"),
    # records must be a tuple: the codec restores top-level lists to
    # tuples, and the roundtrip asserts decoded == original.
    "TraceDump": TraceDump(op_id=23, target_op=128, limit=16),
    "TraceAck": TraceAck(op_id=24, node_id="s002", records=(
        {"op_id": 128, "node": "s002", "phase": "get-data", "recv": 12.5,
         "queue_wait": 0.001, "service": 0.002, "verdict": "served",
         "repeat": False},), total=5),
    "NamespacedMessage": NamespacedMessage(
        register="accounts/7", inner=PutData(op_id=22, tag=TAG, payload=b"x")),
}


def test_samples_cover_the_whole_registry():
    assert set(SAMPLES) == set(MESSAGE_TYPES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_differential_roundtrip(name):
    """Plain and cached codec paths agree on every registered type."""
    message = SAMPLES[name]
    blob = encode_message_v2(message)
    assert blob[0] == MAGIC_V2
    assert decode_message_v2(blob) == message
    encode, decode = CachedEncoder(), CachedDecoder()
    # Twice each: the first call learns the template, the second hits it.
    for _ in range(2):
        assert encode(message) == blob
        assert decode(blob) == message


#: Encoded bytes of each sample.  ``wire_bytes_per_op`` is a benchmarked
#: metric, so a type growing on the wire must be a deliberate edit here.
ENCODED_SIZES = {
    "BaseMessage": 5, "DataReply": 23, "HealthAck": 32, "HealthPing": 5,
    "HistoryReply": 23, "MprEcho": 19, "MprWrite": 23,
    "NamespacedMessage": 31, "PushData": 18, "PutAck": 12, "PutData": 19,
    "QueryData": 5, "QueryHistory": 5, "QueryTag": 5, "QueryTagHistory": 5,
    "QueryValue": 12, "RBEcho": 22, "RBReady": 19, "RBSend": 22,
    "Rb2Send": 23, "Rb2Witness": 23, "StatsAck": 93, "StatsPing": 5,
    "TagHistoryReply": 17, "TagReply": 12, "Throttled": 23, "TraceAck": 136,
    "TraceDump": 10, "ValueReply": 13,
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_v2_is_smaller_or_equal(name):
    """No registered type encodes larger than its recorded size."""
    assert len(encode_message_v2(SAMPLES[name])) <= ENCODED_SIZES[name]


def test_decode_accepts_memoryview():
    message = PutData(op_id=1, tag=TAG, payload=b"\x00\x01\xfe\xff")
    blob = encode_message_v2(message)
    assert decode_message_v2(memoryview(blob)) == message
    assert decode_message_v2(memoryview(bytearray(blob))) == message


def test_empty_and_large_bytes_payloads():
    for payload in (b"", b"\x00" * 100, bytes(range(256)) * 4096):
        message = PutData(op_id=9, tag=TAG, payload=payload)
        decoded = decode_message_v2(encode_message_v2(message))
        assert decoded == message
        assert isinstance(decoded.payload, bytes)


def test_deeply_nested_namespaced_message():
    inner = DataReply(op_id=4, tag=TAG, payload=b"deep")
    wrapped = NamespacedMessage(
        register="outer",
        inner=NamespacedMessage(register="inner", inner=inner))
    assert decode_message_v2(encode_message_v2(wrapped)) == wrapped


def test_extreme_integers_and_floats():
    message = HealthAck(op_id=2**63, node_id="s000",
                        history_len=-12345, frames=0, throttled=2**40,
                        snapshot_age=-1.0)
    assert decode_message_v2(encode_message_v2(message)) == message
    inf = Throttled(op_id=0, retry_after=float("inf"), dropped="")
    assert decode_message_v2(encode_message_v2(inf)) == inf


def test_tuples_survive_as_tuples():
    message = TagHistoryReply(op_id=1, tags=(TAG, Tag(8, "w002")))
    decoded = decode_message_v2(encode_message_v2(message))
    assert isinstance(decoded.tags, tuple)
    assert decoded == message


@pytest.mark.parametrize("blob", [
    b"",                                  # nothing
    b"\xb2",                              # magic only
    b"\xb2\xff",                          # unterminated type-id varint
    b"\xb2\xf0\x01",                      # unknown type id
    b"\xb2\x00",                          # type ok, missing field count
    b"\xb2\x00\x05",                      # wrong field count
    encode_message_v2(QueryTag(op_id=1))[:-1],   # truncated last field
    encode_message_v2(QueryTag(op_id=1)) + b"!",  # trailing bytes
    b"\xb2" + b"\xff" * 32,               # varint bomb
])
def test_garbage_raises_protocol_error(blob):
    with pytest.raises(ProtocolError):
        decode_message_v2(blob)
    with pytest.raises(ProtocolError):
        CachedDecoder()(blob)


def test_unknown_value_tag_raises():
    good = encode_message_v2(TagReply(op_id=1, tag=TAG))
    # Clobber the first field's value tag with an unassigned byte.
    bad = bytearray(good)
    bad[3] = 0x7E
    with pytest.raises(ProtocolError):
        decode_message_v2(bytes(bad))


def test_unregistered_type_rejected_at_encode():
    with pytest.raises(ProtocolError):
        encode_message_v2(object())
    with pytest.raises(ProtocolError):
        encode_message_v2(Tag(1, "w"))   # a value, not a message


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_fuzz_arbitrary_bytes_never_crash(noise):
    """Random (non-)payloads die with ProtocolError, nothing else."""
    try:
        decode_message_v2(b"\xb2" + noise)
    except ProtocolError:
        pass


op_ids = st.integers(min_value=0, max_value=2**62)
writers = st.text(alphabet="abcdefw0123456789", min_size=0, max_size=8)
tags = st.builds(Tag, st.integers(min_value=0, max_value=2**31), writers)
payloads = st.one_of(
    st.none(),
    st.binary(max_size=300),
    st.builds(CodedElement, st.integers(min_value=0, max_value=254),
              st.binary(max_size=100)),
)
tagged_values = st.builds(TaggedValue, tags, st.binary(max_size=64))

fuzz_messages = st.one_of(
    st.builds(PutData, op_id=op_ids, tag=tags, payload=payloads),
    st.builds(DataReply, op_id=op_ids, tag=tags, payload=payloads),
    st.builds(HistoryReply, op_id=op_ids,
              history=st.lists(tagged_values, max_size=5).map(tuple)),
    st.builds(TagHistoryReply, op_id=op_ids,
              tags=st.lists(tags, max_size=8).map(tuple)),
    st.builds(Throttled, op_id=op_ids,
              retry_after=st.floats(allow_nan=False), dropped=writers),
)


@settings(max_examples=200, deadline=None)
@given(fuzz_messages)
def test_fuzz_differential_equivalence(message):
    """Random messages: plain and cached paths yield the identical object."""
    blob = encode_message_v2(message)
    assert decode_message_v2(blob) == message
    assert CachedEncoder()(message) == blob
    assert CachedDecoder()(blob) == message


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcxyz.-_/0123456789", min_size=1, max_size=32),
       fuzz_messages)
def test_fuzz_namespaced(register, message):
    wrapped = NamespacedMessage(register=register, inner=message)
    assert decode_message_v2(encode_message_v2(wrapped)) == wrapped
