"""Property-based codec tests: random messages must round-trip exactly."""

from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    DataReply,
    HistoryReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    QueryValue,
    TagHistoryReply,
    TagReply,
    ValueReply,
)
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec2 import decode_message_v2, encode_message_v2

op_ids = st.integers(min_value=0, max_value=2**31)
writers = st.text(alphabet="abcdefw0123456789", min_size=0, max_size=8)
tags = st.builds(Tag, st.integers(min_value=0, max_value=2**31), writers)
payloads = st.one_of(st.none(), st.binary(max_size=300),
                     st.builds(CodedElement,
                               st.integers(min_value=0, max_value=254),
                               st.binary(max_size=100)))
tagged_values = st.builds(TaggedValue, tags, st.binary(max_size=64))

messages = st.one_of(
    st.builds(QueryTag, op_id=op_ids),
    st.builds(QueryData, op_id=op_ids),
    st.builds(TagReply, op_id=op_ids, tag=tags),
    st.builds(PutData, op_id=op_ids, tag=tags, payload=payloads),
    st.builds(PutAck, op_id=op_ids, tag=tags),
    st.builds(DataReply, op_id=op_ids, tag=tags, payload=payloads),
    st.builds(QueryValue, op_id=op_ids, tag=tags),
    st.builds(ValueReply, op_id=op_ids, tag=tags, payload=payloads),
    st.builds(HistoryReply, op_id=op_ids,
              history=st.lists(tagged_values, max_size=5).map(tuple)),
    st.builds(TagHistoryReply, op_id=op_ids,
              tags=st.lists(tags, max_size=8).map(tuple)),
)


@settings(max_examples=150, deadline=None)
@given(messages)
def test_any_message_roundtrips(message):
    assert decode_message_v2(encode_message_v2(message)) == message


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcxyz.-_/0123456789", min_size=1, max_size=32),
       messages)
def test_namespaced_messages_roundtrip(register, message):
    wrapped = NamespacedMessage(register=register, inner=message)
    assert decode_message_v2(encode_message_v2(wrapped)) == wrapped


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=500),
       st.text(alphabet="rws0123456789", min_size=1, max_size=10))
def test_sealed_envelopes_roundtrip(payload, sender):
    auth = Authenticator(KeyChain.from_secret(b"prop-secret"))
    assert auth.open(auth.seal(sender, payload)) == (sender, payload)
