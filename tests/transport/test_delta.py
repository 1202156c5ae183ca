"""Tail deltas: ``expand`` returns what ``shrink`` consumed, or says it cannot.

The property: whatever a frame-level channel does to the sealed frames
between a :class:`Shrinker` and an :class:`Expander` -- drop, duplicate,
reorder or truncate whole frames, the faults ``chaos/faults.py`` injects
while leaving the TCP stream up -- every payload the receiver hands on is
byte for byte one the sender was given, in the sender's order when the
channel keeps order, and anything else is a reported desync.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.faults import FaultKind
from repro.core.messages import DataReply, HistoryReply, TagReply
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import AuthenticationError, ProtocolError
from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec2 import _PREFIXES, MAGIC_V2, encode_message_v2
from repro.transport.delta import (
    DELTA_HEAD_MAX,
    DELTA_MAGIC,
    DELTA_MIN_BYTES,
    DeltaDesync,
    Expander,
    Shrinker,
)
from tests.transport.test_codec_property import messages

AUTH = Authenticator(KeyChain.from_secret(b"delta", ["s000"]))
SEAL = partial(AUTH.seal_frames, "s000")

#: A few bodies around the threshold; streams draw from this pool, so
#: tails repeat (shared) and change (unshared) within one stream.
BODIES = [bytes([seed]) * size for seed, size in
          ((1, 40), (2, 900), (3, 1000), (4, 1024), (5, 1100), (6, 3000),
           (7, 3000), (8, 22_000))]
#: op_id varints of 1 to 5 bytes.
OP_IDS = st.sampled_from([0, 5, 127, 128, 300, 16_383, 16_384, 2_097_151,
                          2_097_152, 268_435_455, 268_435_456, 2**31])
REGISTERS = st.one_of(st.none(), st.sampled_from(
    ["k", "users/42", "r" * 128, "tenant-7/" + "x" * 100]))


@st.composite
def payloads(draw):
    body = draw(st.sampled_from(BODIES))
    tag = Tag(len(body), "w000")  # one tag per body: tails repeat often
    element = draw(st.booleans())
    message = DataReply(op_id=draw(OP_IDS), tag=tag,
                        payload=CodedElement(2, body) if element else body)
    register = draw(REGISTERS)
    if register is not None:
        message = NamespacedMessage(register, message)
    return encode_message_v2(message)


#: What the channel does to each frame, in ``chaos/faults.py``'s words
#: (plus truncation, which the HMAC turns into a drop).
FATES = st.sampled_from([FaultKind.DELIVER] * 6 + [
    FaultKind.DROP, FaultKind.DUPLICATE, FaultKind.DELAY, "truncate"])


def through_channel(frames, fates):
    """Apply one fate per frame; DELAY swaps a frame behind its successor."""
    out, held = [], None
    for frame, fate in zip(frames, fates):
        if fate is FaultKind.DROP:
            continue
        if fate is FaultKind.DELAY and held is None:
            held = frame
            continue
        if fate == "truncate":
            frame = frame[:len(frame) // 2]
        out.extend([frame] * (2 if fate is FaultKind.DUPLICATE else 1))
        if held is not None:
            out.append(held)
            held = None
    if held is not None:
        out.append(held)
    return out


def receive(expander, frames):
    """What a reader hands on -> (payloads, whether it reported a desync)."""
    got = []
    for frame in frames:
        try:
            _, opened = AUTH.open_any(frame)
        except (AuthenticationError, ProtocolError):
            continue  # today's count-and-drop
        try:
            got.extend(bytes(p) for p in expander.expand(frame, opened))
        except DeltaDesync:
            return got, True  # the link is reset here; nothing follows
    return got, False


def is_subsequence(got, sent):
    remaining = iter(sent)
    return all(any(payload == other for other in remaining)
               for payload in got)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(payloads(), min_size=1, max_size=4),
                min_size=1, max_size=8),
       st.lists(FATES, min_size=64, max_size=64))
def test_expand_returns_exactly_what_shrink_consumed_or_a_desync(
        bursts, fates):
    shrinker, expander = Shrinker(SEAL), Expander()
    sent = [payload for burst in bursts for payload in burst]
    frames = [frame for burst in bursts for frame in shrinker.seal(burst)]
    assert len(frames) <= len(fates)
    got, desync = receive(expander, through_channel(frames, fates))
    originals = set(sent)
    assert all(payload in originals for payload in got)
    orderly = [f for f in fates[:len(frames)]
               if f in (FaultKind.DELAY, FaultKind.DUPLICATE)] == []
    if orderly:
        assert is_subsequence(got, sent)
    if all(f is FaultKind.DELIVER for f in fates[:len(frames)]):
        assert got == sent and not desync


@settings(max_examples=100, deadline=None)
@given(st.lists(payloads(), min_size=1, max_size=12))
def test_a_clean_channel_is_lossless_and_never_longer(stream):
    shrinker, expander = Shrinker(SEAL), Expander()
    for payload in stream:  # one burst per payload: every base alone
        frames = shrinker.seal([payload])
        got, desync = receive(expander, frames)
        assert got == [payload] and not desync
        assert sum(map(len, frames)) <= len(SEAL([payload])[0])


# -- unit cases ---------------------------------------------------------------

def element_reply(op_id, fill=b"e", size=22_000, tag=Tag(1, "w000")):
    return encode_message_v2(DataReply(
        op_id=op_id, tag=tag, payload=CodedElement(3, fill * size)))


def test_first_big_payload_goes_in_full_then_repeats_shrink_to_a_few_bytes():
    tallies = []
    shrinker, expander = Shrinker(SEAL, tallies.append), Expander()
    first = shrinker.seal([element_reply(1)])
    assert first == SEAL([element_reply(1)])  # a plain single envelope
    assert receive(expander, first) == ([element_reply(1)], False)
    # op_id varints of every width, the same body: all deltas.
    for op_id in (2, 200, 70_000, 3_000_000, 2**31):
        frames = shrinker.seal([element_reply(op_id)])
        assert sum(map(len, frames)) < 100
        assert receive(expander, frames) == ([element_reply(op_id)], False)
    assert tallies[0] == 0 and len(tallies) == 6
    assert all(saved > 21_000 for saved in tallies[1:])


def test_a_write_changes_the_base():
    shrinker, expander = Shrinker(SEAL), Expander()
    old, new = element_reply(1), element_reply(2, b"n", tag=Tag(2, "w000"))
    for payload, full in ((old, True), (element_reply(3), False),
                          (new, True),
                          (element_reply(4, b"n", tag=Tag(2, "w000")), False),
                          (element_reply(5), True)):  # the old body again
        frames = shrinker.seal([payload])
        assert (sum(map(len, frames)) > 22_000) is full
        assert receive(expander, frames) == ([payload], False)


def test_small_payloads_and_mixed_bursts_keep_their_order():
    shrinker, expander = Shrinker(SEAL), Expander()
    small = [encode_message_v2(TagReply(op_id=i, tag=Tag(i, "w000")))
             for i in range(3)]
    assert shrinker.seal(small) == SEAL(small)  # nothing to shrink
    burst = [small[0], element_reply(7), small[1], element_reply(8), small[2]]
    frames = shrinker.seal(burst)
    # small | base alone | small + delta + small under one HMAC.
    assert [len(AUTH.open_any(frame)[1]) for frame in frames] == [1, 1, 3]
    assert receive(expander, frames) == (burst, False)


def test_head_allowance_bounds_what_a_delta_may_carry():
    shrinker = Shrinker(SEAL)
    history = tuple(TaggedValue(Tag(i, "w000"), b"v" * 200) for i in range(9))
    base = encode_message_v2(HistoryReply(op_id=1, history=history))
    shrinker.seal([base])
    # A different register name of the same length sits inside the head.
    a = encode_message_v2(NamespacedMessage(
        "a" * 120, HistoryReply(op_id=2, history=history)))
    b = encode_message_v2(NamespacedMessage(
        "b" * 120, HistoryReply(op_id=3, history=history)))
    shrinker.seal([a])
    [frame] = shrinker.seal([b])
    assert len(frame) < DELTA_HEAD_MAX + 100
    # A difference past the allowance is not a tail: sent in full.
    late = bytearray(base)
    late[DELTA_HEAD_MAX + 10] ^= 1
    shrinker.seal([base])
    [frame] = shrinker.seal([bytes(late)])
    assert len(frame) > len(base)


@pytest.mark.parametrize("forged, reason", [
    (bytes([DELTA_MAGIC]) + b"short", "truncated"),
    (bytes([DELTA_MAGIC]) + b"\0" * 8 + (5).to_bytes(4, "big") + b"head",
     "held None"),
])
def test_delta_on_a_link_that_holds_no_base_is_a_desync(forged, reason):
    with pytest.raises(DeltaDesync, match=reason):
        Expander().expand(SEAL([forged])[0], [forged])


def test_unknown_base_and_oversized_tail_are_desyncs():
    shrinker, expander = Shrinker(SEAL), Expander()
    receive(expander, shrinker.seal([element_reply(1)]))
    [delta] = AUTH.open_any(shrinker.seal([element_reply(2)])[0])[1]
    delta = bytes(delta)
    wrong_id = delta[:1] + bytes(8) + delta[9:]
    too_long = delta[:9] + (10**6).to_bytes(4, "big") + delta[13:]
    for forged in (wrong_id, too_long):
        with pytest.raises(DeltaDesync):
            expander.expand(SEAL([forged])[0], [forged])
    # The base is still held: the honest delta still expands exactly.
    assert expander.expand(SEAL([delta])[0], [delta]) == [element_reply(2)]
    expander.reset()  # a fresh connection
    with pytest.raises(DeltaDesync):
        expander.expand(SEAL([delta])[0], [delta])


def test_stateless_codec_never_emits_the_magic():
    """Every encoding starts with its class's cached prefix: 0xB2."""
    assert DELTA_MAGIC != MAGIC_V2 and DELTA_MIN_BYTES > DELTA_HEAD_MAX + 13
    assert _PREFIXES and all(prefix[0] == MAGIC_V2
                             for prefix in _PREFIXES.values())


@settings(max_examples=100, deadline=None)
@given(messages)
def test_any_encoded_message_is_never_mistaken_for_a_delta(message):
    encoded = encode_message_v2(message)
    assert encoded[0] != DELTA_MAGIC
    assert Expander().expand(SEAL([encoded])[0], [encoded])[0] == encoded
