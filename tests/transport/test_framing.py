"""Zero-copy frame assembly: views, compaction, and the buffer cap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.transport.codec import MAX_FRAME_BYTES, FrameAssembler


def frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def test_single_frame_roundtrip():
    asm = FrameAssembler()
    frames = asm.feed(frame(b"hello"))
    assert [bytes(f) for f in frames] == [b"hello"]
    assert len(asm) == 0


def test_frames_are_memoryviews_not_copies():
    asm = FrameAssembler()
    frames = asm.feed(frame(b"zero-copy"))
    assert all(isinstance(f, memoryview) for f in frames)
    assert frames[0] == b"zero-copy"   # views compare against bytes


def test_many_frames_in_one_chunk():
    payloads = [bytes([i]) * i for i in range(1, 40)]
    asm = FrameAssembler()
    frames = asm.feed(b"".join(frame(p) for p in payloads))
    assert [bytes(f) for f in frames] == payloads


def test_byte_at_a_time_drip_feed():
    payloads = [b"abc", b"", b"\x00" * 17]
    blob = b"".join(frame(p) for p in payloads)
    asm = FrameAssembler()
    got = []
    for i in range(len(blob)):
        got.extend(bytes(f) for f in asm.feed(blob[i:i + 1]))
    assert got == payloads
    assert len(asm) == 0


def test_split_header_across_chunks():
    blob = frame(b"payload")
    asm = FrameAssembler()
    assert asm.feed(blob[:2]) == []
    assert len(asm) == 2
    frames = asm.feed(blob[2:])
    assert [bytes(f) for f in frames] == [b"payload"]


def test_buffer_grows_past_initial_capacity():
    big = b"x" * (FrameAssembler.INITIAL_CAPACITY * 2)
    asm = FrameAssembler()
    blob = frame(big) + frame(b"tail")
    # Feed in two chunks so the first one leaves a large partial frame.
    mid = len(blob) // 2
    frames = list(asm.feed(blob[:mid])) + list(asm.feed(blob[mid:]))
    assert [bytes(f) for f in frames] == [big, b"tail"]


def test_compaction_preserves_partial_frame():
    asm = FrameAssembler(max_frame_bytes=1 << 20)
    # Drain many small frames to advance the start offset, then leave a
    # partial frame that forces compaction on the next feed.
    for _ in range(100):
        asm.feed(frame(b"y" * 600))
    tail = frame(b"z" * 500)
    asm.feed(tail[:100])
    frames = asm.feed(tail[100:] + frame(b"after"))
    assert [bytes(f) for f in frames] == [b"z" * 500, b"after"]


def test_declared_length_over_cap_raises_immediately():
    asm = FrameAssembler(max_frame_bytes=1024)
    bogus = (4096).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        asm.feed(bogus)


def test_drip_fed_bogus_length_dies_at_the_header():
    """A peer drip-feeding a giant length is stopped before buffering it.

    The cap must be enforced against the *declared* length the moment
    the 4-byte header completes -- not after ``max_frame_bytes`` of
    garbage have been buffered.
    """
    asm = FrameAssembler(max_frame_bytes=1024)
    header = (1 << 30).to_bytes(4, "big")
    for byte in header[:3]:
        asm.feed(bytes([byte]))
    with pytest.raises(ProtocolError):
        asm.feed(header[3:])
    # Nothing beyond the 4 header bytes was ever buffered.
    assert len(asm) <= 4


def test_buffered_total_never_exceeds_cap_plus_header():
    asm = FrameAssembler(max_frame_bytes=256)
    blob = frame(b"q" * 256)
    for i in range(0, len(blob), 7):
        asm.feed(blob[i:i + 7])
        assert len(asm) <= 256 + 4


def test_default_cap_is_max_frame_bytes():
    asm = FrameAssembler()
    with pytest.raises(ProtocolError):
        asm.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))


def test_views_valid_until_next_feed():
    asm = FrameAssembler()
    first = asm.feed(frame(b"one"))
    payload = bytes(first[0])     # consumed before the next feed
    asm.feed(frame(b"two"))
    assert payload == b"one"


# -- the two-step fill path (what a BufferedProtocol drives) ------------------

def fill(asm, blob, offers):
    """Drive ``writable``/``filled`` the way a transport does.

    Read ``i`` is offered ``offers[i % len(offers)]`` bytes and takes at
    most ``len(view)`` of them.  Yields ``(n, frames)`` per read, with
    ``frames`` the ``ProtocolError`` when ``filled`` raised one.
    """
    at = i = 0
    while at < len(blob):
        view = asm.writable()
        assert len(view) > 0
        n = min(len(view), offers[i % len(offers)], len(blob) - at)
        view[:n] = blob[at:at + n]
        del view
        try:
            yield n, [bytes(f) for f in asm.filled(n)]
        except ProtocolError as exc:
            yield n, exc
        at += n
        i += 1


def test_frame_exactly_filling_the_buffer():
    exact = b"e" * (FrameAssembler.INITIAL_CAPACITY - 4)
    asm = FrameAssembler()
    reads = list(fill(asm, frame(exact) + frame(b"next"), [1 << 20]))
    assert [f for _, frames in reads for f in frames] == [exact, b"next"]
    assert reads[0] == (FrameAssembler.INITIAL_CAPACITY, [exact])
    assert len(asm.writable()) == FrameAssembler.INITIAL_CAPACITY  # no grow


def test_large_frame_grows_once_to_its_announced_size():
    big = bytes(range(256)) * 1024  # 256 KiB: four initial capacities
    asm = FrameAssembler()
    capacities, got = set(), []
    blob = frame(b"head") + frame(big) + frame(b"tail")
    for _, frames in fill(asm, blob, [10_000]):
        got.extend(frames)
        capacities.add(len(asm._buf))
    assert got == [b"head", big, b"tail"]
    # One grow, straight to header + payload -- not a doubling per read.
    assert capacities == {FrameAssembler.INITIAL_CAPACITY, 4 + len(big)}


def test_writable_after_an_oversized_header_neither_raises_nor_grows():
    asm = FrameAssembler(max_frame_bytes=1024)
    with pytest.raises(ProtocolError):
        asm.feed(frame(b"ok") + (1 << 30).to_bytes(4, "big") + b"junk")
    # The connection is closing, but a read may still land: each one
    # fails again at the same header and nothing more is buffered.
    reads = list(fill(asm, b"x" * 5000, [4096]))
    assert all(isinstance(result, ProtocolError) for _, result in reads)
    assert len(asm) == 4 and len(asm._buf) == 1024 + 4


CAP = 300  # receive buffer = CAP + 4 bytes, so every edge is a short input


def reference_parse(blob):
    """``[(end offset, payload)]`` of the complete frames, and the offset
    of the byte completing an over-``CAP`` header (``None``: none)."""
    frames, at = [], 0
    while len(blob) - at >= 4:
        length = int.from_bytes(blob[at:at + 4], "big")
        if length > CAP:
            return frames, at + 4
        if len(blob) - at < 4 + length:
            break
        at += 4 + length
        frames.append((at, blob[at - length:at]))
    return frames, None


@settings(max_examples=300, deadline=None)
@given(
    payloads=st.lists(st.one_of(
        st.binary(max_size=40),
        st.binary(min_size=CAP - 8, max_size=CAP),  # up to a full buffer
        st.just(None)),                             # an oversized header
        max_size=10),
    cut=st.integers(0, 8),                          # a torn last frame
    offers=st.lists(st.one_of(st.just(1), st.integers(1, 7),
                              st.integers(1, 4 * CAP)),
                    min_size=1, max_size=6),
)
def test_fill_path_and_feed_are_one_decoder(payloads, cut, offers):
    """For any payloads and any chunking -- 1-byte drips, chunks larger
    than the buffer, headers split across fills, frames that exactly
    fill it, oversized headers -- ``writable``/``filled`` and ``feed``
    return byte-identical frames read by read, both agree with a
    reference parser, and both raise at the same byte."""
    blob = b"".join((CAP + 1 + len(payloads)).to_bytes(4, "big") + b"junk"
                    if payload is None else frame(payload)
                    for payload in payloads)
    blob = blob[:len(blob) - cut]
    expected, dies_at = reference_parse(blob)
    fed = FrameAssembler(max_frame_bytes=CAP)
    taken, got = 0, []
    for n, result in fill(FrameAssembler(max_frame_bytes=CAP), blob, offers):
        try:
            same = [bytes(f) for f in fed.feed(blob[taken:taken + n])]
        except ProtocolError as exc:
            same = exc
        if isinstance(result, ProtocolError):
            assert str(same) == str(result)
            assert taken < dies_at <= taken + n
            break
        assert same == result
        got.extend(result)
        taken += n
        assert dies_at is None or taken < dies_at
        assert got == [payload for end, payload in expected if end <= taken]
    else:
        assert dies_at is None and taken == len(blob)
