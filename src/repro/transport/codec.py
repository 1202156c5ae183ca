"""Stream framing: length-prefixed frames over a TCP byte stream.

Frames on a TCP stream are a 4-byte big-endian length followed by the
payload (a sealed envelope from :mod:`repro.transport.auth` around
messages encoded by :mod:`repro.transport.codec2`).  The frame size is
capped to keep a malicious peer from forcing an unbounded allocation,
and :class:`FrameAssembler` additionally bounds the bytes it will buffer
for an incomplete frame.
"""

from __future__ import annotations

from struct import Struct
from typing import List, Optional

from repro.errors import ProtocolError

#: Upper bound on a single frame (16 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Cached frame-header packer (one C call instead of ``int.to_bytes``).
_PACK_HEADER = Struct(">I").pack
_UNPACK_HEADER = Struct(">I").unpack_from


async def read_frame(reader) -> bytes:
    """Read one length-prefixed frame from an asyncio StreamReader."""
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the cap")
    return await reader.readexactly(length)


def write_frame(writer, payload: bytes) -> None:
    """Write one length-prefixed frame to an asyncio StreamWriter."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the cap")
    writer.write(_PACK_HEADER(len(payload)) + payload)


def frame_burst(payloads) -> bytes:
    """Frame many payloads as one contiguous burst (one transport write).

    Batching frames that were queued in the same event-loop tick halves
    the per-frame overhead on the hot path: one ``transport.write`` call
    serves the whole burst.
    """
    parts = []
    for payload in payloads:
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(payload)} bytes exceeds the cap")
        parts.append(_PACK_HEADER(len(payload)))
        parts.append(payload)
    return b"".join(parts)


class FrameAssembler:
    """Incremental zero-copy frame decoder over a raw byte stream.

    The reader fills the assembler's own buffer: :meth:`writable` hands
    out the free tail for the next read (``recv_into``) and
    :meth:`filled` returns every *complete* length-prefixed frame the
    bytes read so far contain; a partial frame stays buffered.  This is
    what lets a connection receive without allocating and batch-decode
    consecutive frames from one read syscall.  :meth:`feed` is the same
    two steps for callers that already hold the bytes.

    Completed frames are returned as ``memoryview`` slices into the
    assembler's internal buffer -- no per-frame copy.  The views are
    valid until the **next** :meth:`writable` (or :meth:`feed`) call,
    which compacts and recycles the buffer in place; callers must finish
    with, or copy, each batch of frames before reading again, which is
    exactly how the runtime's protocols behave.

    Safety: the declared length of a frame is validated the moment its
    4-byte header is complete, before any buffer is grown for it -- a
    peer drip-feeding a giant bogus length kills the connection at the
    header.  The stream cannot be re-synchronised past such a header:
    only the header stays buffered, every later :meth:`filled` raises
    again, and no parser state can grow the buffer past one
    maximum-size frame.
    """

    __slots__ = ("_buf", "_start", "_end", "_max")

    #: Initial capacity of the receive buffer (grows on demand, bounded
    #: by the frame cap plus one header).
    INITIAL_CAPACITY = 64 * 1024

    def __init__(self, max_frame_bytes: Optional[int] = None) -> None:
        self._max = (MAX_FRAME_BYTES if max_frame_bytes is None
                     else max_frame_bytes)
        self._buf = bytearray(min(self.INITIAL_CAPACITY, self._max + 4))
        self._start = 0
        self._end = 0

    def feed(self, data) -> List[memoryview]:
        """Absorb ``data``; return the completed frame payload views."""
        n = len(data)
        self.writable(n)[:n] = data
        return self.filled(n)

    def writable(self, sizehint: int = -1) -> memoryview:
        """The buffer's free tail, for the next read to fill.

        Never empty and at least ``sizehint`` bytes long.  The partial
        frame is slid to the front first, and when its header is already
        complete the buffer grows once to hold the whole frame (not by
        doubling on every read).  Invalidates earlier frame views.
        """
        buf = self._buf
        pending = self._end - self._start
        if self._start:
            buf[:pending] = buf[self._start:self._end]
            self._start, self._end = 0, pending
        want = max(sizehint, 1)
        if pending >= 4:
            length = _UNPACK_HEADER(buf, 0)[0]
            if length <= self._max:
                want = max(want, 4 + length - pending)
        if pending + want > len(buf):
            grown = bytearray(max(len(buf) * 2, pending + want))
            grown[:pending] = buf[:pending]
            self._buf = buf = grown
        return memoryview(buf)[pending:]

    def filled(self, n: int) -> List[memoryview]:
        """Take ``n`` bytes written into :meth:`writable`'s view; return
        the completed frame payload views."""
        buf = self._buf
        start, end = self._start, self._end + n
        frames: List[memoryview] = []
        view = memoryview(buf)
        while end - start >= 4:
            length = _UNPACK_HEADER(buf, start)[0]
            if length > self._max:
                self._start, self._end = start, start + 4
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the cap")
            if end - start < 4 + length:
                break
            frames.append(view[start + 4:start + 4 + length])
            start += 4 + length
        if start == end:
            start = end = 0
        self._start, self._end = start, end
        if end - start > self._max + 4:
            # Unreachable while the header check above holds; kept as a
            # hard invariant so no parser bug can buffer unboundedly.
            raise ProtocolError(
                f"{end - start} buffered bytes exceed the frame cap")
        return frames

    def __len__(self) -> int:
        """Bytes currently buffered (incomplete trailing frame)."""
        return self._end - self._start
