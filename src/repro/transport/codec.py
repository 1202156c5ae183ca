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
    """Incremental zero-copy frame decoder over raw stream chunks.

    Feeding arbitrary byte chunks (``data_received``) yields every
    *complete* length-prefixed frame they contain; partial frames stay
    buffered until the next chunk.  This is what lets a connection
    batch-decode consecutive frames from one read syscall instead of
    paying two ``readexactly`` waits per frame.

    Completed frames are returned as ``memoryview`` slices into the
    assembler's internal buffer -- no per-frame copy.  The views are
    valid until the **next** :meth:`feed` call (the buffer is compacted
    and recycled in place); callers must finish with, or copy, each
    batch of frames before feeding the next chunk, which is exactly how
    the runtime's protocols behave.

    Safety: the declared length of a frame is validated the moment its
    4-byte header is complete, and the total number of buffered bytes is
    additionally capped at ``max_frame_bytes + 4`` between feeds -- a
    peer drip-feeding a giant bogus length kills the connection at the
    header, before any allocation, and no parser state can grow the
    buffer past one maximum-size frame.
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
        """Absorb ``data``; return the completed frame payload views.

        The returned ``memoryview`` slices alias the internal buffer and
        are invalidated by the next ``feed`` call.
        """
        buf = self._buf
        start, end = self._start, self._end
        n = len(data)
        if end + n > len(buf):
            pending = end - start
            if pending + n <= len(buf):
                # Compact in place: slide the partial frame to the front.
                buf[:pending] = buf[start:end]
            else:
                capacity = max(len(buf) * 2, pending + n)
                grown = bytearray(capacity)
                grown[:pending] = buf[start:end]
                self._buf = buf = grown
            start, end = 0, pending
        buf[end:end + n] = data
        end += n

        frames: List[memoryview] = []
        view = memoryview(buf)
        while end - start >= 4:
            length = _UNPACK_HEADER(buf, start)[0]
            if length > self._max:
                self._start, self._end = start, end
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
