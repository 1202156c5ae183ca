"""Tail deltas: a large reply body crosses a connection once.

A stateful layer between the codec and the HMAC envelope, on the reply
path only.  Each end of a connection remembers the last payload of at
least :data:`DELTA_MIN_BYTES` that crossed it *in full* (the base); a
later large payload that ends like it -- the same reply under a fresh
``op_id`` -- travels as ``DELTA_MAGIC | base id (8) | tail length (4) |
head`` and is rebuilt before any decoder sees it.  A base is sealed alone
in a single envelope and named by the leading bytes of that envelope's
HMAC tag, which both ends hold anyway: equal names mean equal bases, so
``expand`` returns exactly what ``seal`` consumed or raises.
"""

from __future__ import annotations

from struct import Struct
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.transport.auth import single_signature

#: Payloads shorter than this are never bases and never deltas.
DELTA_MIN_BYTES = 1024
#: The most a delta's head may carry (what differs sits up front).
DELTA_HEAD_MAX = 256
#: First byte of a delta; every codec payload starts with ``0xB2``.
DELTA_MAGIC = 0xD1

_HEADER = Struct(">B8sI")


class DeltaDesync(ProtocolError):
    """A delta names a base this end of the connection does not hold."""


class Shrinker:
    """The sending end, over ``seal`` (payload list -> wire frames);
    ``tally(elided)`` fires per large payload (0: in full, the new base)."""

    def __init__(self, seal: Callable[[List[bytes]], List[bytes]],
                 tally: Callable[[int], Any] = lambda elided: None) -> None:
        self._seal, self._tally = seal, tally
        self._base, self._id = None, b""

    def seal(self, payloads: List[bytes]) -> List[bytes]:
        """Wire frames for one burst, in order, repeated tails elided
        (for small payloads only: exactly the stateless frames)."""
        seal, frames, chunk = self._seal, [], []
        for payload in payloads:
            if len(payload) >= DELTA_MIN_BYTES:
                delta = self._delta(payload)
                self._tally(len(payload) - len(delta) if delta else 0)
                if delta is None:  # the new base, alone in its envelope
                    frames += seal(chunk) if chunk else ()
                    frames += seal([payload])
                    self._base = payload
                    self._id = single_signature(frames[-1])[:8]
                    chunk = []
                    continue
                payload = delta
            chunk.append(payload)
        return frames + seal(chunk) if chunk else frames

    def _delta(self, payload: bytes) -> Optional[bytes]:
        base = self._base
        # The shortest tail the head allowance admits must match ...
        tail = len(payload) - DELTA_HEAD_MAX
        if base is None or tail > len(base) or not payload.endswith(
                memoryview(base)[len(base) - tail:]):
            return None
        # ... then grows by the trailing zero bytes of what precedes, XORed.
        rest = base[max(0, len(base) - len(payload)):len(base) - tail]
        head = payload[DELTA_HEAD_MAX - len(rest):DELTA_HEAD_MAX]
        diff = int.from_bytes(head, "big") ^ int.from_bytes(rest, "big")
        same = ((diff & -diff).bit_length() - 1) // 8 if diff else len(rest)
        return (_HEADER.pack(DELTA_MAGIC, self._id, tail + same)
                + payload[:DELTA_HEAD_MAX - same])


class Expander:
    """The receiving end; ``count()`` fires per delta made whole."""

    def __init__(self, count: Callable[[], Any] = lambda: None) -> None:
        self._count = count
        self.reset()

    def reset(self) -> None:
        """Forget the base (a fresh connection starts from nothing)."""
        self._base, self._id = None, b""

    def expand(self, frame, payloads: Sequence) -> Sequence:
        """The verified ``payloads`` of ``frame`` as the sender held them."""
        if (len(payloads) == 1 and len(payloads[0]) >= DELTA_MIN_BYTES
                and payloads[0][0] != DELTA_MAGIC):
            signature = single_signature(frame)
            if signature is not None:  # a base comes alone, in a single
                self._base, self._id = bytes(payloads[0]), signature[:8]
                return (self._base,)
        return [self._whole(p) if len(p) and p[0] == DELTA_MAGIC else p
                for p in payloads]

    def _whole(self, delta) -> bytes:
        if len(delta) < _HEADER.size:
            raise DeltaDesync("truncated delta header")
        _, base_id, tail = _HEADER.unpack_from(delta)
        base = self._base
        if base is None or base_id != self._id or tail > len(base):
            raise DeltaDesync(f"delta (tail {tail}) on base {base_id.hex()}, "
                              f"held {self._id.hex() or None}")
        self._count()
        return b"".join((delta[_HEADER.size:],
                         memoryview(base)[len(base) - tail:]))
