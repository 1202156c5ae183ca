"""The coded element: one server's share of an encoded value.

A leaf of its own, so the code that only carries elements -- the wire
codec, snapshots, Byzantine behaviours -- does not import the
Reed-Solomon codec that makes them (:mod:`repro.erasure.striping`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes a compact wire encoding spends on one coded element beyond its
#: data: a 4-byte codeword index plus a 4-byte length prefix.
_ELEMENT_OVERHEAD = 8


@dataclass(frozen=True)
class CodedElement:
    """One server's share of an encoded value."""

    index: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)

    def wire_size(self) -> int:
        """Actual encoded length on the wire: index + length + data."""
        return _ELEMENT_OVERHEAD + len(self.data)
