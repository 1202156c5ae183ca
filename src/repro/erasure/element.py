"""The coded element: one server's share of an encoded value.

A leaf of its own, so the code that only carries elements -- the wire
codec, snapshots, Byzantine behaviours -- does not import the
Reed-Solomon codec that makes them (:mod:`repro.erasure.striping`).
"""

from __future__ import annotations

from repro.core.record import Record

#: Bytes a compact wire encoding spends on one coded element beyond its
#: data: a 4-byte codeword index plus a 4-byte length prefix.
_ELEMENT_OVERHEAD = 8

_store = object.__setattr__


class CodedElement(Record):
    """One server's share of an encoded value: ``(index, data)``."""

    __slots__ = ("index", "data")

    def __init__(self, index: int, data: bytes) -> None:
        _store(self, "index", index)
        _store(self, "data", data)

    # By hand, not Record's generic walk over the fields: a coded read
    # hashes and compares an element per reply (witness counts, memo).
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CodedElement:
            return NotImplemented
        return self.index == other.index and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.index, self.data))

    def __len__(self) -> int:
        return len(self.data)

    def wire_size(self) -> int:
        """Actual encoded length on the wire: index + length + data."""
        return _ELEMENT_OVERHEAD + len(self.data)
