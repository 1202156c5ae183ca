"""Bulk GF(256) kernels: whole-column field arithmetic in C.

The scalar codec in :mod:`repro.erasure.rs` processes one byte per Python
bytecode loop iteration, which dominates every coded-storage experiment.
These kernels instead operate on *columns*: a column is a ``bytes`` object
holding one codeword symbol position across every stripe of a value (the
exact layout a server's coded element already has).  Field operations then
run over the entire column inside CPython's C core:

* multiplication by a constant ``c`` is a 256-byte translation table applied
  with :meth:`bytes.translate` (one table per multiplier, built lazily and
  shared process-wide);
* addition (XOR) runs word-at-a-time through arbitrary-precision integers
  via :func:`int.from_bytes`;
* equality checks and mismatch location use C-level ``bytes`` comparison,
  falling back to per-byte scans only inside chunks that actually differ.

A matrix-vector product over columns (:func:`matvec`) is the building block
for both encoding (parity matrix x message columns) and the errorless
decode fast path (recovery matrix x received columns).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.erasure.gf256 import GF256

#: Lazily-built translation tables, one per multiplier.  Table ``c`` maps
#: byte ``x`` to ``c * x`` in GF(256); tables are immutable and shared by
#: every code shape in the process.
_TABLES: List[Optional[bytes]] = [None] * 256
_TABLES[0] = bytes(256)
_TABLES[1] = bytes(range(256))


def mul_table(c: int) -> bytes:
    """The 256-byte ``bytes.translate`` table for multiplication by ``c``."""
    table = _TABLES[c]
    if table is None:
        table = bytes(GF256.mul_row(c))
        _TABLES[c] = table
    return table


def mul_column(c: int, column: bytes) -> bytes:
    """Multiply every byte of ``column`` by the constant ``c``."""
    if c == 0:
        return bytes(len(column))
    if c == 1:
        return bytes(column)
    return bytes(column).translate(mul_table(c))


def xor_columns(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR (GF(256) addition) of two equal-length columns."""
    if len(a) != len(b):
        raise ValueError(f"column lengths differ: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def combine(row: Sequence[int], cols: Sequence[bytes]) -> int:
    """``XOR_j mul(row[j], cols[j])`` as the little-endian int XOR runs in."""
    acc = 0
    for coeff, col in zip(row, cols):
        if coeff:
            term = col if coeff == 1 else col.translate(mul_table(coeff))
            acc ^= int.from_bytes(term, "little")
    return acc


def matvec(rows: Sequence[Sequence[int]], cols: Sequence[bytes]) -> List[bytes]:
    """Matrix-vector product where every vector entry is a whole column.

    ``rows`` is an ``m x len(cols)`` matrix of field constants; the result
    is ``m`` columns, ``out[r] = XOR_j mul(rows[r][j], cols[j])``.  Each
    term is one ``translate`` plus one wide XOR, so the Python-level work is
    proportional to the matrix size, not the column length.
    """
    length = len(cols[0]) if cols else 0
    for col in cols:
        if len(col) != length:
            raise ValueError("columns must all have the same length")
    return [combine(row, cols).to_bytes(length, "little") for row in rows]


#: Chunk width for :func:`diff_indices`: equal chunks are skipped with one
#: C-level compare, so the per-byte scan only runs where corruption lives.
_DIFF_CHUNK = 256


def diff_indices(a: bytes, b: bytes) -> List[int]:
    """Positions where two equal-length columns differ, in ascending order."""
    if len(a) != len(b):
        raise ValueError(f"column lengths differ: {len(a)} != {len(b)}")
    if a == b:
        return []
    out: List[int] = []
    for off in range(0, len(a), _DIFF_CHUNK):
        chunk_a = a[off:off + _DIFF_CHUNK]
        chunk_b = b[off:off + _DIFF_CHUNK]
        if chunk_a == chunk_b:
            continue
        out.extend(off + i for i, (x, y) in enumerate(zip(chunk_a, chunk_b))
                   if x != y)
    return out


def deinterleave(buf: bytes, k: int) -> List[bytes]:
    """Split a stripe-major buffer into its ``k`` columns.

    Byte ``s*k + i`` of ``buf`` (symbol ``i`` of stripe ``s``) lands at
    position ``s`` of column ``i`` -- a strided slice, taken in C.
    """
    if len(buf) % k:
        raise ValueError(f"buffer length {len(buf)} is not a multiple of k={k}")
    return [bytes(buf[i::k]) for i in range(k)]


def interleave(cols: Sequence[bytes]) -> bytearray:
    """Inverse of :func:`deinterleave`: merge columns back stripe-major."""
    k = len(cols)
    length = len(cols[0]) if cols else 0
    out = bytearray(length * k)
    for i, col in enumerate(cols):
        if len(col) != length:
            raise ValueError("columns must all have the same length")
        out[i::k] = col
    return out
