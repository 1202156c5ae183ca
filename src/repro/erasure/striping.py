"""Encoding arbitrary byte strings with an [n, k] code.

A register value is an arbitrary ``bytes`` object; the field only holds
single bytes, so values are processed in *stripes* of ``k`` bytes.  Stripe
``s`` of the value encodes into codeword ``s``, and server ``i`` stores the
concatenation of symbol ``i`` from every codeword -- its *coded element*.

The element each server stores (and each PUT-DATA message carries) therefore
has size ``ceil(len(value') / k)`` bytes where ``value'`` is the padded
value, realising the ``1/k`` per-server storage/bandwidth cost of
Section I-C.

Framing: a 4-byte big-endian length prefix precedes the value so padding can
be stripped after decoding.

Layout note: a coded element *is* one column of the codeword matrix
(symbol ``i`` across all stripes), which is what lets the default
``kernels=True`` paths hand whole elements to the bulk GF(256) kernels in
:mod:`repro.erasure.kernels` -- encoding is a parity-matrix x column product
and the decode rebuilds and checks entire columns at once, running
per-stripe Berlekamp-Welch only to *locate* which columns are wrong.
``kernels=False`` keeps the original byte-at-a-time implementation as a
differential-testing reference: both paths compute one function -- per stripe,
the codeword within the error budget of what was received, or an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.erasure import kernels
from repro.erasure.element import CodedElement
from repro.erasure.rs import ReedSolomon
from repro.errors import DecodingError

_LENGTH_PREFIX = 4


@dataclass
class DecodeMemo:
    """The last decode a reader did, so an identical one is not repeated.

    Decoding ``N`` columns yields, per stripe, the one codeword within the
    budget ``e'`` of them (unique: ``N >= k + 2e'``).  ``verified`` holds
    the columns found equal to ``value``'s codeword everywhere, so columns
    byte-identical to those at ``N - e'`` positions are within ``e'`` of it
    at every stripe and could only decode to ``value`` again.  Nothing else
    is consulted, and a failed decode leaves nothing to recall.
    """

    value: Optional[bytes] = None
    verified: Dict[int, bytes] = field(default_factory=dict)
    #: Positions the last decode located: where the next one looks last.
    suspects: FrozenSet[int] = frozenset()
    #: The version a reader's next query names (``None``: none), and the
    #: positions whose ``verified`` column was sent under it -- set by
    #: the reader, which knows the tags; the codec never reads them.
    tag: Any = None
    named: FrozenSet[int] = frozenset()
    #: Since :meth:`take_counts` / :meth:`take_held`; the owner folds
    #: them into its registry.
    hits: int = 0
    misses: int = 0
    located: List[int] = field(default_factory=list)
    held_replies: int = 0

    def recall(self, positions: Sequence[int], cols: Sequence[bytes],
               budget: int) -> Optional[bytes]:
        """The remembered value if decoding these columns must return it."""
        same = sum(self.verified.get(p) == c for p, c in zip(positions, cols))
        if same >= len(positions) - budget:
            self.hits += 1
            return self.value
        self.misses += 1
        return None

    def remember(self, value: bytes, verified: Dict[int, bytes],
                 located: FrozenSet[int]) -> None:
        self.value, self.verified, self.suspects = value, verified, located
        self.located.extend(sorted(located))

    def take_counts(self) -> Tuple[int, int, List[int]]:
        """``(hits, misses, located positions)`` since the last call."""
        counts = self.hits, self.misses, self.located
        self.hits, self.misses, self.located = 0, 0, []
        return counts

    def take_held(self) -> int:
        """Held replies reads counted since the last call."""
        held, self.held_replies = self.held_replies, 0
        return held

    def held_bytes(self) -> int:
        return len(self.value or b"") + sum(map(len, self.verified.values()))


class StripedCodec:
    """Encode/decode byte values through an ``[n, k]`` Reed-Solomon code.

    ``kernels`` selects the column-oriented bulk-GF(256) paths (the
    default); ``kernels=False`` runs the scalar per-byte reference
    implementation, kept for differential testing.
    """

    def __init__(self, n: int, k: int, kernels: bool = True) -> None:
        self.code = ReedSolomon(n, k)
        self.n = n
        self.k = k
        self.kernels = bool(kernels)

    # -- encoding ------------------------------------------------------------
    def _frame(self, value: bytes) -> bytes:
        framed = len(value).to_bytes(_LENGTH_PREFIX, "big") + value
        if len(framed) % self.k:
            framed += b"\x00" * (self.k - len(framed) % self.k)
        return framed

    def encode(self, value: bytes) -> List[CodedElement]:
        """Split ``value`` into ``n`` coded elements of ``~len(value)/k`` bytes."""
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"values must be bytes, got {type(value).__name__}")
        framed = self._frame(bytes(value))
        if self.kernels:
            shares: Sequence[bytes] = self.code.encode_columns(
                kernels.deinterleave(framed, self.k))
        else:
            shares = self._encode_scalar(framed)
        return [CodedElement(index=i, data=bytes(share))
                for i, share in enumerate(shares)]

    def _encode_scalar(self, framed: bytes) -> List[bytearray]:
        """Reference path: one :meth:`ReedSolomon.encode` per stripe."""
        stripes = [framed[off:off + self.k] for off in range(0, len(framed), self.k)]
        shares: List[bytearray] = [bytearray() for _ in range(self.n)]
        for stripe in stripes:
            codeword = self.code.encode(list(stripe))
            for i, symbol in enumerate(codeword):
                shares[i].append(symbol)
        return shares

    def element_size(self, value_len: int) -> int:
        """Size in bytes of each coded element for a value of ``value_len``."""
        framed_len = value_len + _LENGTH_PREFIX
        stripes = (framed_len + self.k - 1) // self.k
        return stripes

    # -- decoding ------------------------------------------------------------
    def decode(self, elements: Sequence[CodedElement],
               max_errors: Optional[int] = None,
               memo: Optional[DecodeMemo] = None) -> bytes:
        """Reconstruct the value from coded elements.

        Tolerates missing elements (erasures) and corrupted/stale elements
        (errors) within the Berlekamp-Welch budget
        ``#errors <= (#received - k) // 2`` per stripe.  Raises
        :class:`DecodingError` when reconstruction is impossible.  ``memo``
        can only answer what decoding would, or steer the kernel path's search.
        """
        positions, cols = self._received_columns(elements)
        budget = (len(positions) - self.k) // 2
        if max_errors is not None:
            budget = min(max_errors, budget)
        memo = memo if memo is not None else DecodeMemo()
        value = memo.recall(positions, cols, budget)
        if value is None:
            if self.kernels:
                framed, located, verified = self._decode_columns(
                    positions, cols, budget, memo.suspects)
            else:
                framed, located, verified = self._decode_stripes(
                    positions, cols, budget)
            value = self._unframe(framed)
            memo.remember(value, {p: col for p, col in zip(positions, cols)
                                  if p in verified}, frozenset(located))
        return value

    def _received_columns(self, elements: Sequence[CodedElement]
                          ) -> Tuple[Tuple[int, ...], List[bytes]]:
        """Validate received elements into position-ordered columns.

        Applies the majority-length filter: corrupt elements may report
        bogus lengths, so only the most common length is kept (ties broken
        deterministically in favour of the larger length).
        """
        by_index: Dict[int, bytes] = {}
        for element in elements:
            if not 0 <= element.index < self.n:
                raise ValueError(f"element index {element.index} out of range")
            if element.index in by_index:
                raise ValueError(f"duplicate coded element for index {element.index}")
            by_index[element.index] = element.data
        if len(by_index) < self.k:
            raise DecodingError(
                f"need at least k={self.k} coded elements, got {len(by_index)}"
            )
        lengths = {len(data) for data in by_index.values()}
        if len(lengths) != 1:
            majority = max(lengths, key=lambda ln: (sum(
                1 for d in by_index.values() if len(d) == ln), ln))
            by_index = {i: d for i, d in by_index.items() if len(d) == majority}
            if len(by_index) < self.k:
                raise DecodingError("too few equal-length coded elements to decode")
        # Fixed position order across stripes lets the errorless fast path
        # reuse its cached recovery matrices.
        ordered = sorted(by_index.items())
        return (tuple(index for index, _ in ordered),
                [bytes(data) for _, data in ordered])

    def _decode_columns(self, positions: Tuple[int, ...], cols: List[bytes],
                        budget: int, suspects: FrozenSet[int]):
        """Kernel path: ``(framed, located, verified positions)``.

        A bulk pass rebuilds every stripe from ``k`` base columns
        (unsuspected first) and accepts it where it disagrees with at most
        ``budget`` symbols, so a wrong *non-base* column costs nothing.  A
        wrong base column leaves stripes over budget; corruption is per
        element (per server), so Berlekamp-Welch runs on the first such
        stripe only and the pass is repeated without the columns it locates
        -- each still counted as a disagreement, so "accepted" keeps meaning
        "within ``budget`` of all received".  When more columns are wrong
        than can be erased, the leftover stripes are decoded one by one.
        """
        order = sorted(range(len(positions)), key=lambda j: positions[j] in suspects)
        erased: Set[int] = set()
        while True:
            kept = [j for j in order if positions[j] not in erased]
            message, over, differing = self.code.decode_columns(
                tuple(positions[j] for j in kept), [cols[j] for j in kept],
                budget - len(erased))
            stripe = over.find(1)
            if stripe < 0:
                located = erased | differing
                return (kernels.interleave(message), located,
                        [p for p in positions if p not in located])
            wrong = self._correct_stripe(positions, cols, stripe, budget)[1]
            if not len(erased) < len(erased | wrong) <= budget:
                break
            erased |= wrong
        framed = kernels.interleave(message)
        for stripe in kernels.diff_indices(over, bytes(len(over))):
            framed[stripe * self.k:(stripe + 1) * self.k], wrong = (
                self._correct_stripe(positions, cols, stripe, budget))
            erased |= wrong
        return framed, erased, []

    def _correct_stripe(self, positions: Tuple[int, ...], cols: List[bytes],
                        stripe: int, budget: int) -> Tuple[bytes, Set[int]]:
        """Berlekamp-Welch on one stripe: its message and the wrong positions."""
        received = [(p, col[stripe]) for p, col in zip(positions, cols)]
        message = self.code.decode(received, max_errors=budget)
        codeword = self.code.encode(message)
        return bytes(message), {p for p, s in received if codeword[p] != s}

    def _decode_stripes(self, positions: Tuple[int, ...], cols: List[bytes],
                        budget: int):
        """Reference path, one stripe at a time: same triple."""
        framed = bytearray()
        #: Corruption is per *element* (per server), so positions found
        #: erroneous in one stripe are prime suspects in every stripe:
        #: excluding them turns the expensive error correction back into a
        #: cheap erasure decode.  Sound while they number at most ``budget``:
        #: a codeword every other position agrees on is then within the
        #: budget of all that was received, i.e. the one Berlekamp-Welch
        #: would return.
        suspected: Set[int] = set()
        for stripe in range(len(cols[0])):
            symbols = [col[stripe] for col in cols]
            fast = self.code.decode_fast(positions, symbols)
            if fast is None and suspected and len(suspected) <= budget:
                kept = [(p, s) for p, s in zip(positions, symbols)
                        if p not in suspected]
                fast = self.code.decode_fast(
                    tuple(p for p, _ in kept), [s for _, s in kept])
            if fast is None:
                fast, wrong = self._correct_stripe(positions, cols, stripe, budget)
                suspected |= wrong
            framed.extend(fast)
        return framed, suspected, [p for p in positions if p not in suspected]

    def _unframe(self, framed: bytearray) -> bytes:
        if len(framed) < _LENGTH_PREFIX:
            raise DecodingError("decoded frame shorter than its length prefix")
        value_len = int.from_bytes(framed[:_LENGTH_PREFIX], "big")
        if value_len > len(framed) - _LENGTH_PREFIX:
            raise DecodingError(
                f"decoded length prefix {value_len} exceeds frame size; "
                "the element set is inconsistent"
            )
        return bytes(memoryview(framed)[_LENGTH_PREFIX:_LENGTH_PREFIX + value_len])
