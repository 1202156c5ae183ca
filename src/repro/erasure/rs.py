"""Systematic [n, k] Reed-Solomon code with error-and-erasure decoding.

Encoding: the ``k`` message symbols are interpolated into the unique
polynomial ``p`` of degree < k with ``p(x_i) = m_i`` for the first ``k``
evaluation points, and the codeword is ``(p(x_1), ..., p(x_n))``.  The code
is *systematic* (the first ``k`` coded elements are the message) and *MDS*
(any ``k`` correct elements reconstruct ``p``).

Decoding uses the Berlekamp-Welch algorithm: given ``N`` received points of
which at most ``e`` are wrong, it recovers ``p`` whenever ``N >= k + 2e``.
Missing points (erasures) simply reduce ``N``.  This is the decoder contract
Section IV-A of the paper assumes with ``k = n - f - 2e``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.erasure import kernels
from repro.erasure.gf256 import GF256
from repro.erasure.poly import Poly
from repro.errors import ConfigurationError, DecodingError


def solve_linear_system(matrix: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """Solve ``matrix . x = rhs`` over GF(256) by Gaussian elimination.

    Returns one solution (free variables set to 0) or ``None`` when the
    system is inconsistent.  ``matrix`` is modified in place; callers pass
    fresh copies.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivot_of_col: List[Optional[int]] = [None] * cols
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = GF256.inv(matrix[row][col])
        matrix[row] = [GF256.mul(v, inv) for v in matrix[row]]
        rhs[row] = GF256.mul(rhs[row], inv)
        for r in range(rows):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    GF256.add(a, GF256.mul(factor, b))
                    for a, b in zip(matrix[r], matrix[row])
                ]
                rhs[r] = GF256.add(rhs[r], GF256.mul(factor, rhs[row]))
        pivot_of_col[col] = row
        row += 1
        if row == rows:
            break
    # Inconsistency: a zero row with non-zero RHS.
    for r in range(row, rows):
        if rhs[r] != 0 and all(v == 0 for v in matrix[r]):
            return None
    solution = [0] * cols
    for col, pivot_row in enumerate(pivot_of_col):
        if pivot_row is not None:
            solution[col] = rhs[pivot_row]
    return solution


#: Recovery-matrix LRU capacity per ``[n, k]`` shape.
_RECOVERY_CACHE_SIZE = 64


class _CodeTables:
    """Tables shared by every :class:`ReedSolomon` instance of one shape.

    Keyed by ``(n, k)`` in :data:`_TABLES_BY_SHAPE`, so short-lived codec
    objects (one per operation in the simulator) never rebuild the parity
    matrix or the recovery matrices; the per-multiplier translation tables
    live process-wide in :mod:`repro.erasure.kernels` already.
    """

    __slots__ = ("parity", "recovery")

    def __init__(self) -> None:
        self.parity: Optional[List[List[int]]] = None
        #: position-tuple -> (recovery matrix, verification matrix), an LRU
        #: ordered oldest-first; see ReedSolomon._recovery_for.
        self.recovery: "OrderedDict[Tuple[int, ...], tuple]" = OrderedDict()


_TABLES_BY_SHAPE: Dict[Tuple[int, int], _CodeTables] = {}


class ReedSolomon:
    """A systematic ``[n, k]`` Reed-Solomon code over GF(2^8)."""

    def __init__(self, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ConfigurationError(f"need 1 <= k <= n, got [n={n}, k={k}]")
        if n > GF256.order:
            raise ConfigurationError(
                f"GF(256) supports codewords up to {GF256.order} symbols, got n={n}"
            )
        self.n = n
        self.k = k
        #: Distinct non-zero evaluation points, one per coded element.
        self.points: Tuple[int, ...] = tuple(range(1, n + 1))
        self._tables = _TABLES_BY_SHAPE.setdefault((n, k), _CodeTables())
        #: Alias kept for introspection/tests; the LRU itself is shared.
        self._recovery_cache = self._tables.recovery

    def _parity(self) -> List[List[int]]:
        """``(n-k) x k`` generator columns for the parity positions.

        ``parity[j][i] = l_i(x_{k+j})`` where ``l_i`` is the i-th Lagrange
        basis polynomial over the first ``k`` points.  Computed once per
        shape, so encoding a stripe is a plain matrix-vector product instead
        of a fresh interpolation -- the hot path when striping large values.
        """
        if self._tables.parity is None:
            basis = Poly.lagrange_basis(list(self.points[: self.k]))
            self._tables.parity = [
                [basis[i].evaluate(self.points[j]) for i in range(self.k)]
                for j in range(self.k, self.n)
            ]
        return self._tables.parity

    # -- encoding ----------------------------------------------------------
    def encode(self, message: Sequence[int]) -> List[int]:
        """Encode ``k`` symbols into ``n`` coded elements (systematic)."""
        if len(message) != self.k:
            raise ValueError(f"message must have k={self.k} symbols, got {len(message)}")
        codeword = list(message[: self.k])
        for row in self._parity():
            acc = 0
            for coeff, symbol in zip(row, message):
                if coeff and symbol:
                    acc = GF256.add(acc, GF256.mul(coeff, symbol))
            codeword.append(acc)
        return codeword

    def encode_columns(self, cols: Sequence[bytes]) -> List[bytes]:
        """Encode ``k`` equal-length byte columns into ``n`` coded columns.

        Column ``i`` holds message symbol ``i`` of every stripe, so this is
        :meth:`encode` applied to all stripes at once: the systematic
        columns pass through and each parity column is one row of the
        cached parity matrix applied to the message columns via the bulk
        kernels.  Produces bytes identical to the per-stripe scalar path.
        """
        if len(cols) != self.k:
            raise ValueError(f"need k={self.k} columns, got {len(cols)}")
        return [bytes(col) for col in cols] + kernels.matvec(self._parity(), cols)

    @property
    def max_correctable_errors(self) -> int:
        """Errors correctable from a full codeword: ``(n - k) // 2``."""
        return (self.n - self.k) // 2

    # -- decoding ------------------------------------------------------------
    def decode(self, received: Sequence[Tuple[int, int]],
               max_errors: Optional[int] = None) -> List[int]:
        """Recover the message from ``(position, symbol)`` pairs.

        ``received`` holds distinct zero-based codeword positions with their
        (possibly corrupted) symbols.  At most
        ``max_errors`` (default ``(N - k) // 2``) of them may be wrong.
        Raises :class:`DecodingError` when no consistent codeword exists
        within the error budget.
        """
        received = list(received)
        positions = [pos for pos, _ in received]
        if len(set(positions)) != len(positions):
            raise ValueError("received positions must be distinct")
        for pos in positions:
            if not 0 <= pos < self.n:
                raise ValueError(f"position {pos} outside codeword of length {self.n}")
        n_received = len(received)
        if n_received < self.k:
            raise DecodingError(
                f"need at least k={self.k} coded elements, got {n_received}"
            )
        budget = (n_received - self.k) // 2
        if max_errors is not None:
            budget = min(budget, max_errors)
        points = [(self.points[pos], symbol) for pos, symbol in received]
        # Ascending error counts: the clean/e=0 case is a cheap Lagrange
        # interpolation and dominates in practice.  Correctness is kept by
        # the agreement check inside each attempt -- a candidate accepted at
        # error count e agrees with >= N - e points, and with N >= k + 2e'
        # for the budget e' two distinct degree-<k codewords cannot both
        # clear that bar, so the first accepted candidate is the codeword.
        for e in range(0, budget + 1):
            p = self._berlekamp_welch(points, e)
            if p is not None:
                return [p.evaluate(x) for x in self.points[: self.k]]
        raise DecodingError(
            f"cannot decode: {n_received} elements with error budget {budget} "
            f"admit no consistent degree-<{self.k} codeword"
        )

    def _berlekamp_welch(self, points: Sequence[Tuple[int, int]], e: int) -> Optional[Poly]:
        """One Berlekamp-Welch attempt assuming at most ``e`` errors.

        Finds ``E`` (monic, degree e) and ``Q`` (degree < k+e) with
        ``Q(x_i) = y_i * E(x_i)`` for every received point, then returns
        ``Q / E`` if it is a clean degree-<k polynomial agreeing with all but
        at most ``e`` points.
        """
        k = self.k
        if e == 0:
            candidate = Poly.interpolate(list(points[:k]))
            if candidate.degree >= k:
                return None
            if all(candidate.evaluate(x) == y for x, y in points):
                return candidate
            return None
        return self._berlekamp_welch_with_errors(points, e)

    def _recovery_for(self, positions: Tuple[int, ...]):
        """Cached matrices for the errorless decode of a position set.

        ``recover[i][j]``: contribution of received symbol ``j`` (of the
        first ``k``) to message symbol ``i``.  ``verify[v][j]``: predicted
        symbol at extra received position ``v`` from the same inputs.  The
        cache is keyed by the exact received-position tuple -- constant
        across the stripes of one value, which is the hot path -- and kept
        as an LRU shared by every instance of this ``[n, k]`` shape.
        """
        cache = self._tables.recovery
        cached = cache.get(positions)
        if cached is not None:
            cache.move_to_end(positions)
            return cached
        base_points = [self.points[p] for p in positions[: self.k]]
        extra_points = [self.points[p] for p in positions[self.k:]]
        basis = Poly.lagrange_basis(base_points)
        recover = [[basis[j].evaluate(self.points[i]) for j in range(self.k)]
                   for i in range(self.k)]
        verify = [[basis[j].evaluate(x) for j in range(self.k)]
                  for x in extra_points]
        entry = (recover, verify)
        cache[positions] = entry
        while len(cache) > _RECOVERY_CACHE_SIZE:
            cache.popitem(last=False)
        return entry

    def decode_fast(self, positions: Tuple[int, ...],
                    symbols: Sequence[int]) -> Optional[List[int]]:
        """Errorless decode of one stripe using cached matrices.

        Returns the message if every received symbol is consistent with a
        single codeword, else ``None`` (caller falls back to
        :meth:`decode`).  ``positions`` are distinct codeword positions,
        ``symbols`` the received symbols in the same order.
        """
        if len(positions) < self.k:
            return None
        recover, verify = self._recovery_for(tuple(positions))
        base = symbols[: self.k]
        message = []
        for row in recover:
            acc = 0
            for coeff, symbol in zip(row, base):
                if coeff and symbol:
                    acc = GF256.add(acc, GF256.mul(coeff, symbol))
            message.append(acc)
        for v, row in enumerate(verify):
            acc = 0
            for coeff, symbol in zip(row, base):
                if coeff and symbol:
                    acc = GF256.add(acc, GF256.mul(coeff, symbol))
            if acc != symbols[self.k + v]:
                return None
        return message

    def decode_columns(self, positions: Tuple[int, ...], cols: Sequence[bytes],
                       budget: int = 0) -> Tuple[List[bytes], bytes, Set[int]]:
        """Decode every stripe at once, accepting within ``budget``.

        ``cols[j]`` holds the symbol received at ``positions[j]`` for every
        stripe; the first ``k`` are the base the codeword is rebuilt from.
        A stripe is *accepted* when that disagrees with at most ``budget``
        of the other symbols (within the unique-decoding radius it is then
        *the* codeword, whichever columns are wrong).  Returns the message
        columns, trustworthy at accepted stripes; a 0/1 byte per stripe
        marking those over budget, empty when none is; and the non-base
        positions whose column disagrees anywhere.
        """
        k = self.k
        if len(positions) < k:
            raise DecodingError(
                f"need at least k={k} coded elements, got {len(positions)}")
        if len(set(map(len, cols))) > 1:
            raise ValueError("columns must all have the same length")
        recover, verify = self._recovery_for(tuple(positions))
        base = list(cols[:k])
        # The systematic prefix *is* the message: skip multiplying by 1.
        message = (base if tuple(positions[:k]) == tuple(range(k))
                   else kernels.matvec(recover, base))
        differing = {}
        for position, row, actual in zip(positions[k:], verify, cols[k:]):
            diff = kernels.combine(row, base) ^ int.from_bytes(actual, "little")
            if diff:
                differing[position] = diff
        over = b""
        if len(differing) > budget:  # else no stripe can exceed the budget
            # Differing columns per stripe.  Shifts fold each byte of a diff
            # onto its low bit (what they drag in from the next byte lands
            # higher and is masked off); fewer than 256 such 0/1 columns sum
            # without a carry, and one translate thresholds the counts.
            length = len(base[0])
            ones = int.from_bytes(b"\x01" * length, "little")
            counts = 0
            for diff in differing.values():
                diff |= diff >> 4
                diff |= diff >> 2
                counts += (diff | diff >> 1) & ones
            over = counts.to_bytes(length, "little").translate(
                bytes(budget + 1) + b"\x01" * (255 - budget))
        return message, over, set(differing)

    def _berlekamp_welch_with_errors(self, points: Sequence[Tuple[int, int]],
                                     e: int) -> Optional[Poly]:
        k = self.k
        num_q = k + e
        matrix: List[List[int]] = []
        rhs: List[int] = []
        for x, y in points:
            row = [GF256.pow(x, j) for j in range(num_q)]
            row.extend(GF256.mul(y, GF256.pow(x, l)) for l in range(e))
            matrix.append(row)
            rhs.append(GF256.mul(y, GF256.pow(x, e)))
        solution = solve_linear_system(matrix, rhs)
        if solution is None:
            return None
        q = Poly(solution[:num_q])
        locator = Poly(list(solution[num_q:]) + [1])  # monic degree e
        quotient, remainder = q.divmod(locator)
        if not remainder.is_zero() or quotient.degree >= k:
            return None
        disagreements = sum(1 for x, y in points if quotient.evaluate(x) != y)
        if disagreements > e:
            return None
        return quotient
