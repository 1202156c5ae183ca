"""Quorum arithmetic: resilience thresholds and tag selection.

Centralises every ``n``/``f`` inequality from the paper so the rest of the
code never hard-codes a threshold:

* BSR (replication) needs ``n >= 4f + 1`` (Theorems 2 and 5).
* BCSR (MDS-coded) needs ``n >= 5f + 1`` (Lemma 4 and Theorem 6) and uses a
  ``[n, k]`` code with ``k = n - 5f`` (Section IV-A, with ``e = 2f``).
* RB-based prior work needs ``n >= 3f + 1`` (Section I-B; Bracha broadcast).
* Every operation waits for at most ``n - f`` replies (Lemma 6).
* Read witnesses: at least ``f + 1`` (Lemma 5).

A deployment's bound is checked once, by
:meth:`~repro.protocols.registry.ProtocolSpec.validate_config` when its
fleet is built; operations and servers do not check it again.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.errors import QuorumError

T = TypeVar("T")


def bsr_min_servers(f: int) -> int:
    """Minimum servers for the replication-based register: ``4f + 1``."""
    _check_f(f)
    return 4 * f + 1


def bcsr_min_servers(f: int) -> int:
    """Minimum servers for the MDS-coded register: ``5f + 1``."""
    _check_f(f)
    return 5 * f + 1


def rb_min_servers(f: int) -> int:
    """Minimum servers for the reliable-broadcast baseline: ``3f + 1``."""
    _check_f(f)
    return 3 * f + 1


def abd_min_servers(f: int) -> int:
    """Minimum servers for crash-only ABD: ``2f + 1``."""
    _check_f(f)
    return 2 * f + 1


def rb2_min_servers(f: int) -> int:
    """Minimum servers for the Imbs-Raynal 2-step broadcast register.

    The 2-step broadcast trades a whole communication phase for a
    stronger resilience bound: ``n >= 5f + 1`` [Imbs-Raynal 2015].
    """
    _check_f(f)
    return 5 * f + 1


def mpr_min_servers(f: int) -> int:
    """Minimum servers for the MPR signature-free atomic register:
    ``3f + 1`` [Mostefaoui-Petrolia-Raynal 2016]."""
    _check_f(f)
    return 3 * f + 1


def _check_f(f: int) -> None:
    if f < 0:
        raise QuorumError(f"f must be non-negative, got {f}")


def validate_bcsr_config(n: int, f: int) -> None:
    """Raise :class:`QuorumError` unless ``n >= 5f + 1``."""
    if n < bcsr_min_servers(f):
        raise QuorumError(
            f"BCSR requires n >= 5f + 1 = {bcsr_min_servers(f)} servers "
            f"(Theorem 6), got n={n} with f={f}"
        )


def bcsr_dimension(n: int, f: int) -> int:
    """The code dimension ``k = n - 5f`` of BCSR's ``[n, k]`` MDS code.

    Derived from ``k = n - f - 2e`` with error budget ``e = 2f``
    (Section IV-A).
    """
    validate_bcsr_config(n, f)
    return n - 5 * f


def reply_quorum(n: int, f: int) -> int:
    """How many replies an operation waits for: ``n - f`` (Lemma 6)."""
    if f >= n:
        raise QuorumError(f"f={f} must be smaller than n={n}")
    return n - f


def witness_threshold(f: int) -> int:
    """Witnesses needed before a read may return a value: ``f + 1``
    (Lemma 5)."""
    _check_f(f)
    return f + 1


def kth_highest(values: Sequence[T], k: int) -> T:
    """The ``k``-th highest element of ``values`` (1-based).

    ``kth_highest(tags, f + 1)`` implements line 4 of Fig. 1: picking the
    ``(f+1)``-th highest tag discards up to ``f`` Byzantine-inflated tags
    while still observing every tag held by ``f + 1`` or more responders.
    """
    if not 1 <= k <= len(values):
        raise ValueError(f"k={k} out of range for {len(values)} values")
    return sorted(values, reverse=True)[k - 1]
