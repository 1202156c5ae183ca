"""Unit and differential tests for the bulk GF(256) kernels.

The vectorized codec must be byte-identical to the scalar reference --
same output, same :class:`DecodingError` behavior -- across value sizes,
code shapes, corruption and erasure patterns.  The scalar path is the
specification; the kernels are only an execution strategy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure import kernels
from repro.erasure.gf256 import GF256
from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, StripedCodec
from repro.errors import DecodingError
from repro.sim.rng import SimRng


# -- primitive kernels --------------------------------------------------------

def test_mul_table_matches_scalar_mul():
    for c in (0, 1, 2, 3, 0x1D, 128, 255):
        table = kernels.mul_table(c)
        assert len(table) == 256
        assert list(table) == [GF256.mul(c, x) for x in range(256)]


def test_mul_table_is_cached():
    assert kernels.mul_table(37) is kernels.mul_table(37)


def test_mul_column_matches_per_byte():
    column = bytes(range(256)) * 3
    for c in (0, 1, 7, 255):
        expected = bytes(GF256.mul(c, b) for b in column)
        assert kernels.mul_column(c, column) == expected


def test_xor_columns():
    a, b = b"\x00\xff\x12\x34", b"\xff\xff\x00\x34"
    assert kernels.xor_columns(a, b) == b"\xff\x00\x12\x00"
    assert kernels.xor_columns(b"", b"") == b""
    with pytest.raises(ValueError):
        kernels.xor_columns(b"a", b"ab")


def test_matvec_matches_scalar_double_loop():
    rng = SimRng(11, "matvec")
    for _ in range(20):
        m = rng.randint(1, 5)
        width = rng.randint(1, 5)
        length = rng.randint(0, 40)
        rows = [[rng.randint(0, 255) for _ in range(width)] for _ in range(m)]
        cols = [bytes(rng.randint(0, 255) for _ in range(length))
                for _ in range(width)]
        out = kernels.matvec(rows, cols)
        for r, row in enumerate(rows):
            for s in range(length):
                acc = 0
                for coeff, col in zip(row, cols):
                    acc ^= GF256.mul(coeff, col[s])
                assert out[r][s] == acc


def test_matvec_rejects_ragged_columns():
    with pytest.raises(ValueError):
        kernels.matvec([[1, 1]], [b"ab", b"abc"])


def test_diff_indices_exact_positions():
    a = bytearray(1000)
    b = bytearray(1000)
    # Mismatches straddling chunk boundaries and at the extremes.
    for pos in (0, 255, 256, 257, 511, 999):
        b[pos] ^= 0x40
    assert kernels.diff_indices(bytes(a), bytes(b)) == [0, 255, 256, 257, 511, 999]
    assert kernels.diff_indices(bytes(a), bytes(a)) == []
    with pytest.raises(ValueError):
        kernels.diff_indices(b"x", b"xy")


def test_interleave_roundtrip():
    buf = bytes(range(30))
    for k in (1, 2, 3, 5, 6):
        cols = kernels.deinterleave(buf, k)
        assert len(cols) == k
        assert bytes(kernels.interleave(cols)) == buf
    with pytest.raises(ValueError):
        kernels.deinterleave(b"abc", 2)


# -- column APIs on ReedSolomon ----------------------------------------------

def test_encode_columns_matches_per_stripe_encode():
    rs = ReedSolomon(9, 4)
    rng = SimRng(3, "enc-cols")
    stripes = [[rng.randint(0, 255) for _ in range(4)] for _ in range(50)]
    codewords = [rs.encode(stripe) for stripe in stripes]
    cols = [bytes(stripe[i] for stripe in stripes) for i in range(4)]
    out = rs.encode_columns(cols)
    assert len(out) == 9
    for i in range(9):
        assert out[i] == bytes(cw[i] for cw in codewords)


def test_encode_columns_rejects_wrong_count():
    with pytest.raises(ValueError):
        ReedSolomon(6, 3).encode_columns([b"ab", b"ab"])


def test_decode_fast_columns_flags_exactly_bad_stripes():
    rs = ReedSolomon(8, 3)
    rng = SimRng(5, "dec-cols")
    stripes = [[rng.randint(0, 255) for _ in range(3)] for _ in range(40)]
    codewords = [rs.encode(stripe) for stripe in stripes]
    positions = (0, 2, 3, 5, 7)
    cols = [bytearray(cw[p] for cw in codewords) for p in positions]
    # Corrupt a received symbol at stripes 7 and 31 only.
    cols[1][7] ^= 0x21
    cols[4][31] ^= 0x03
    message, over, _ = rs.decode_columns(positions, [bytes(c) for c in cols])
    bad = set(kernels.diff_indices(over, bytes(len(over))))
    assert bad == {7, 31}
    for s in range(40):
        if s in bad:
            continue
        assert [col[s] for col in message] == stripes[s]
        # The scalar fast path agrees stripe by stripe.
        assert rs.decode_fast(positions,
                              [col[s] for col in cols]) == stripes[s]


def test_decode_fast_columns_needs_k_positions():
    rs = ReedSolomon(6, 3)
    with pytest.raises(DecodingError):
        rs.decode_columns((0, 1), [b"a", b"b"])


# -- codec differential tests -------------------------------------------------

def _differential_case(seed: int, size: int) -> None:
    """One randomized encode/decode comparison of both codec paths.

    Corruption goes up to the per-stripe budget ``(N - k) // 2`` (the
    ``2f`` of the BCSR regime when ``N = n - f``) and erasures up to
    ``n - N``; both paths must produce identical bytes or raise
    :class:`DecodingError` on identical inputs.
    """
    rng = SimRng(seed, f"kernel-diff-{size}")
    n = rng.randint(2, 14)
    k = rng.randint(1, n)
    value = bytes(rng.randint(0, 255) for _ in range(size))
    fast = StripedCodec(n, k, kernels=True)
    slow = StripedCodec(n, k, kernels=False)
    encoded = fast.encode(value)
    assert [(e.index, e.data) for e in encoded] == \
        [(e.index, e.data) for e in slow.encode(value)]

    received_count = rng.randint(k, n)
    chosen = rng.sample(encoded, received_count)
    budget = (received_count - k) // 2
    # Deliberately allow corruption *beyond* the budget sometimes so the
    # DecodingError behavior is compared too.
    error_count = rng.randint(0, min(received_count, budget + 1))
    targets = set(rng.sample(range(received_count), error_count))
    received = [
        CodedElement(e.index, bytes(b ^ 0xA7 for b in e.data))
        if i in targets else e
        for i, e in enumerate(chosen)
    ]
    try:
        got_fast = fast.decode(received)
    except DecodingError:
        got_fast = DecodingError
    try:
        got_slow = slow.decode(received)
    except DecodingError:
        got_slow = DecodingError
    assert got_fast == got_slow
    if error_count <= budget and got_fast is not DecodingError:
        assert got_fast == value


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=300))
def test_differential_small_values(seed, size):
    _differential_case(seed, size)


@pytest.mark.parametrize("size", [1024, 2048, 8192, 8191, 8193])
def test_differential_large_values(size):
    """Sizes up to 8 KiB including non-multiples of k."""
    for seed in range(3):
        _differential_case(seed * 7919 + size, size)


def test_differential_bcsr_regime_2f_errors_f_erasures():
    """The paper's exact counting: N = n - f received, 2f corrupted."""
    for n, f in ((11, 2), (16, 3), (6, 1)):
        k = n - 5 * f
        fast = StripedCodec(n, k, kernels=True)
        slow = StripedCodec(n, k, kernels=False)
        rng = SimRng(n * 100 + f, "bcsr-regime")
        value = bytes(rng.randint(0, 255) for _ in range(999))
        encoded = fast.encode(value)
        received = rng.sample(encoded, n - f)          # f erasures
        corrupt = set(rng.sample(range(n - f), 2 * f))  # 2f errors
        received = [
            CodedElement(e.index, bytes(b ^ 0xFF for b in e.data))
            if i in corrupt else e
            for i, e in enumerate(received)
        ]
        assert fast.decode(received, max_errors=2 * f) == value
        assert slow.decode(received, max_errors=2 * f) == value


def test_differential_error_behavior_identical_beyond_budget():
    fast = StripedCodec(6, 2, kernels=True)
    slow = StripedCodec(6, 2, kernels=False)
    value = b"beyond-the-budget" * 10
    encoded = fast.encode(value)
    received = [
        CodedElement(e.index, bytes(b ^ 0x13 for b in e.data))
        if i < 3 else e  # 3 errors, budget is (6-2)//2 = 2
        for i, e in enumerate(encoded)
    ]
    with pytest.raises(DecodingError):
        fast.decode(received)
    with pytest.raises(DecodingError):
        slow.decode(received)


def test_kernel_flag_recorded():
    assert StripedCodec(5, 2).kernels is True
    assert StripedCodec(5, 2, kernels=False).kernels is False
