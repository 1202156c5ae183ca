"""BCSR's decoder budget is tight: 2f wrong columns are always corrected,
and 2f + 1 colluding ones can decode to a value nobody wrote.

A BCSR read decodes the ``n - f`` elements it received with at most
``2f`` errors (``f`` Byzantine plus ``f`` stale servers, the model's
worst case).  At ``n = 8, f = 1`` the code is ``[8, 3]`` and a read holds
``N = 7`` columns: ``(N - k) // 2 = 2 = 2f``.  Every placement of up to
``2f`` wrong columns -- garbage, or colluding ones that carry a second,
mutually consistent codeword -- decodes to the written value.  One more
colluding column is past the budget, and the decoder cannot tell: the
columns of a second codeword that agrees with two correct positions put
the received word within ``2f`` of *that* codeword, and it decodes to
it.  No ``DecodingError`` is raised; safety rests on the model's bound.
"""

from itertools import combinations

import pytest

from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, StripedCodec

N_SERVERS, F, K = 8, 1, 3
BUDGET = 2 * F
VALUE = bytes(range(40))
OTHER = bytes(reversed(range(40)))


def _codec(kernels):
    return StripedCodec(N_SERVERS, K, kernels=kernels)


def _garbage(element):
    return CodedElement(element.index,
                        bytes(b ^ 0x5A for b in element.data))


@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("colluding", [False, True])
def test_up_to_2f_wrong_columns_always_decode_to_the_written_value(
        kernels, colluding):
    codec = _codec(kernels)
    written = codec.encode(VALUE)
    forged = codec.encode(OTHER)  # mutually consistent wrong columns
    for missing in range(N_SERVERS):  # which f = 1 server did not answer
        received = [e for e in written if e.index != missing]
        for wrong in range(BUDGET + 1):
            for placed in combinations(range(len(received)), wrong):
                elements = list(received)
                for at in placed:
                    index = elements[at].index
                    elements[at] = (forged[index] if colluding
                                    else _garbage(elements[at]))
                assert codec.decode(elements, max_errors=BUDGET) == VALUE


def _vanishing_at(code, zeros, stripes, lead):
    """Columns of a codeword, stripe by stripe: zero on ``lead`` stripes,
    then on the others a codeword that vanishes at positions ``zeros``."""
    columns = [bytearray() for _ in range(code.n)]
    third = next(p for p in range(code.n) if p not in zeros)
    for stripe in range(stripes):
        if stripe < lead:
            word = [0] * code.n
        else:
            message = code.decode([(zeros[0], 0), (zeros[1], 0),
                                   (third, 1 + stripe % 255)])
            word = code.encode(message)
        for column, symbol in zip(columns, word):
            column.append(symbol)
    return [bytes(column) for column in columns]


@pytest.mark.parametrize("kernels", [True, False])
def test_2f_plus_1_colluding_columns_decode_to_their_codeword(kernels):
    """The constructed case: past the budget the decoder returns a value
    nobody wrote, not a DecodingError."""
    codec = _codec(kernels)
    code = ReedSolomon(N_SERVERS, K)
    written = codec.encode(VALUE)
    received = written[:N_SERVERS - F]  # s007 did not answer
    agreeing = (3, 4)  # two correct positions the second codeword shares
    colluders = (0, 1, 2)  # 2f + 1 of them
    # The second codeword differs from the written one by a codeword that
    # is zero at the two agreeing positions, and on the first two stripes
    # (they hold the value's length prefix), so it frames a value too.
    delta = _vanishing_at(code, agreeing, len(written[0].data), lead=2)
    second = [CodedElement(e.index, bytes(a ^ b for a, b in zip(
        e.data, delta[e.index]))) for e in written]
    decoded_second = codec.decode(second)
    assert decoded_second != VALUE
    elements = [second[e.index] if e.index in colluders else e
                for e in received]
    assert [e.data == s.data for e, s in zip(elements, second)] == [
        True, True, True, True, True, False, False]
    assert codec.decode(elements, max_errors=BUDGET) == decoded_second
