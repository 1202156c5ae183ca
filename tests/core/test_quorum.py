"""Unit tests for quorum arithmetic and the paper's thresholds."""

import pytest

from repro.core.quorum import (
    abd_min_servers,
    bcsr_dimension,
    bcsr_min_servers,
    bsr_min_servers,
    kth_highest,
    rb_min_servers,
    reply_quorum,
    validate_bcsr_config,
    witness_threshold,
)
from repro.errors import QuorumError
from repro.protocols import get_spec


@pytest.mark.parametrize("f,expected", [(0, 1), (1, 5), (2, 9), (3, 13)])
def test_bsr_min_servers(f, expected):
    assert bsr_min_servers(f) == expected


@pytest.mark.parametrize("f,expected", [(0, 1), (1, 6), (2, 11), (3, 16)])
def test_bcsr_min_servers(f, expected):
    assert bcsr_min_servers(f) == expected


@pytest.mark.parametrize("f,expected", [(0, 1), (1, 4), (2, 7)])
def test_rb_min_servers(f, expected):
    assert rb_min_servers(f) == expected


@pytest.mark.parametrize("f,expected", [(0, 1), (1, 3), (2, 5)])
def test_abd_min_servers(f, expected):
    assert abd_min_servers(f) == expected


def test_negative_f_rejected():
    with pytest.raises(QuorumError):
        bsr_min_servers(-1)


def test_validate_bsr_boundary():
    # The deployment-time check (Fleet.build calls it).
    validate = get_spec("bsr").validate_config
    validate(5, 1)
    validate(6, 1)
    with pytest.raises(QuorumError):
        validate(4, 1)


def test_validate_bcsr_boundary():
    validate_bcsr_config(6, 1)
    with pytest.raises(QuorumError):
        validate_bcsr_config(5, 1)


def test_validate_rb_boundary():
    validate = get_spec("rb").validate_config
    validate(4, 1)
    with pytest.raises(QuorumError):
        validate(3, 1)


def test_bcsr_dimension_formula():
    assert bcsr_dimension(6, 1) == 1
    assert bcsr_dimension(11, 2) == 1
    assert bcsr_dimension(16, 2) == 6
    with pytest.raises(QuorumError):
        bcsr_dimension(5, 1)


def test_reply_quorum():
    assert reply_quorum(5, 1) == 4
    assert reply_quorum(10, 3) == 7
    with pytest.raises(QuorumError):
        reply_quorum(3, 3)


def test_witness_threshold():
    assert witness_threshold(0) == 1
    assert witness_threshold(2) == 3


def test_kth_highest_basic():
    values = [5, 1, 9, 7, 3]
    assert kth_highest(values, 1) == 9
    assert kth_highest(values, 2) == 7
    assert kth_highest(values, 5) == 1


def test_kth_highest_with_duplicates():
    assert kth_highest([4, 4, 4, 2], 2) == 4
    assert kth_highest([4, 4, 4, 2], 4) == 2


def test_kth_highest_range_checked():
    with pytest.raises(ValueError):
        kth_highest([1, 2], 0)
    with pytest.raises(ValueError):
        kth_highest([1, 2], 3)


def test_kth_highest_discards_f_forged_tags():
    """The Fig-1-line-4 property: f forged maxima cannot move the pick."""
    honest = [10, 10, 10, 9]
    forged = [1_000_000]  # one Byzantine server lies upward (f = 1)
    assert kth_highest(honest + forged, 2) == 10
