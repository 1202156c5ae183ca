"""Tests for the region-aware topology delay model."""

import pytest

from repro.core.register import RegisterSystem
from repro.sim.delays import TopologyDelay
from repro.sim.rng import SimRng
from repro.types import reader_id, server_id, writer_id


@pytest.fixture
def rng():
    return SimRng(31, "topology")


def simple_topology(jitter=0.0):
    return TopologyDelay(
        regions={"s000": "us", "s001": "us", "s002": "eu", "w000": "us"},
        latency={("us", "us"): 0.02, ("us", "eu"): 0.12, ("eu", "eu"): 0.02,
                 ("local", "us"): 0.05, ("local", "eu"): 0.05,
                 ("local", "local"): 0.01},
        jitter=jitter,
    )


def test_intra_region_faster_than_cross_region(rng):
    model = simple_topology()
    assert model.sample("w000", "s000", None, 0.0, rng) == 0.02
    assert model.sample("w000", "s002", None, 0.0, rng) == 0.12


def test_latency_is_symmetric(rng):
    model = simple_topology()
    assert model.sample("s002", "s000", None, 0.0, rng) == \
        model.sample("s000", "s002", None, 0.0, rng)


def test_default_region_for_unassigned(rng):
    model = simple_topology()
    assert model.region_of("r042") == "local"
    assert model.sample("r042", "s000", None, 0.0, rng) == 0.05


def test_missing_latency_entry_raises(rng):
    model = TopologyDelay(regions={"a": "x", "b": "y"},
                          latency={("x", "x"): 0.01})
    with pytest.raises(KeyError):
        model.sample("a", "b", None, 0.0, rng)


def test_jitter_validation():
    with pytest.raises(ValueError):
        simple_topology(jitter=1.5)


def test_jitter_stays_within_fraction(rng):
    model = simple_topology(jitter=0.25)
    for _ in range(100):
        delay = model.sample("w000", "s002", None, 0.0, rng)
        assert 0.12 * 0.75 <= delay <= 0.12 * 1.25


def test_geo_register_prefers_local_quorum():
    """A US writer against a 3-US/2-EU deployment: the n - f = 4 quorum
    must include at least one EU server, so writes pay one cross-ocean
    round trip -- measurable and deterministic with zero jitter."""
    regions = {server_id(i): ("us" if i < 3 else "eu") for i in range(5)}
    regions[writer_id(0)] = "us"
    regions[reader_id(0)] = "us"
    model = TopologyDelay(
        regions=regions,
        latency={("us", "us"): 0.01, ("us", "eu"): 0.1, ("eu", "eu"): 0.01},
        jitter=0.0,
    )
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=model)
    write = system.write(b"geo", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    # Each phase waits for the 4th reply; the 4th-closest server is in EU.
    assert write.latency == pytest.approx(2 * 2 * 0.1)
    assert read.value == b"geo"
    assert read.latency == pytest.approx(2 * 0.1)
