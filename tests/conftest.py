"""Shared fixtures for the test suite."""

import pytest

from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.rng import SimRng


@pytest.fixture
def rng():
    """A deterministic RNG stream for tests."""
    return SimRng(1234, "tests")


@pytest.fixture
def constant_delay():
    """A one-second constant delay model."""
    return ConstantDelay(1.0)


@pytest.fixture
def jittery_delay():
    """A mildly variable delay model for integration tests."""
    return UniformDelay(0.5, 2.0)


@pytest.fixture
def unhedged(monkeypatch):
    """Thrifty clients never hedge a round on a timer, however slow the
    host: for tests that count exactly what the ``n - f`` addressed
    servers were sent.  (A down link or a ``Throttled`` still hedges.)"""
    from repro.runtime import client
    monkeypatch.setattr(client, "HEDGE_FLOOR", float("inf"))
