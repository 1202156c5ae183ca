"""Multi-key chaos: sharded keyspaces under nemesis schedules.

The quick test runs in tier-1; the 1000-key soak (``soak`` marker, see
``make chaos-soak``) is the acceptance run for the keyspace subsystem:
a Zipf-skewed workload over a thousand keys while links flap, with zero
per-register safety violations and every operation completing.
"""

import asyncio

import pytest

from repro.chaos.soak import run_soak
from repro.consistency.registers import REGISTER_META


def run(coro):
    return asyncio.run(coro)


def test_keyed_flaky_links_soak_safe():
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="flaky-links", ops=24,
        read_ratio=0.6, seed=17, start=0.3, period=0.4, timeout=10.0,
        keys=25, zipf_s=1.1,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.keys == 25
    assert "per register" in result.safety.condition
    touched = {op.meta.get(REGISTER_META) for op in result.trace.operations}
    assert len(touched) > 1  # the workload really spanned keys
    assert all(key is not None for key in touched)


def test_keyed_soak_determinism():
    runs = [
        run(run_soak(algorithm="bsr", f=1, schedule="flaky-links", ops=12,
                     seed=23, start=0.2, period=0.3, timeout=10.0,
                     keys=10, zipf_s=1.0))
        for _ in range(2)
    ]
    keyed = [[op.meta.get(REGISTER_META) for op in r.trace.operations]
             for r in runs]
    assert sorted(k for k in keyed[0] if k) == sorted(
        k for k in keyed[1] if k)
    for result in runs:
        assert result.errors == []
        assert result.safety.ok


def test_keyed_soak_rejects_unknown_algorithms():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        run(run_soak(algorithm="no-such-algo", keys=5))


def test_keyed_soak_runs_peer_links_algorithms():
    """The registry's per-key factories lifted the old rb prohibition:
    each key gets its own broadcast instance over its placement group."""
    result = run(run_soak(
        algorithm="rb", f=1, schedule="flaky-links", ops=10,
        read_ratio=0.5, seed=29, start=0.2, period=0.3, timeout=12.0,
        keys=5, zipf_s=1.0,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.keys == 5


@pytest.mark.soak
def test_thousand_key_flaky_links_soak():
    """ISSUE acceptance: 1k keys, flaky links, zero violations."""
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="flaky-links", ops=120,
        read_ratio=0.6, seed=29, start=0.3, period=0.5, timeout=20.0,
        keys=1000, zipf_s=1.1, concurrency=4,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.ops_completed >= 120
