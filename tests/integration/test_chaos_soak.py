"""Chaos soak: mixed workloads under nemesis schedules on live TCP.

The acceptance run for the chaos subsystem: a seeded schedule with ``f``
crash-restarts (snapshot recovery) and a rolling link partition over a
mixed read/write workload, on both the replicated (``bsr``) and the
MDS-coded (``bcsr``) cluster.  Every operation must complete within its
liveness timeout (the schedules keep ``n - f`` servers reachable,
Lemma 6) with zero safety violations (Definition 1), and replaying a
schedule with the same seed must inject the same fault sequence.
"""

import asyncio

import pytest

from repro.chaos import run_soak
from tests.runtime.test_thrifty import hold_back


def run(coro):
    return asyncio.run(coro)


@pytest.mark.parametrize("algorithm", ["bsr", "bcsr"])
def test_combo_soak_safe_and_live(algorithm):
    """f crash-restarts + rolling partition: safety and liveness hold."""
    result = run(run_soak(
        algorithm=algorithm, f=1, schedule="combo", ops=18, read_ratio=0.6,
        seed=7, start=0.3, period=0.45, timeout=10.0,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.ops_completed == len(result.trace.operations)
    assert result.ops_completed >= 18
    # The schedule really did inject the advertised faults.
    assert any("crash" in event for event in result.nemesis_events)
    assert any("partition" in event for event in result.nemesis_events)
    # Crashing and partitioning severed links, so clients had to heal.
    reconnects = sum(stats.get("reconnects", 0)
                     for stats in result.client_stats.values())
    assert reconnects > 0
    # Liveness the strict way: no completed op came close to its timeout.
    for op in result.trace.completed:
        assert op.latency < 10.0


def test_same_seed_replays_same_fault_sequence():
    """Determinism check: identical seeds inject identical fault sequences."""
    runs = [
        run(run_soak(algorithm="bsr", f=1, schedule="crash-restart", ops=8,
                     seed=21, start=0.2, period=0.4, timeout=10.0))
        for _ in range(2)
    ]
    assert runs[0].nemesis_events == runs[1].nemesis_events
    assert runs[0].nemesis_events  # the schedule was not empty
    for result in runs:
        assert result.errors == []
        assert result.safety.ok


def test_flaky_links_soak_safe():
    """Dropped/delayed/duplicated frames on one link never break safety."""
    # The schedule degrades s000: thrifty clients must address it.
    hold_back("s004", [f"s{i:03d}" for i in range(5)])
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="flaky-links", ops=14, read_ratio=0.5,
        seed=3, start=0.2, period=0.4, timeout=10.0,
    ))
    assert result.errors == []
    assert result.safety.ok
    # The degraded link actually faulted frames.
    assert sum(result.fault_counts.values()) > 0


def test_f_concurrent_soak_stays_live():
    """The whole fault budget down at once (f=2 of 9) must not cost
    liveness: n - f servers remain reachable (Lemma 6)."""
    result = run(run_soak(
        algorithm="bsr", f=2, schedule="f-concurrent", ops=12,
        read_ratio=0.5, seed=13, start=0.3, period=0.6, timeout=12.0,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    # Both cycles really crashed two servers simultaneously.
    concurrent = [e for e in result.nemesis_events
                  if "crash" in e and "," in e]
    assert len(concurrent) == 2


def test_exceed_f_soak_loses_liveness_but_not_safety():
    """f + 1 servers down is past the budget: operations inside the
    window must time out (the negative test), yet every operation that
    does complete still satisfies Definition 1."""
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="exceed-f", ops=10, read_ratio=0.5,
        seed=17, start=0.3, period=1.0, timeout=1.2,
    ))
    assert result.errors, "expected timeouts while f+1 servers were down"
    assert not result.ok
    assert result.safety.ok, str(result.safety)  # safety never bends
    assert any("crash" in e for e in result.nemesis_events)


@pytest.mark.soak
@pytest.mark.parametrize("algorithm", ["bsr", "bcsr"])
@pytest.mark.parametrize("schedule", ["crash-restart", "rolling-partition",
                                      "flaky-links", "combo"])
def test_long_soak(algorithm, schedule):
    """Extended soak, kept out of tier-1 (run via ``make chaos-soak``)."""
    result = run(run_soak(
        algorithm=algorithm, f=1, schedule=schedule, ops=80, read_ratio=0.6,
        seed=11, start=0.5, period=0.8, timeout=20.0,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.ops_completed >= 80
