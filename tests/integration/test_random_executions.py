"""Randomized adversarial executions, checked mechanically.

These are the strongest tests in the repository: random workloads, random
delays and random Byzantine behaviour, with Definition 1 / Definition 2
verified on every resulting trace.  Theorems 2 and 4 say the checks can
never fail at (or above) the resilience bounds; any counterexample found
here would be a bug in either the algorithms or the paper.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.register import RegisterSystem
from repro.consistency import check_regularity, check_safety
from repro.sim.delays import ExponentialDelay, UniformDelay
from repro.sim.failures import random_failure_schedule
from repro.sim.rng import SimRng
from repro.workloads import WorkloadSpec, apply_schedule, generate_schedule

BEHAVIORS = ("silent", "stale", "forge_tag", "corrupt_value", "equivocate",
             "multi_reply", "flip_flop", "random")


def run_random_execution(algorithm, seed, f=1, n=None, read_ratio=0.7,
                         num_ops=40):
    rng = SimRng(seed, f"exec-{algorithm}")
    spec = WorkloadSpec(num_ops=num_ops, read_ratio=read_ratio,
                        num_writers=2, num_readers=2,
                        mean_interarrival=rng.uniform(0.5, 4.0),
                        value_size=rng.randint(8, 64))
    system = RegisterSystem(
        algorithm, f=f, n=n, seed=seed, num_writers=2, num_readers=2,
        initial_value=b"v0",
        delay_model=ExponentialDelay(mean=rng.uniform(0.2, 1.5), floor=0.05),
    )
    schedule = generate_schedule(spec, rng.fork("schedule"))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles), "liveness violated"
    return trace


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bsr_random_fault_free_executions_are_safe(seed):
    trace = run_random_execution("bsr", seed)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bcsr_random_fault_free_executions_are_safe(seed):
    trace = run_random_execution("bcsr", seed, num_ops=25)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_regular_variants_random_executions_are_regular(seed):
    for algorithm in ("bsr-history", "bsr-2round"):
        trace = run_random_execution(algorithm, seed, num_ops=25)
        check_regularity(trace, initial_value=b"v0").raise_if_violated()


def run_byzantine_execution(algorithm, seed, f=1, n=None, num_ops=30):
    rng = SimRng(seed, f"byz-{algorithm}")
    system_probe = RegisterSystem(algorithm, f=f, n=n)
    schedule_of_failures = random_failure_schedule(
        system_probe.server_ids, f, rng.fork("failures"), behaviors=BEHAVIORS,
    )
    byzantine = {event.pid: event.behavior
                 for event in schedule_of_failures.events}
    system = RegisterSystem(
        algorithm, f=f, n=n, seed=seed, num_writers=2, num_readers=2,
        initial_value=b"v0", byzantine=byzantine,
        delay_model=UniformDelay(0.1, rng.uniform(0.5, 3.0)),
    )
    spec = WorkloadSpec(num_ops=num_ops, read_ratio=0.7, num_writers=2,
                        num_readers=2, mean_interarrival=2.0)
    handles = apply_schedule(system, generate_schedule(spec, rng.fork("wl")))
    trace = system.run()
    assert all(handle.done for handle in handles), "liveness violated"
    return trace


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bsr_random_byzantine_executions_are_safe(seed):
    trace = run_byzantine_execution("bsr", seed)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bcsr_random_byzantine_executions_are_safe(seed):
    trace = run_byzantine_execution("bcsr", seed, num_ops=20)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_history_variant_byzantine_executions_are_regular(seed):
    trace = run_byzantine_execution("bsr-history", seed, num_ops=20)
    check_regularity(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_two_round_variant_byzantine_executions_are_regular(seed):
    trace = run_byzantine_execution("bsr-2round", seed, num_ops=20)
    check_regularity(trace, initial_value=b"v0").raise_if_violated()


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rb_baseline_byzantine_executions_are_safe(seed):
    trace = run_byzantine_execution("rb", seed, num_ops=20)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_larger_f_byzantine_execution():
    """f = 2 with two differently-misbehaving servers (n = 9)."""
    system = RegisterSystem(
        "bsr", f=2, seed=5, num_writers=2, num_readers=2,
        initial_value=b"v0", byzantine={0: "forge_tag", 5: "equivocate"},
        delay_model=UniformDelay(0.2, 1.0),
    )
    spec = WorkloadSpec(num_ops=40, read_ratio=0.6, num_writers=2, num_readers=2)
    handles = apply_schedule(system, generate_schedule(spec, SimRng(5, "wl")))
    trace = system.run()
    assert all(handle.done for handle in handles)
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_crash_and_byzantine_combined_within_budget():
    """One Byzantine server (the budget) plus crash-faulty *clients*."""
    system = RegisterSystem(
        "bsr", f=1, seed=6, num_writers=3, num_readers=2,
        initial_value=b"v0", byzantine={1: "stale"},
        delay_model=UniformDelay(0.2, 1.0),
    )
    system.write(b"w-a", writer=0, at=0.0)
    doomed = system.write(b"w-b", writer=1, at=5.0)
    system.crash_client("w001", at=5.5)   # crashes mid-write
    system.write(b"w-c", writer=2, at=10.0)
    read = system.read(reader=0, at=30.0)
    trace = system.run()
    assert not doomed.done
    assert read.done
    check_safety(trace, initial_value=b"v0").raise_if_violated()
