"""Integration at larger scales: bigger f, extra servers, larger values.

The unit and f = 1 tests pin behaviour; these confirm the quorum
arithmetic holds as the deployment grows -- the regime a production
operator actually runs (over-provisioned n, multi-fault budgets).
"""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import check_liveness, check_regularity, check_safety
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.workloads import WorkloadSpec, apply_schedule, generate_schedule


@pytest.mark.parametrize("f", [2, 3])
def test_bsr_at_higher_fault_budgets(f):
    behaviors = ["forge_tag", "stale", "equivocate"][:f]
    system = RegisterSystem(
        "bsr", f=f, seed=f, initial_value=b"v0",
        byzantine={i: behaviors[i % len(behaviors)] for i in range(f)},
        delay_model=UniformDelay(0.2, 1.5),
    )
    assert system.n == 4 * f + 1
    system.write(b"scaled", writer=0, at=0.0)
    read = system.read(reader=0, at=30.0)
    trace = system.run()
    assert read.value == b"scaled"
    check_safety(trace, initial_value=b"v0").raise_if_violated()
    check_liveness(trace).raise_if_violated()


@pytest.mark.parametrize("extra", [1, 3, 6])
def test_bsr_with_servers_beyond_the_minimum(extra):
    """Over-provisioning must never hurt correctness."""
    f = 1
    system = RegisterSystem("bsr", f=f, n=4 * f + 1 + extra, seed=extra,
                            initial_value=b"v0",
                            byzantine={0: "forge_tag"},
                            delay_model=UniformDelay(0.2, 1.0))
    for i in range(3):
        system.write(f"gen-{i}".encode(), writer=i % 2, at=i * 10.0)
    read = system.read(at=40.0)
    trace = system.run()
    assert read.value == b"gen-2"
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_bcsr_f2_with_two_corrupting_servers():
    system = RegisterSystem("bcsr", f=2, seed=9, initial_value=b"v0",
                            byzantine={0: "corrupt_value", 1: "corrupt_value"},
                            delay_model=UniformDelay(0.2, 1.0))
    assert system.n == 11
    blob = bytes(range(256)) * 4
    system.write(blob, writer=0, at=0.0)
    read = system.read(at=20.0)
    trace = system.run()
    assert read.value == blob
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_bcsr_wide_code_with_large_value():
    """n = 16, f = 2 -> k = 6: real striping across a 100 KiB value."""
    system = RegisterSystem("bcsr", f=2, n=16, seed=10,
                            byzantine={3: "corrupt_value", 7: "stale"},
                            delay_model=UniformDelay(0.2, 1.0))
    blob = b"\xab" * 100_000
    system.write(blob, writer=0, at=0.0)
    read = system.read(at=20.0)
    system.run()
    assert read.value == blob
    # 1/k storage per server (plus frame overhead).
    per_server = max(system.storage_bytes().values())
    assert per_server < len(blob) / 5


@pytest.mark.parametrize("algorithm", ["bsr-history", "bsr-2round"])
def test_regular_variants_at_f2_under_coalition(algorithm):
    from repro.byzantine.collusion import ColludingStaleBehavior, make_coalition
    coalition = make_coalition(ColludingStaleBehavior, 2)
    system = RegisterSystem(algorithm, f=2, seed=11, initial_value=b"v0",
                            byzantine={i: coalition[i] for i in range(2)},
                            delay_model=UniformDelay(0.2, 1.2))
    for i in range(4):
        system.write(f"r-{i}".encode(), writer=i % 2, at=i * 15.0)
        system.read(reader=i % 2, at=i * 15.0 + 7.0)
    trace = system.run()
    check_regularity(trace, initial_value=b"v0").raise_if_violated()


def test_mixed_workload_f2_full_stack():
    """Workload generator + namespaces + byzantine + checkers, f = 2."""
    spec = WorkloadSpec(num_ops=80, read_ratio=0.75, num_keys=4,
                        num_writers=2, num_readers=3, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(12, "scale"))
    system = RegisterSystem("bsr", f=2, seed=12, namespaced=True,
                            num_writers=2, num_readers=3, initial_value=b"",
                            byzantine={2: "random", 6: "flip_flop"},
                            delay_model=UniformDelay(0.2, 1.0))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    from repro.consistency import check_safety_per_register
    check_safety_per_register(trace, initial_value=b"").raise_if_violated()
