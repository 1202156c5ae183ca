"""Tests for Zipf-keyed (multi-register) workloads and per-register checks."""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import (
    check_safety_per_register,
    split_trace_by_register,
)
from repro.consistency.registers import UNNAMED
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.workloads import WorkloadSpec, apply_schedule, generate_schedule


def test_spec_validates_keys():
    with pytest.raises(ValueError):
        WorkloadSpec(num_keys=0)
    with pytest.raises(ValueError):
        WorkloadSpec(key_skew=-1)


def test_single_key_spec_has_no_registers():
    spec = WorkloadSpec(num_ops=20, num_keys=1)
    schedule = generate_schedule(spec, SimRng(1, "keys"))
    assert all(op.register is None for op in schedule)


def test_multi_key_spec_assigns_registers():
    spec = WorkloadSpec(num_ops=200, num_keys=10, key_skew=0.99)
    schedule = generate_schedule(spec, SimRng(2, "keys"))
    registers = {op.register for op in schedule}
    assert all(register is not None for register in registers)
    assert len(registers) > 1


def test_zipf_skew_concentrates_on_hot_keys():
    spec = WorkloadSpec(num_ops=500, num_keys=50, key_skew=1.2)
    schedule = generate_schedule(spec, SimRng(3, "keys"))
    hot = sum(1 for op in schedule if op.register == "key-0000")
    assert hot > 500 / 50 * 3  # far above the uniform share


def test_keyed_workload_end_to_end_per_register_safety():
    spec = WorkloadSpec(num_ops=120, read_ratio=0.7, num_keys=5,
                        num_writers=2, num_readers=2, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(4, "keys"))
    system = RegisterSystem("bsr", f=1, seed=4, namespaced=True,
                            num_writers=2, num_readers=2, initial_value=b"",
                            delay_model=UniformDelay(0.3, 1.0))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    check_safety_per_register(trace, initial_value=b"").raise_if_violated()


def test_split_trace_groups_records():
    system = RegisterSystem("bsr", f=1, seed=5, namespaced=True,
                            delay_model=UniformDelay(0.3, 1.0))
    system.write(b"a", at=0.0, register="alpha")
    system.write(b"b", writer=1, at=0.0, register="beta")
    system.read(at=10.0, register="alpha")
    trace = system.run()
    buckets = split_trace_by_register(trace)
    assert set(buckets) == {"alpha", "beta"}
    assert len(buckets["alpha"].operations) == 2
    assert len(buckets["beta"].operations) == 1


def test_unnamed_bucket_for_plain_systems():
    system = RegisterSystem("bsr", f=1, seed=6,
                            delay_model=UniformDelay(0.3, 1.0))
    system.write(b"x", at=0.0)
    trace = system.run()
    buckets = split_trace_by_register(trace)
    assert set(buckets) == {UNNAMED}


def test_cross_register_staleness_is_not_a_violation():
    """A read of register B returning B's initial value is fine even though
    register A has newer data -- per-register checking must not conflate."""
    system = RegisterSystem("bsr", f=1, seed=7, namespaced=True,
                            initial_value=b"", delay_model=UniformDelay(0.3, 1.0))
    system.write(b"0000000001-fresh", at=0.0, register="a")
    read = system.read(at=20.0, register="b")
    trace = system.run()
    assert read.value == b""
    check_safety_per_register(trace, initial_value=b"").raise_if_violated()


# -- ZipfSampler and the keys / zipf_s aliases --------------------------------

def test_zipf_sampler_ranks_hottest_first():
    from repro.workloads import ZipfSampler

    sampler = ZipfSampler(100, 1.2)
    rng = SimRng(9, "zipf")
    draws = [sampler.sample(rng) for _ in range(3000)]
    assert all(0 <= d < 100 for d in draws)
    assert draws.count(0) > draws.count(50)
    assert draws.count(0) > 3000 / 100 * 3


def test_zipf_sampler_zero_skew_is_uniform():
    from repro.workloads import ZipfSampler

    sampler = ZipfSampler(10, 0.0)
    rng = SimRng(10, "zipf-uniform")
    draws = [sampler.sample(rng) for _ in range(5000)]
    counts = [draws.count(i) for i in range(10)]
    assert min(counts) > 300  # every index drawn roughly evenly


def test_zipf_sampler_scales_to_many_keys():
    from repro.workloads import ZipfSampler

    sampler = ZipfSampler(10_000, 1.1)
    rng = SimRng(11, "zipf-wide")
    draws = [sampler.sample(rng) for _ in range(1000)]
    assert all(0 <= d < 10_000 for d in draws)
    assert len(set(draws)) > 100  # the tail is reachable


def test_zipf_sampler_validates():
    from repro.workloads import ZipfSampler

    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.5)


def test_keys_alias_overrides_num_keys():
    spec = WorkloadSpec(num_ops=10, keys=50, zipf_s=1.3)
    assert spec.num_keys == 50
    assert spec.key_skew == 1.3
    assert spec.keys == 50 and spec.zipf_s == 1.3


def test_aliases_mirror_canonical_fields():
    spec = WorkloadSpec(num_ops=10, num_keys=7, key_skew=0.8)
    assert spec.keys == 7
    assert spec.zipf_s == 0.8


def test_schedule_uses_key_name_format():
    spec = WorkloadSpec(num_ops=100, keys=10_000, zipf_s=1.1)
    schedule = generate_schedule(spec, SimRng(12, "wide-keys"))
    for op in schedule:
        assert op.register is not None
        assert op.register.startswith("key-")
        assert 0 <= int(op.register[4:]) < 10_000
