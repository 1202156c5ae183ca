"""Unit tests for workload specification and schedule generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.workloads import (
    ScheduledOp,
    TAO_READ_RATIO,
    WorkloadSpec,
    apply_schedule,
    generate_schedule,
)
from repro.workloads.generator import make_value


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(read_ratio=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(num_ops=-1)
    with pytest.raises(ValueError):
        WorkloadSpec(mean_interarrival=0)
    with pytest.raises(ValueError):
        WorkloadSpec(num_writers=0)


def test_make_value_unique_and_sized():
    a = make_value(1, 64)
    b = make_value(2, 64)
    assert a != b
    assert len(a) == len(b) == 64


def test_make_value_small_sizes_keep_uniqueness():
    # The unique sequence header is never truncated, even below `size`.
    assert make_value(1, 4) != make_value(2, 4)
    assert len(make_value(1, 0)) == 11  # full header survives


def test_schedule_is_deterministic():
    spec = WorkloadSpec(num_ops=50)
    a = generate_schedule(spec, SimRng(7, "wl"))
    b = generate_schedule(spec, SimRng(7, "wl"))
    assert a == b


def test_schedule_length_and_monotone_times():
    spec = WorkloadSpec(num_ops=100)
    schedule = generate_schedule(spec, SimRng(3, "wl"))
    assert len(schedule) == 100
    times = [op.at for op in schedule]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_read_ratio_roughly_respected():
    spec = WorkloadSpec(num_ops=1000, read_ratio=0.9)
    schedule = generate_schedule(spec, SimRng(5, "wl"))
    reads = sum(1 for op in schedule if op.kind == "read")
    assert 850 <= reads <= 950


def test_all_reads_at_ratio_one():
    spec = WorkloadSpec(num_ops=50, read_ratio=1.0)
    schedule = generate_schedule(spec, SimRng(5, "wl"))
    assert all(op.kind == "read" for op in schedule)


def test_written_values_are_unique():
    spec = WorkloadSpec(num_ops=300, read_ratio=0.5)
    schedule = generate_schedule(spec, SimRng(9, "wl"))
    values = [op.value for op in schedule if op.kind == "write"]
    assert len(values) == len(set(values))


def test_client_indexes_in_range():
    spec = WorkloadSpec(num_ops=200, num_writers=3, num_readers=5)
    schedule = generate_schedule(spec, SimRng(11, "wl"))
    for op in schedule:
        if op.kind == "write":
            assert 0 <= op.client_index < 3
        else:
            assert 0 <= op.client_index < 5


def test_round_robin_mode_cycles_clients():
    spec = WorkloadSpec(num_ops=12, read_ratio=0.0, num_writers=3,
                        randomize_clients=False)
    schedule = generate_schedule(spec, SimRng(2, "wl"))
    assert [op.client_index for op in schedule] == [0, 1, 2] * 4


def test_tao_ratio_constant():
    assert TAO_READ_RATIO == 0.998


def test_apply_schedule_end_to_end_is_safe():
    spec = WorkloadSpec(num_ops=120, read_ratio=0.8, num_writers=2,
                        num_readers=3, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(21, "wl"))
    system = RegisterSystem("bsr", f=1, seed=21, num_writers=2, num_readers=3,
                            delay_model=UniformDelay(0.3, 1.0))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    check_safety(trace).raise_if_violated()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=100),
       st.floats(min_value=0.0, max_value=1.0))
def test_schedule_respects_num_ops_property(num_ops, ratio):
    spec = WorkloadSpec(num_ops=num_ops, read_ratio=ratio)
    schedule = generate_schedule(spec, SimRng(1, "wl"))
    assert len(schedule) == num_ops
