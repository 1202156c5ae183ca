"""Per-key consistency over interleaved multi-key histories.

The register abstraction composes: operations on different keys never
interact, so a multi-key history is safe/regular/atomic iff every key's
projection is.  These tests interleave operations across many keys of a
sharded system and check each guarantee key by key.
"""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import (
    check_atomicity_by_tags,
    check_atomicity_per_register,
    check_regularity_per_register,
    check_safety_per_register,
)
from repro.sharding import KeyspaceConfig, key_name
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.workloads import WorkloadSpec, apply_schedule, generate_schedule


def run_keyed(algorithm, checker, seed, keys=8, ops=160, **system_kwargs):
    spec = WorkloadSpec(num_ops=ops, read_ratio=0.6, keys=keys, zipf_s=1.1,
                        num_writers=2, num_readers=2, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(seed, "multikey"))
    system = RegisterSystem(
        algorithm, f=1, seed=seed, num_writers=2, num_readers=2,
        keyspace=KeyspaceConfig(group_size=9, seed=seed),
        n=9, delay_model=UniformDelay(0.3, 1.0), **system_kwargs)
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    return checker(trace)


def test_bsr_interleaved_keys_are_safe_per_key():
    result = run_keyed("bsr", check_safety_per_register, seed=11)
    assert result.ok, result.violations
    assert result.reads_checked > 0


def test_bsr_history_interleaved_keys_are_regular_per_key():
    result = run_keyed("bsr-history", check_regularity_per_register, seed=12)
    assert result.ok, result.violations
    assert result.reads_checked > 0


def test_abd_interleaved_keys_are_atomic_per_key():
    result = run_keyed("abd", check_atomicity_per_register, seed=13)
    assert result.ok, result.violations
    assert result.reads_checked > 0


def test_sharded_groups_preserve_safety():
    # Groups smaller than the fleet: each key runs on its own 5 of 9.
    spec = WorkloadSpec(num_ops=120, read_ratio=0.6, keys=12, zipf_s=1.0,
                        num_writers=2, num_readers=2, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(21, "multikey-groups"))
    system = RegisterSystem(
        "bsr", f=1, n=9, seed=21, num_writers=2, num_readers=2,
        keyspace=KeyspaceConfig(group_size=5, seed=21),
        delay_model=UniformDelay(0.3, 1.0))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    result = check_safety_per_register(trace, initial_value=b"")
    assert result.ok, result.violations


def test_per_key_split_is_required_for_atomicity():
    """Tags restart at zero per key, so the whole-trace tag checker sees
    spurious duplicate-tag/ordering conflicts a per-key split does not."""
    system = RegisterSystem(
        "abd", f=1, seed=31, num_writers=2, num_readers=2,
        keyspace=KeyspaceConfig(group_size=3, seed=31), n=3,
        delay_model=UniformDelay(0.3, 1.0))
    # Key A advances to tag (2, w000); key B's first write only reaches
    # tag (1, w001).  A later read of B then *looks* stale to a checker
    # comparing tags across the whole trace, though per key all is well.
    system.write(b"a1", writer=0, at=0.0, register=key_name(0))
    system.write(b"a2", writer=0, at=10.0, register=key_name(0))
    system.write(b"b1", writer=1, at=20.0, register=key_name(1))
    system.read(reader=1, at=30.0, register=key_name(1))
    trace = system.run()
    whole = check_atomicity_by_tags(trace)
    split = check_atomicity_per_register(trace)
    assert not whole.ok      # cross-key tag comparison misfires
    assert split.ok, split.violations


def test_cross_key_reads_never_leak_values():
    system = RegisterSystem(
        "bsr", f=1, n=9, seed=41, num_writers=1, num_readers=1,
        keyspace=KeyspaceConfig(group_size=5, seed=41),
        delay_model=UniformDelay(0.3, 1.0))
    system.write(b"only-on-a", at=0.0, register="a")
    read = system.read(at=10.0, register="b")
    system.run()
    assert read.value == b""  # b is untouched; a's value must not appear


def test_eviction_does_not_break_per_key_safety():
    # A residency cap far below the key count forces constant demotion
    # and rehydration during the run.
    spec = WorkloadSpec(num_ops=150, read_ratio=0.5, keys=20, zipf_s=0.5,
                        num_writers=2, num_readers=2, mean_interarrival=2.0)
    schedule = generate_schedule(spec, SimRng(51, "multikey-evict"))
    system = RegisterSystem(
        "bsr", f=1, n=9, seed=51, num_writers=2, num_readers=2,
        keyspace=KeyspaceConfig(group_size=5, seed=51, max_resident=3),
        delay_model=UniformDelay(0.3, 1.0))
    handles = apply_schedule(system, schedule)
    trace = system.run()
    assert all(handle.done for handle in handles)
    result = check_safety_per_register(trace, initial_value=b"")
    assert result.ok, result.violations
    evictions = sum(
        len(protocol.archived_keys)
        for protocol in system.server_protocols.values())
    assert evictions > 0  # the cap actually bit during the run
