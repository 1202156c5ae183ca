"""Tests for network partitions and healing."""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.sim.delays import ConstantDelay
from repro.sim.partitions import PartitionManager
from repro.types import server_id


def test_partition_validation():
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(1.0))
    manager = PartitionManager.install(system.sim)
    with pytest.raises(ValueError):
        manager.partition_now([{"s000"}])  # one group is not a partition
    with pytest.raises(ValueError):
        manager.partition_now([{"s000"}, {"s000", "s001"}])  # overlap


def test_separated_semantics():
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(1.0))
    manager = PartitionManager.install(system.sim)
    assert not manager.active
    manager.partition_now([{"s000", "s001"}, {"s002", "s003", "s004"}])
    assert manager.active
    assert manager.separated("s000", "s002")
    assert not manager.separated("s000", "s001")
    # Unlisted processes (clients here) are multi-homed.
    assert not manager.separated("w000", "s000")
    assert not manager.separated("s000", "w000")
    manager.heal_now()
    assert not manager.separated("s000", "s002")


def test_minority_stranded_write_blocks_until_heal():
    """A writer stranded with 2 of 5 servers cannot finish -- until heal."""
    system = RegisterSystem("bsr", f=1, seed=2, delay_model=ConstantDelay(1.0))
    manager = PartitionManager.install(system.sim)
    # Strand the writer with two servers only.
    manager.partition_at(0.5, [
        {"w000", "s000", "s001"},
        {"s002", "s003", "s004", "w001", "r000", "r001"},
    ])
    write = system.write(b"stranded", writer=0, at=1.0)
    system.sim.run_for(30.0)
    assert not write.done  # 2 < n - f = 4 reachable servers
    manager.heal_now()
    system.run()
    assert write.done  # held messages released; quorum reached


def test_majority_side_keeps_operating_during_partition():
    system = RegisterSystem("bsr", f=1, seed=3, delay_model=ConstantDelay(1.0))
    manager = PartitionManager.install(system.sim)
    # s000 alone on one side; clients stay multi-homed but s000's replies
    # never matter: 4 = n - f servers remain reachable.
    manager.partition_at(0.5, [
        {server_id(0)},
        {server_id(i) for i in range(1, 5)},
    ])
    write = system.write(b"majority", writer=0, at=1.0)
    read = system.read(reader=0, at=10.0)
    system.sim.run_for(40.0)
    assert write.done and read.done
    assert read.value == b"majority"


def test_cross_partition_messages_survive_heal():
    """Partitions hold (not drop) messages: channels stay reliable."""
    system = RegisterSystem("bsr", f=1, seed=4, delay_model=ConstantDelay(1.0))
    manager = PartitionManager.install(system.sim)
    manager.partition_at(0.5, [
        {server_id(0), server_id(1)},
        {server_id(i) for i in range(2, 5)},
    ])
    # Force server-to-server-free traffic: use rb? BSR has none; verify via
    # a stranded writer instead.
    manager2 = manager  # alias for clarity
    write = system.write(b"later", writer=0, at=1.0)
    manager.heal_at(25.0)
    trace = system.run()
    assert write.done
    check_safety(trace).raise_if_violated()


def test_safety_holds_across_partition_cycles():
    system = RegisterSystem("bsr", f=1, seed=5, num_readers=2,
                            initial_value=b"v0",
                            delay_model=ConstantDelay(0.8))
    manager = PartitionManager.install(system.sim)
    for cycle in range(3):
        base = cycle * 40.0
        manager.partition_at(base + 5.0, [
            {server_id(cycle % 5)},
            {server_id(i) for i in range(5) if i != cycle % 5},
        ])
        manager.heal_at(base + 25.0)
        system.write(f"cycle-{cycle}".encode(), writer=cycle % 2, at=base + 8.0)
        system.read(reader=cycle % 2, at=base + 15.0)
    trace = system.run()
    check_safety(trace, initial_value=b"v0").raise_if_violated()
    reads = trace.reads()
    assert all(read.complete for read in reads)
