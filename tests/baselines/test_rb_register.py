"""Integration tests for the reliable-broadcast baseline register."""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import check_regularity, check_safety
from repro.core.messages import PutData, RBSend
from repro.sim.delays import ConstantDelay, RuleBasedDelays, UniformDelay
from repro.types import server_id, writer_id


def test_runs_at_3f_plus_1():
    system = RegisterSystem("rb", f=1, seed=1, delay_model=ConstantDelay(1.0))
    assert system.n == 4
    system.write(b"v", at=0.0)
    read = system.read(at=20.0)
    system.run()
    assert read.value == b"v"


def test_write_latency_includes_rb_hops():
    """The paper's point: RB costs ~1.5 extra rounds per write."""
    delay = 1.0
    rb = RegisterSystem("rb", f=1, seed=1, delay_model=ConstantDelay(delay))
    rb_write = rb.write(b"v", at=0.0)
    rb.run()
    bsr = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(delay))
    bsr_write = bsr.write(b"v", at=0.0)
    bsr.run()
    assert bsr_write.latency == pytest.approx(4 * delay)   # 2 round trips
    # RB write: get-tag (2 delays) + SEND + ECHO + READY + ack (4 delays).
    assert rb_write.latency == pytest.approx(6 * delay)
    assert rb_write.latency / bsr_write.latency == pytest.approx(1.5)


def test_write_uses_rbsend_not_putdata():
    system = RegisterSystem("rb", f=1, seed=1, delay_model=ConstantDelay(1.0))
    system.write(b"v", at=0.0)
    system.run()
    stats = system.network_stats()
    assert "RBSend" in stats.per_type_count
    assert "RBEcho" in stats.per_type_count
    assert "RBReady" in stats.per_type_count
    assert "PutData" not in stats.per_type_count


def test_relay_unblocks_scattered_read():
    """A Theorem-3-like schedule: the RB baseline's relay saves the read.

    The writer's RBSend reaches only one server quickly; Bracha's echo
    amplification plus the server push (relay) still lets a concurrent read
    terminate with a fresh value -- the behaviour BSR deliberately trades
    away to avoid server-to-server traffic.
    """
    delays = RuleBasedDelays(fallback=ConstantDelay(0.1))
    # RBSend from the writer is slow to all but s000.
    delays.add_rule(
        lambda src, dst, msg: (isinstance(msg, RBSend) and src == writer_id(0)
                               and dst != server_id(0)),
        30.0, label="writer's sends mostly slow",
    )
    system = RegisterSystem("rb", f=1, seed=3, delay_model=delays,
                            initial_value=b"v0")
    system.write(b"fresh", writer=0, at=0.0)
    read = system.read(reader=0, at=5.0)   # well before the slow sends land
    trace = system.run()
    assert read.done
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_read_not_fooled_by_stale_byzantine_pair():
    system = RegisterSystem("rb", f=1, seed=5, initial_value=b"v0",
                            delay_model=UniformDelay(0.5, 2.0),
                            byzantine={0: "stale"})
    system.write(b"current", at=0.0)
    read = system.read(at=20.0)
    trace = system.run()
    assert read.value == b"current"
    check_regularity(trace, initial_value=b"v0").raise_if_violated()


def test_sequence_of_writes_reads_regular():
    system = RegisterSystem("rb", f=1, seed=6, num_writers=2, num_readers=2,
                            delay_model=UniformDelay(0.5, 1.5))
    for i in range(4):
        system.write(f"v{i}".encode(), writer=i % 2, at=i * 15.0)
        system.read(reader=i % 2, at=i * 15.0 + 7.0)
    trace = system.run()
    check_regularity(trace).raise_if_violated()
