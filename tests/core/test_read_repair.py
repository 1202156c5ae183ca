"""Tests for the read-repair extension of BSR reads."""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.core.messages import PutData
from repro.core.tags import TAG_ZERO
from repro.sim.delays import ConstantDelay, RuleBasedDelays, UniformDelay
from repro.types import server_id, writer_id


def scattered_system(read_repair):
    """W1's PUT-DATA to the last server is held; one read at t=10."""
    delays = RuleBasedDelays(fallback=ConstantDelay(0.5))
    delays.hold(lambda src, dst, msg: (isinstance(msg, PutData)
                                       and src == writer_id(0)
                                       and dst == server_id(4)))
    system = RegisterSystem("bsr", f=1, seed=2, delay_model=delays,
                            initial_value=b"v0", read_repair=read_repair)
    system.write(b"repaired?", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    return system, read


def test_repair_catches_up_lagging_server():
    system, read = scattered_system(read_repair=True)
    system.run(release_held_at_end=False)
    assert read.value == b"repaired?"
    # The straggler never saw the writer's PUT-DATA (held), yet the read's
    # repair delivered the pair.
    straggler = system.server_protocols[server_id(4)]
    assert straggler.latest.value == b"repaired?"


def test_without_repair_straggler_stays_stale():
    system, read = scattered_system(read_repair=False)
    system.run(release_held_at_end=False)
    assert read.value == b"repaired?"
    straggler = system.server_protocols[server_id(4)]
    assert straggler.latest.tag == TAG_ZERO


def test_repair_does_not_add_read_rounds_or_latency():
    with_repair, read_repaired = scattered_system(read_repair=True)
    with_repair.run(release_held_at_end=False)
    without, read_plain = scattered_system(read_repair=False)
    without.run(release_held_at_end=False)
    assert read_repaired.rounds == read_plain.rounds == 1
    assert read_repaired.latency == read_plain.latency


def test_repair_never_pushes_initial_value():
    system = RegisterSystem("bsr", f=1, seed=3, read_repair=True,
                            delay_model=ConstantDelay(0.5), initial_value=b"v0")
    system.read(reader=0, at=0.0)  # nothing written yet
    system.run()
    stats = system.network_stats()
    assert "PutData" not in stats.per_type_count  # no pointless repair


def test_repair_is_safe_under_byzantine_server():
    system = RegisterSystem("bsr", f=1, seed=4, read_repair=True,
                            initial_value=b"v0",
                            byzantine={1: "forge_tag"},
                            delay_model=UniformDelay(0.3, 1.0))
    system.write(b"genuine", writer=0, at=0.0)
    for i in range(3):
        system.read(reader=i % 2, at=20.0 + i * 10.0)
    trace = system.run()
    check_safety(trace, initial_value=b"v0").raise_if_violated()
    # The forged pair never had f+1 witnesses, so it was never repaired
    # into any correct server.
    for pid, protocol in system.server_protocols.items():
        if pid == "s001":
            continue
        values = [pair.value for pair in protocol.history]
        assert b"\xde\xad" not in values


def test_repaired_pair_acks_do_not_confuse_next_operation():
    system, read = scattered_system(read_repair=True)
    second = system.read(reader=0, at=20.0)
    system.run(release_held_at_end=False)
    assert second.value == b"repaired?"
