"""The reliable-broadcast 'all or none' property, end to end.

The paper's whole premise is that this property costs 1.5 rounds to get --
so the baseline's RB layer must actually provide it: if any correct server
delivers a write, every correct server eventually delivers it, even when
the *source crashes mid-broadcast*.
"""

import pytest

from repro.core.register import RegisterSystem
from repro.core.messages import RBSend
from repro.sim.delays import ConstantDelay, RuleBasedDelays
from repro.types import server_id, writer_id


def crashing_source_system(reach: int):
    """Writer crashes after its RBSend reaches only ``reach`` servers."""
    delays = RuleBasedDelays(fallback=ConstantDelay(0.5))
    slow_targets = {server_id(i) for i in range(reach, 4)}
    delays.add_rule(
        lambda src, dst, msg: isinstance(msg, RBSend) and dst in slow_targets,
        30.0, label="RBSend copies the crash outruns",
    )
    system = RegisterSystem("rb", f=1, seed=7, initial_value=b"v0",
                            delay_model=delays)
    system.write(b"half-sent", writer=0, at=0.0)
    # Crash after the fast sends are out but before the slow ones land.
    system.crash_client(writer_id(0), at=5.0)
    return system


def delivered_count(system) -> int:
    return sum(
        1 for protocol in system.server_protocols.values()
        if protocol.latest.value == b"half-sent"
    )


def test_source_crash_after_reaching_quorum_of_echoers():
    """SEND reached 3 of 4 servers: echo threshold (3) is met, so ALL
    correct servers must deliver despite the dead source."""
    system = crashing_source_system(reach=3)
    system.run()
    assert delivered_count(system) == 4  # all or none: all


def test_no_partial_delivery_visible_to_a_late_reader():
    """Whatever happens to the broadcast, a later read never sees a state
    that violates safety."""
    from repro.consistency import check_safety
    system = crashing_source_system(reach=3)
    read = system.read(reader=0, at=60.0)
    trace = system.run()
    assert read.done
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_send_to_single_server_stays_undelivered_until_messages_arrive():
    """SEND reached only 1 server: below the echo threshold nothing
    delivers -- the 'none' side of all-or-none -- until the channel's
    reliability finally delivers the slow copies (and then: all)."""
    system = crashing_source_system(reach=1)
    system.sim.run_for(20.0)   # slow sends (30s) have not landed yet
    assert delivered_count(system) == 0
    system.run()               # let the remaining sends land
    assert delivered_count(system) == 4
