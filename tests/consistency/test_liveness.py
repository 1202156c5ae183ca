"""Tests for the finite-run liveness checker."""

from repro.core.register import RegisterSystem
from repro.consistency import check_liveness
from repro.sim.delays import ConstantDelay


def test_all_complete_is_live():
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(1.0))
    system.write(b"v", at=0.0)
    system.read(at=10.0)
    trace = system.run()
    check_liveness(trace).raise_if_violated()


def test_crashed_client_flagged_unless_allowed():
    system = RegisterSystem("bsr", f=1, seed=2, delay_model=ConstantDelay(2.0))
    system.write(b"doomed", writer=0, at=0.0)
    system.crash_client("w000", at=1.0)
    trace = system.run()
    assert not check_liveness(trace).ok
    check_liveness(trace, allowed_incomplete=["w000"]).raise_if_violated()


def test_too_many_crashed_servers_flagged():
    system = RegisterSystem("bsr", f=1, seed=3, delay_model=ConstantDelay(1.0))
    system.crash_server(0, at=0.1)
    system.crash_server(1, at=0.1)  # f + 1 crashes: beyond the budget
    write = system.write(b"stuck", writer=0, at=1.0)
    system.sim.run_for(50.0)
    assert not write.done
    result = check_liveness(system.trace)
    assert not result.ok
    assert "never completed" in str(result.violations[0])
