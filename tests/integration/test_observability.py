"""Cross-cutting observability: event log + trace + stats agree."""

import pytest

from repro.core.register import RegisterSystem
from repro.byzantine.scenarios import theorem3_regularity_violation
from repro.sim.delays import ConstantDelay
from repro.sim.eventlog import EventLog


def test_eventlog_shows_theorem3_scatter():
    """The adversarial schedule is visible in the captured message flow."""
    from repro.byzantine import scenarios as sc
    from repro.core.messages import PutData
    from repro.sim.delays import RuleBasedDelays
    from repro.types import server_id, writer_id

    delays = RuleBasedDelays(fallback=ConstantDelay(0.1))
    for i in range(1, 5):
        writer, fast_server = writer_id(i), server_id(i)

        def match(src, dst, msg, writer=writer, fast_server=fast_server):
            return (isinstance(msg, PutData) and src == writer
                    and dst != fast_server)

        delays.hold(match)
    system = RegisterSystem("bsr", f=1, n=5, num_writers=5, num_readers=1,
                            seed=0, delay_model=delays, initial_value=b"v0")
    log = EventLog.attach(system.sim)
    system.write(b"v1", writer=0, at=0.0)
    for i in range(1, 5):
        system.write(f"v{i + 1}".encode(), writer=i, at=10.0)
    read = system.read(reader=0, at=20.0)
    system.run(release_held_at_end=False)

    # Every writer broadcast PUT-DATA to all five servers...
    assert log.count(kind="send", message_type="PutData") == 25
    # ...but the held copies were never delivered during the run window:
    # writer w001..w004's puts reached exactly one server each.
    for i in range(1, 5):
        delivered = log.count(kind="deliver", src=f"w{i:03d}",
                              message_type="PutData")
        assert delivered == 1
    assert read.value == b"v0"


def test_eventlog_counts_match_network_stats_per_type():
    system = RegisterSystem("bcsr", f=1, seed=2, delay_model=ConstantDelay(1.0))
    log = EventLog.attach(system.sim)
    system.write(b"counted", at=0.0)
    system.read(at=10.0)
    system.run()
    stats = system.network_stats()
    for message_type, count in stats.per_type_count.items():
        assert log.count(kind="send", message_type=message_type) == count


def test_eventlog_namespaced_messages():
    system = RegisterSystem("bsr", f=1, seed=3, namespaced=True,
                            delay_model=ConstantDelay(1.0))
    log = EventLog.attach(system.sim)
    system.write(b"n", at=0.0, register="inventory")
    system.run()
    sends = log.filter(kind="send", message_type="NamespacedMessage")
    assert sends
    assert "register='inventory'" in log.render(message_type="NamespacedMessage")


def test_trace_and_handles_agree():
    system = RegisterSystem("bsr", f=1, seed=4, delay_model=ConstantDelay(1.0))
    handles = [system.write(b"a", at=0.0), system.read(at=10.0)]
    trace = system.run()
    assert len(trace.completed) == len(handles) == 2
    for handle in handles:
        assert handle.record in trace.operations
        assert handle.latency == handle.record.latency
