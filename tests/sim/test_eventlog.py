"""Tests for the message-flow event log."""

from repro.core.register import RegisterSystem
from repro.sim.delays import ConstantDelay
from repro.sim.eventlog import EventLog


def run_logged_system():
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(1.0))
    log = EventLog.attach(system.sim)
    system.write(b"logged-value", writer=0, at=0.0)
    system.read(reader=0, at=10.0)
    system.run()
    return system, log


def test_log_captures_sends_and_deliveries():
    system, log = run_logged_system()
    assert len(log) > 0
    sends = log.count(kind="send")
    deliveries = log.count(kind="deliver")
    assert sends == system.network_stats().messages_sent
    assert deliveries == system.network_stats().messages_delivered


def test_write_message_pattern():
    _, log = run_logged_system()
    # A write broadcasts QUERY-TAG and PUT-DATA to all 5 servers.
    assert log.count(kind="send", message_type="QueryTag") == 5
    assert log.count(kind="send", message_type="PutData") == 5
    # The one-shot read is a single QUERY-DATA broadcast.
    assert log.count(kind="send", message_type="QueryData") == 5


def test_filter_by_endpoints():
    _, log = run_logged_system()
    to_s000 = log.filter(dst="s000")
    assert to_s000 and all(e.dst == "s000" for e in to_s000)
    from_writer = log.filter(kind="send", src="w000")
    assert from_writer and all(e.src == "w000" for e in from_writer)


def test_deliveries_are_timestamped_after_sends():
    _, log = run_logged_system()
    first_send = log.filter(kind="send")[0]
    matching_delivery = next(
        e for e in log.filter(kind="deliver")
        if e.message_type == first_send.message_type and e.dst == first_send.dst
    )
    assert matching_delivery.time == first_send.time + 1.0  # constant delay


def test_render_is_readable():
    _, log = run_logged_system()
    text = log.render(limit=10)
    assert "PutData" in log.render()
    assert "w000" in text
    assert len(text.splitlines()) == 11  # header + 10 events


def test_render_includes_payload_preview():
    _, log = run_logged_system()
    assert "logged-value" in log.render(message_type="PutData")


def test_events_in_chronological_order():
    _, log = run_logged_system()
    times = [event.time for event in log.events]
    assert times == sorted(times)
