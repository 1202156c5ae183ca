"""Tests for the sim adapters: ClientProcess queueing and crash handling."""

import pytest

from repro.core.register import RegisterSystem
from repro.core.bsr import BSRServer
from repro.core.operation import WriteOperation
from repro.core.processes import ClientProcess, ServerProcess
from repro.sim.delays import ConstantDelay
from repro.sim.simulator import Simulator
from repro.types import server_id

N, F = 5, 1
SERVER_IDS = [server_id(i) for i in range(N)]


def make_sim():
    sim = Simulator(seed=1, delay_model=ConstantDelay(1.0))
    for pid in SERVER_IDS:
        sim.add_process(ServerProcess(pid, BSRServer(pid)))
    return sim


def write_factory(value):
    return lambda: WriteOperation("w000", SERVER_IDS, F, value)


def test_single_operation_completes():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    client.submit(0.0, write_factory(b"v1"))
    sim.run()
    assert len(client.completions) == 1
    operation, record = client.completions[0]
    assert operation.done and record.complete


def test_busy_flag_and_idle_detection():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    assert client.idle_with_empty_queue
    client.submit(0.0, write_factory(b"v1"))
    sim.run()
    assert client.idle_with_empty_queue
    assert not client.busy


def test_operations_are_serialized_per_client():
    """Two ops submitted for the same instant run one after the other."""
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    client.submit(0.0, write_factory(b"a"))
    client.submit(0.0, write_factory(b"b"))
    sim.run()
    assert len(client.completions) == 2
    (_, first), (_, second) = client.completions
    assert first.responded_at <= second.invoked_at
    assert first.value == b"a" and second.value == b"b"


def test_submission_order_preserved_for_same_time():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    for value in (b"1", b"2", b"3"):
        client.submit(5.0, write_factory(value))
    sim.run()
    assert [record.value for _, record in client.completions] == [b"1", b"2", b"3"]


def test_earlier_time_runs_first_regardless_of_submission_order():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    client.submit(10.0, write_factory(b"later"))
    client.submit(1.0, write_factory(b"earlier"))
    sim.run()
    assert [record.value for _, record in client.completions] == \
        [b"earlier", b"later"]


def test_submit_after_start_works():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    client.submit(0.0, write_factory(b"first"))
    sim.schedule(3.0, lambda: client.submit(3.0, write_factory(b"second")))
    sim.run()
    assert len(client.completions) == 2


def test_crashed_client_abandons_in_flight_and_queued_ops():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    client.submit(0.0, write_factory(b"doomed"))
    client.submit(0.0, write_factory(b"never-started"))
    sim.schedule(0.5, lambda: sim.crash("w000"))
    sim.run()
    assert client.completions == []


def test_on_complete_callback_invoked():
    sim = make_sim()
    client = sim.add_process(ClientProcess("w000"))
    seen = []
    client.submit(0.0, write_factory(b"x"),
                  on_complete=lambda op, rec: seen.append((op.result, rec.latency)))
    sim.run()
    assert len(seen) == 1
    assert seen[0][1] == pytest.approx(4.0)  # two round trips


def test_crashed_server_process_ignores_messages():
    sim = Simulator(seed=1, delay_model=ConstantDelay(1.0))
    protocol = BSRServer("s000")
    process = sim.add_process(ServerProcess("s000", protocol))
    process.crash()
    from repro.core.messages import PutData
    from repro.core.tags import Tag
    process.on_message("w", PutData(op_id=1, tag=Tag(1, "w"), payload=b"x"))
    assert len(protocol.history) == 1  # nothing stored


def test_stale_replies_from_previous_op_ignored():
    """Replies matching an old op_id must not confuse the next operation."""
    system = RegisterSystem("bsr", f=1, seed=5, delay_model=ConstantDelay(1.0))
    first = system.write(b"one", writer=0, at=0.0)
    second = system.write(b"two", writer=0, at=100.0)
    system.run()
    assert first.value.num == 1
    assert second.value.num == 2
