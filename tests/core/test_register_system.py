"""Integration tests for the RegisterSystem facade (all algorithms)."""

import pytest

from repro.core.register import RegisterSystem
from repro.byzantine.behaviors import make_behavior
from repro.consistency import check_atomicity_by_tags, check_safety
from repro.errors import ConfigurationError
from repro.sim.delays import ConstantDelay, UniformDelay

ALL = ("bsr", "bsr-history", "bsr-2round", "bcsr", "rb", "abd")
ONE_SHOT = ("bsr", "bsr-history", "bcsr")


@pytest.mark.parametrize("algorithm", ALL)
def test_write_then_read_returns_value(algorithm):
    system = RegisterSystem(algorithm, f=1, seed=7,
                            delay_model=UniformDelay(0.5, 2.0))
    system.write(b"payload", writer=0, at=0.0)
    read = system.read(reader=0, at=20.0)
    system.run()
    assert read.value == b"payload"


@pytest.mark.parametrize("algorithm", ALL)
def test_read_before_any_write_returns_initial(algorithm):
    system = RegisterSystem(algorithm, f=1, seed=3, initial_value=b"genesis",
                            delay_model=ConstantDelay(1.0))
    read = system.read(reader=0, at=0.0)
    system.run()
    assert read.value == b"genesis"


@pytest.mark.parametrize("algorithm", ONE_SHOT)
def test_one_shot_reads_take_one_round(algorithm):
    system = RegisterSystem(algorithm, f=1, seed=5,
                            delay_model=ConstantDelay(1.0))
    system.write(b"v", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    assert read.rounds == 1
    # one round trip = exactly 2 constant delays
    assert read.latency == pytest.approx(2.0)


def test_two_round_variant_takes_two_rounds():
    system = RegisterSystem("bsr-2round", f=1, seed=5,
                            delay_model=ConstantDelay(1.0))
    system.write(b"v", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    assert read.rounds == 2
    assert read.latency == pytest.approx(4.0)


@pytest.mark.parametrize("algorithm", ALL)
def test_writes_take_two_client_rounds(algorithm):
    system = RegisterSystem(algorithm, f=1, seed=5,
                            delay_model=ConstantDelay(1.0))
    write = system.write(b"v", writer=0, at=0.0)
    system.run()
    assert write.rounds == 2
    if algorithm == "rb":
        # Bracha adds ECHO + READY server hops before any ack.
        assert write.latency > 4.0
    else:
        assert write.latency == pytest.approx(4.0)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigurationError):
        RegisterSystem("paxos")


@pytest.mark.parametrize("algorithm,n", [("bsr", 4), ("bcsr", 5),
                                         ("rb", 3), ("abd", 2)])
def test_below_bound_rejected(algorithm, n):
    with pytest.raises(ConfigurationError):
        RegisterSystem(algorithm, f=1, n=n)


def test_below_bound_allowed_when_unenforced():
    system = RegisterSystem("bsr", f=1, n=4, enforce_bounds=False)
    assert system.n == 4


def test_too_many_byzantine_rejected():
    with pytest.raises(ConfigurationError):
        RegisterSystem("bsr", f=1, byzantine={0: "silent", 1: "silent"})


def test_unknown_byzantine_server_rejected():
    with pytest.raises(ConfigurationError):
        RegisterSystem("bsr", f=1, byzantine={"s999": "silent"})


def test_byzantine_accepts_instances_and_names():
    system = RegisterSystem("bsr", f=1,
                            byzantine={0: make_behavior("stale")})
    assert "s000" in system.byzantine


@pytest.mark.parametrize("algorithm", ALL)
@pytest.mark.parametrize("behavior", ["silent", "stale", "forge_tag",
                                      "corrupt_value", "equivocate",
                                      "multi_reply", "flip_flop"])
def test_single_byzantine_server_cannot_break_safety(algorithm, behavior):
    if algorithm == "abd":
        pytest.skip("ABD is crash-only; Byzantine servers may break it")
    system = RegisterSystem(algorithm, f=1, seed=11, initial_value=b"v0",
                            delay_model=UniformDelay(0.5, 2.0),
                            byzantine={2: behavior})
    system.write(b"target", writer=0, at=0.0)
    read = system.read(reader=0, at=30.0)
    trace = system.run()
    assert read.value == b"target"
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_crash_f_servers_preserves_liveness():
    system = RegisterSystem("bsr", f=1, seed=9, delay_model=ConstantDelay(1.0))
    system.crash_server(0, at=0.5)
    write = system.write(b"still-works", writer=0, at=1.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    assert write.done and read.done
    assert read.value == b"still-works"


def test_crashed_client_leaves_incomplete_operation():
    system = RegisterSystem("bsr", f=1, seed=9, delay_model=ConstantDelay(2.0))
    write = system.write(b"doomed", writer=0, at=0.0)
    system.crash_client("w000", at=1.0)  # mid-get-tag
    system.run()
    assert not write.done
    records = system.trace.writes()
    assert len(records) == 1 and not records[0].complete


def test_sequential_ops_on_one_client_queue_up():
    system = RegisterSystem("bsr", f=1, seed=2, delay_model=ConstantDelay(1.0))
    first = system.write(b"a", writer=0, at=0.0)
    second = system.write(b"b", writer=0, at=0.0)  # same instant: must queue
    system.run()
    assert first.done and second.done
    assert first.record.responded_at <= second.record.invoked_at


def test_multi_writer_tags_are_distinct_and_ordered():
    system = RegisterSystem("bsr", f=1, seed=4, num_writers=3,
                            delay_model=UniformDelay(0.5, 1.5))
    w1 = system.write(b"one", writer=0, at=0.0)
    w2 = system.write(b"two", writer=1, at=20.0)
    w3 = system.write(b"three", writer=2, at=40.0)
    system.run()
    tags = [w.value for w in (w1, w2, w3)]
    assert len(set(tags)) == 3
    assert tags[0] < tags[1] < tags[2]  # sequential writes: increasing tags


def test_concurrent_writes_get_distinct_tags():
    system = RegisterSystem("bsr", f=1, seed=8, num_writers=4,
                            delay_model=UniformDelay(0.5, 3.0))
    writes = [system.write(f"c{i}".encode(), writer=i, at=0.0) for i in range(4)]
    system.run()
    tags = [w.value for w in writes]
    assert len(set(tags)) == 4


def test_abd_trace_is_atomic():
    system = RegisterSystem("abd", f=1, seed=12, num_readers=3,
                            delay_model=UniformDelay(0.5, 2.0))
    for i in range(4):
        system.write(f"v{i}".encode(), writer=i % 2, at=i * 10.0)
    for i in range(8):
        system.read(reader=i % 3, at=2.0 + i * 5.0)
    trace = system.run()
    check_atomicity_by_tags(trace).raise_if_violated()


def test_storage_bytes_replication_vs_coding():
    value = b"z" * 600
    bsr = RegisterSystem("bsr", f=1, n=6, seed=1, delay_model=ConstantDelay(1.0))
    bsr.write(value, at=0.0)
    bsr.run()
    bcsr = RegisterSystem("bcsr", f=1, n=6, seed=1, delay_model=ConstantDelay(1.0))
    bcsr.write(value, at=0.0)
    bcsr.run()
    bsr_total = sum(bsr.storage_bytes().values())
    bcsr_total = sum(bcsr.storage_bytes().values())
    # replication stores n copies; [6,1] coding also stores ~n/k = 6 units
    # here (k=1), so sizes match at f=1,n=6 -- but per-element size equals
    # value size / k. Use a wider system to see the gap:
    wide = RegisterSystem("bcsr", f=1, n=11, seed=1, delay_model=ConstantDelay(1.0))
    wide.write(value, at=0.0)
    wide.run()
    per_server_wide = max(wide.storage_bytes().values())
    assert per_server_wide < len(value) / 2  # k = 6 -> ~1/6 of the value
    assert bsr_total == 6 * 600
    assert bcsr_total >= bsr_total  # k=1 coding degenerates to replication cost


def test_network_stats_exposed():
    system = RegisterSystem("bsr", f=1, seed=1, delay_model=ConstantDelay(1.0))
    system.write(b"v", at=0.0)
    system.run()
    stats = system.network_stats()
    assert stats.messages_sent > 0
    assert "PutData" in stats.per_type_count


def test_handles_collects_all_operations():
    system = RegisterSystem("bsr", f=1, seed=1)
    system.write(b"a", at=0.0)
    system.read(at=1.0)
    assert [h.kind for h in system.handles] == ["write", "read"]


def test_unresolved_handle_raises_helpfully():
    system = RegisterSystem("bsr", f=1, seed=1)
    read = system.read(at=0.0)
    with pytest.raises(ConfigurationError):
        _ = read.value
