"""The correctness gate trips on every kind of wrong read."""

import asyncio
import random

import pytest

from gate import Gate, Rec, chunk_history, token_of
from harness import MAX_FAIL_RATIO, OpRunner, Report
from loadgen import closed_loop
from repro.consistency import check_safety
from repro.sim.trace import OpKind, Trace
from workloads import WORKLOADS, op_stream

WORKLOAD = WORKLOADS["write50"]


class FakeClient:
    """Stores writes per register; ``tamper`` rewrites what reads return."""

    def __init__(self, client_id, store, tamper=None, fail=False):
        self.client_id = client_id
        self.store = store
        self.tamper = tamper
        self.fail = fail

    async def write(self, value, register="default"):
        await asyncio.sleep(0)
        if self.fail:
            raise TimeoutError("synthetic failure")
        self.store.setdefault(register, []).append(value)

    async def read(self, register="default"):
        await asyncio.sleep(0)
        written = self.store.get(register, [])
        value = written[-1] if written else b""
        return self.tamper(register, value) if self.tamper else value


def drive(tamper=None, fail=False, seconds=0.2):
    gate = Gate(WORKLOAD.value_size, 7, WORKLOAD.sampled_keys)
    store = {}
    clients = [FakeClient(f"g{i}", store, tamper, fail) for i in range(2)]
    runner = OpRunner(WORKLOAD, clients, gate)
    report = Report()
    report.tally(asyncio.run(closed_loop(
        runner, op_stream(WORKLOAD, 7, "test"), 4, seconds)))
    gate.verify()
    report.violations = list(gate.violations)
    return gate, report


def test_honest_clients_pass_the_gate():
    gate, report = drive()
    assert gate.reads_checked > 50
    assert report.violations == []
    assert report.correct


def test_foreign_key_value_trips_the_gate():
    def other_keys_value(register, value):
        return value.replace(register.encode(), b"key-9999", 1)

    gate, report = drive(other_keys_value)
    assert any("cross-register" in v for v in report.violations)
    assert not report.correct


def test_corrupted_payload_trips_the_gate():
    def flip_last_byte(register, value):
        return value[:-1] + bytes([value[-1] ^ 0x01]) if value else value

    gate, report = drive(flip_last_byte)
    assert any("corrupted payload" in v for v in report.violations)
    assert not report.correct


def test_never_written_value_trips_the_gate():
    forger = Gate(WORKLOAD.value_size, 7)

    def fabricated(register, value):
        # Well-formed, self-consistent, for the right key -- but minted
        # by somebody else: this generator never issued it.
        return forger.mint(register, "g0") if value else value

    gate, report = drive(fabricated)
    assert any("never wrote" in v for v in report.violations)
    assert not report.correct


def test_byzantine_garbage_trips_the_gate():
    gate, report = drive(lambda register, value: b"\xde\xad")
    assert any("unparseable" in v for v in report.violations)


def test_stale_read_on_a_sampled_key_trips_the_safety_checker():
    """Passes every self-certifying check; only the history check sees it."""
    key = WORKLOAD.sampled_keys[0]
    gate = Gate(WORKLOAD.value_size, 7, WORKLOAD.sampled_keys)
    old = gate.mint(key, "g0")
    new = gate.mint(key, "g0")
    for i, value in enumerate((old, new)):
        slot = gate.began_write(key, "g0", value, start=float(i))
        gate.completed_write(key, slot, end=i + 0.5)
    assert gate.check_read(key, old) is None
    gate.completed_read(key, "g1", old, start=2.0, end=2.5)
    summary = gate.verify()
    assert summary["violations"] == 1
    assert any(v.startswith("safety:") for v in gate.violations)


def test_failures_over_the_bound_make_the_run_incorrect():
    gate, report = drive(fail=True)
    assert report.failed > 0
    assert report.fail_ratio > MAX_FAIL_RATIO
    assert not report.correct


def _whole_history_violations(records):
    trace = Trace()
    for rec in records:
        kind = OpKind.WRITE if rec.write else OpKind.READ
        entry = trace.begin(rec.client, kind, rec.start,
                            value=rec.token if rec.write else None)
        if rec.end is not None:
            trace.complete(entry, rec.end, value=rec.token)
    written = {rec.token for rec in records if rec.write}
    result = check_safety(trace, initial_value=b"", extra_values=written)
    return sorted(v.operations[0].invoked_at for v in result.violations)


@pytest.mark.parametrize("seed", range(8))
def test_chunked_check_gives_the_whole_history_verdict(seed):
    rng = random.Random(seed)
    records, clock, tokens = [], 0.0, [b""]
    for i in range(300):
        clock += rng.random() * 0.5
        duration = rng.random() * 1.5
        if rng.random() < 0.3:
            token = b"w|%d" % i
            tokens.append(token)
            end = None if rng.random() < 0.05 else clock + duration
            records.append(Rec("w", True, clock, end, token))
        else:
            # Mostly recent values, sometimes an old or a bogus one.
            token = (rng.choice(tokens[-3:]) if rng.random() < 0.8
                     else rng.choice(tokens + [b"bogus"]))
            records.append(Rec("r", False, clock, clock + duration, token))
    expected = _whole_history_violations(records)
    assert expected, "the history should contain violations to find"
    chunked = []
    for chunk in chunk_history(records, chunk_reads=16):
        assert len(chunk) < len(records)
        # Writes the chunk dropped are still in the value domain.
        trace = Trace()
        for rec in chunk:
            kind = OpKind.WRITE if rec.write else OpKind.READ
            entry = trace.begin(rec.client, kind, rec.start,
                                value=rec.token if rec.write else None)
            if rec.end is not None:
                trace.complete(entry, rec.end, value=rec.token)
        result = check_safety(
            trace, initial_value=b"",
            extra_values={r.token for r in records if r.write})
        chunked += [v.operations[0].invoked_at for v in result.violations]
    assert sorted(chunked) == expected


def test_token_identifies_a_checked_value():
    gate = Gate(64, 1)
    value = gate.mint("key-0001", "g1")
    assert token_of(value) == b"g1|1"
    assert token_of(b"") == b""
