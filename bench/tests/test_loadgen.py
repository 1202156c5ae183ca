"""Generator discipline: seeded streams, honest open-loop latency."""

import asyncio

from loadgen import (
    Sample,
    clock,
    closed_loop,
    latencies,
    open_loop,
    percentile,
)
from workloads import (
    RUNGS,
    TRACED_SHARE,
    WORKLOADS,
    Arrival,
    Op,
    op_stream,
    plan_digest,
    rung_arrivals,
)


def test_streams_are_a_pure_function_of_the_seed():
    w = WORKLOADS["zipf90"]
    assert plan_digest(w, 5, 20) == plan_digest(w, 5, 20)
    assert plan_digest(w, 5, 20) != plan_digest(w, 6, 20)
    first = [next(s) for s in [op_stream(w, 5, "sat")] for _ in range(500)]
    again = [next(s) for s in [op_stream(w, 5, "sat")] for _ in range(500)]
    assert first == again
    assert {op.write for op in first} == {True, False}
    assert max(op.rank for op in first) < w.keys


def test_procs_workload_replays_the_in_process_operations():
    a, b = WORKLOADS["zipf90"], WORKLOADS["zipf90-procs"]
    assert plan_digest(a, 3, 20) == plan_digest(b, 3, 20)
    assert plan_digest(a, 3, 20) != plan_digest(WORKLOADS["write50"], 3, 20)
    assert rung_arrivals(a, 3, 2, 20) == rung_arrivals(b, 3, 2, 20)


def test_ladder_offers_the_declared_rates():
    w = WORKLOADS["zipf90"]
    assert len(w.ladder_rps) == RUNGS
    assert list(w.ladder_rps) == sorted(w.ladder_rps)
    seconds = 100.0
    length = TRACED_SHARE["rung"] * seconds
    arrivals = rung_arrivals(w, 1, 0, seconds)
    assert abs(len(arrivals) / length - w.ladder_rps[0]) < 0.1 * w.ladder_rps[0]
    offsets = [a.offset for a in arrivals]
    assert offsets == sorted(offsets)
    assert 0 <= offsets[0] and offsets[-1] < length


def _steady(count, rate):
    return [Arrival(i / rate, Op(False, 0)) for i in range(count)]


def test_open_loop_charges_latency_from_the_due_instant():
    """A stall delays everything queued behind it; only the due-instant
    latency shows that, the service time of each operation does not."""
    calls = []

    async def stalling(op, session):
        calls.append(clock())
        # Every 100th operation holds its (only) session for 50 ms.
        await asyncio.sleep(0.050 if len(calls) % 100 == 0 else 0.001)
        return True

    result = asyncio.run(open_loop(stalling, _steady(400, 400.0), 1.0,
                                   sessions=1))
    assert len(result.samples) == 400 and result.failed == 0
    from_due = percentile(latencies(result.samples), 0.90)
    service = percentile(latencies(result.samples, from_due=False), 0.90)
    assert service < 0.010
    assert from_due > 3 * service


def test_late_arrivals_are_issued_not_skipped():
    issued = []

    async def slow(op, session):
        issued.append(op)
        await asyncio.sleep(0.004)       # 250/s capacity, 1000/s offered
        return True

    result = asyncio.run(open_loop(slow, _steady(200, 1000.0), 0.2,
                                   sessions=1))
    assert len(issued) == 200            # every due operation ran
    assert result.backlog_end > 100      # and the backlog was seen growing
    assert result.abandoned == 0
    assert max(latencies(result.samples)) > 0.4


def test_unfinished_backlog_is_abandoned_and_counted_as_failed():
    async def stuck(op, session):
        await asyncio.sleep(30)
        return True

    result = asyncio.run(open_loop(stuck, _steady(10, 100.0), 0.1,
                                   sessions=2, drain_grace=0.2))
    assert result.abandoned == 10 and result.failed == 10


def test_closed_loop_keeps_sessions_busy_and_stops_at_the_deadline():
    inflight = peak = 0

    async def op(_op, session):
        nonlocal inflight, peak
        inflight += 1
        peak = max(peak, inflight)
        await asyncio.sleep(0.002)
        inflight -= 1
        return True

    stops = []
    result = asyncio.run(closed_loop(
        op, op_stream(WORKLOADS["write50"], 1, "t"), 4, 0.2,
        at_deadline=lambda: stops.append(clock())))
    assert peak == 4
    assert len(stops) == 1
    assert all(s.start < result.started + 0.2 for s in result.samples)
    rates = result.window_rates(4)
    assert len(rates) == 4 and all(rate > 0 for rate in rates)
    assert result.completed_within() <= len(result.samples)


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    sample = [float(i) for i in range(1, 1001)]
    assert percentile(sample, 0.5) == 500.0
    assert percentile(sample, 0.99) == 990.0      # exactly 10 beyond
    assert percentile(sample[:999], 0.99) is None  # 9 beyond: refused
    assert percentile(sample[:200], 0.95) == 190.0
    assert percentile(sample[:199], 0.95) is None
    assert percentile(sample[:19], 0.5) is None
    assert percentile(sample[:20], 0.5) == 10.0
    assert percentile([], 0.5) is None
    assert percentile(sample[:5], 0.5, min_beyond=0) == 3.0


def test_latencies_skip_failed_operations():
    samples = [Sample(False, 0.0, 0.1, 0.3, True),
               Sample(True, 0.0, 0.0, 9.0, False)]
    assert latencies(samples) == [0.3]
    assert latencies(samples, from_due=False) == [0.3 - 0.1]
    assert latencies(samples, write=True) == []
