"""Unit tests for the op dispatcher and the admission gate."""

import asyncio

import pytest

from repro.core.messages import QueryData, Throttled
from repro.runtime.dispatch import AdmissionGate, OpDispatcher


def run(coro):
    return asyncio.run(coro)


class FakeOperation:
    def __init__(self, op_id):
        self.op_id = op_id


# -- AdmissionGate -----------------------------------------------------------

def test_gate_unlimited_never_queues():
    async def scenario():
        gate = AdmissionGate(None)
        queued = [await gate.acquire() for _ in range(10)]
        assert queued == [False] * 10
        assert gate.inflight == 10 and gate.queued == 0

    run(scenario())


def test_gate_admits_waiters_in_fifo_order():
    async def scenario():
        gate = AdmissionGate(2)
        order = []

        async def op(name):
            queued = await gate.acquire()
            order.append((name, queued))
            await asyncio.sleep(0.01)
            gate.release()

        await asyncio.gather(*(op(i) for i in range(6)))
        names = [name for name, _ in order]
        assert names == sorted(names)  # strict arrival order
        assert [q for _, q in order] == [False, False, True, True, True, True]
        assert gate.queued_total == 4
        assert gate.inflight == 0 and gate.queued == 0

    run(scenario())


def test_gate_cap_is_never_exceeded():
    async def scenario():
        gate = AdmissionGate(3)
        peak = 0

        async def op():
            nonlocal peak
            await gate.acquire()
            peak = max(peak, gate.inflight)
            await asyncio.sleep(0)
            gate.release()

        await asyncio.gather(*(op() for _ in range(20)))
        assert peak == 3

    run(scenario())


def test_gate_cancelled_waiter_releases_its_slot():
    async def scenario():
        gate = AdmissionGate(1)
        await gate.acquire()
        waiter = asyncio.ensure_future(gate.acquire())
        await asyncio.sleep(0)
        assert gate.queued == 1
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        gate.release()
        assert await gate.acquire() is False  # slot is free again

    run(scenario())


def test_gate_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        AdmissionGate(0)


# -- OpDispatcher ------------------------------------------------------------

def test_replies_route_to_the_owning_op_only():
    async def scenario():
        dispatcher = OpDispatcher()
        a = dispatcher.register(FakeOperation(1))
        b = dispatcher.register(FakeOperation(2))
        assert dispatcher.lookup(QueryData(op_id=1).op_id) is a
        assert dispatcher.lookup(QueryData(op_id=2).op_id) is b
        assert dispatcher.inflight == 2

    run(scenario())


def test_stale_reply_is_dropped_not_queued():
    async def scenario():
        dispatcher = OpDispatcher()
        state = dispatcher.register(FakeOperation(7))
        dispatcher.unregister(state)
        assert dispatcher.lookup(QueryData(op_id=7).op_id) is None
        assert dispatcher.inflight == 0

    run(scenario())


def test_stale_throttled_does_not_reach_a_live_op():
    """Regression: the shared-queue design let a finished op's Throttled
    trigger a backoff sleep and frame replay for whichever op ran next."""
    async def scenario():
        dispatcher = OpDispatcher()
        finished = dispatcher.register(FakeOperation(1))
        dispatcher.unregister(finished)
        live = dispatcher.register(FakeOperation(2))
        stale = Throttled(op_id=1, retry_after=5.0, dropped="QueryData")
        assert dispatcher.lookup(stale.op_id) is None
        assert dispatcher.lookup(2) is live

    run(scenario())
