"""Degraded-start and mid-operation failure paths of the asyncio client."""

import asyncio

import pytest

from repro.chaos.faults import FaultPlan
from repro.runtime import LocalCluster
from tests.runtime.test_thrifty import hold_back


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=5.0, interval=0.05):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(interval)
    return True


def test_connect_with_subset_down_then_lazy_redial():
    """A server that is down at connect() joins the quorum once it is back."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            victim = cluster.server_ids[0]
            await cluster.nodes[victim].stop()
            client = cluster.client("w000", timeout=10.0,
                                    backoff_base=0.02, backoff_max=0.2)
            assert await client.connect() == 4
            await client.write(b"degraded-start")
            # The victim comes back; the supervisor re-dials it lazily,
            # with no further connect() call.
            await cluster.nodes[victim].start()
            assert await wait_for(
                lambda: client.stats()["connected"] == 5)
            assert client.stats()["reconnects"] >= 1
            await client.write(b"fully-healed")
        finally:
            await cluster.stop()

    run(scenario())


def test_connect_without_reconnect_stays_degraded():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            victim = cluster.server_ids[0]
            await cluster.nodes[victim].stop()
            client = cluster.client("w000", timeout=10.0, reconnect=False)
            assert await client.connect() == 4
            await cluster.nodes[victim].start()
            await client.write(b"still-four")
            await asyncio.sleep(0.3)
            assert client.stats()["connected"] == 4
            assert client.stats().get("reconnects", 0) == 0
        finally:
            await cluster.stop()

    run(scenario())


def test_crash_mid_session_does_not_poison_reply_queue():
    """A connection reset between operations leaves later ops healthy."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            writer = cluster.client("w000", timeout=10.0,
                                    backoff_base=0.02, backoff_max=0.2)
            reader = cluster.client("r000", timeout=10.0,
                                    backoff_base=0.02, backoff_max=0.2)
            await writer.connect()
            await reader.connect()
            await writer.write(b"before-crash")
            victim = cluster.server_ids[1]
            await cluster.nodes[victim].stop()  # resets live connections
            # Ops keep completing on the n - 1 survivors.
            for i in range(3):
                await writer.write(f"after-crash-{i}".encode())
                assert await reader.read() == f"after-crash-{i}".encode()
            assert writer.stats()["disconnects"] >= 1
        finally:
            await cluster.stop()

    run(scenario())


def test_severed_link_mid_operations_is_survived():
    """A link that dies on every frame never blocks the other four."""
    async def scenario():
        plan = FaultPlan(seed=5)
        cluster = LocalCluster("bsr", f=1, chaos=True, chaos_plan=plan)
        await cluster.start()
        try:
            plan.set_policy(str(cluster.server_ids[0]), sever_rate=1.0)
            # Thrifty clients must address the severed server.
            hold_back(cluster.server_ids[-1], cluster.server_ids)
            writer = cluster.client("w000", timeout=10.0,
                                    backoff_base=0.02, backoff_max=0.2)
            reader = cluster.client("r000", timeout=10.0,
                                    backoff_base=0.02, backoff_max=0.2)
            await writer.connect()
            await reader.connect()
            for i in range(4):
                await writer.write(f"chopped-{i}".encode())
                assert await reader.read() == f"chopped-{i}".encode()
            assert writer.stats()["disconnects"] >= 1
        finally:
            await cluster.stop()

    run(scenario())


def test_reconnect_resends_in_flight_operation():
    """A blackholed-then-healed quorum server still serves the pending op."""
    async def scenario():
        plan = FaultPlan(seed=5)
        cluster = LocalCluster("bsr", f=1, chaos=True, chaos_plan=plan)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=15.0,
                                    backoff_base=0.02, backoff_max=0.1)
            await client.connect()
            # Crash two servers: only 3 of 5 left, one short of the n - f
            # quorum, so the write must stall...
            for victim in cluster.server_ids[:2]:
                await cluster.crash(victim)
            op = asyncio.ensure_future(client.write(b"needs-reconnect"))
            await asyncio.sleep(0.5)
            assert not op.done()
            # ...until one victim restarts (from snapshotless state, which
            # is fine for a fresh register) and the supervisor re-dials and
            # re-sends the in-flight frames.
            await cluster.restart(cluster.server_ids[0])
            tag = await asyncio.wait_for(op, 10.0)
            assert tag.num >= 1
            stats = client.stats()
            assert stats["reconnects"] >= 1
            assert stats["frames_resent"] >= 1
            assert stats["ops_retried"] >= 1
        finally:
            await cluster.stop()

    run(scenario())


# -- no connect() at all: the first operation dials ---------------------------

@pytest.mark.parametrize("keyed", [False, True], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("reconnect", [True, False])
def test_first_operation_dials_when_connect_was_never_called(keyed, reconnect):
    """Regression: it hung for the whole timeout, then LivenessError."""
    async def scenario():
        from repro.sharding import KeyspaceConfig
        cluster = LocalCluster(
            "bsr", f=1, n=5,
            keyspace=KeyspaceConfig(group_size=5, seed=9) if keyed else None)
        await cluster.start()
        try:
            kwargs = {"register": "lazy/key"} if keyed else {}
            writer = cluster.client("w000", timeout=3.0, reconnect=reconnect)
            reader = cluster.client("r000", timeout=3.0, reconnect=reconnect)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await writer.write(b"no-connect", **kwargs)     # never connected
            assert await reader.read(**kwargs) == b"no-connect"
            assert loop.time() - started < 2.0
            assert await wait_for(lambda: writer.stats()["connected"] == 5)
            # The frames went out by replay once each link was up.
            assert writer.stats()["frames_resent"] >= 4
            await writer.write(b"second", **kwargs)
            assert await reader.read(**kwargs) == b"second"
        finally:
            await cluster.stop()

    run(scenario())


def test_first_operation_dials_with_one_server_down():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            victim = cluster.server_ids[2]
            await cluster.nodes[victim].stop()
            client = cluster.client("w000", timeout=3.0,
                                    backoff_base=0.02, backoff_max=0.2)
            await client.write(b"four-of-five")
            assert await client.read() == b"four-of-five"
            assert client.stats()["connected"] == 4
            assert victim not in client._connections
            # The down server's link keeps re-dialing and joins later.
            await cluster.nodes[victim].start()
            assert await wait_for(lambda: client.stats()["connected"] == 5)
            await client.write(b"all-five")
        finally:
            await cluster.stop()

    run(scenario())
