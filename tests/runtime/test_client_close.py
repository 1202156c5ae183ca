"""``close()`` fails what is in flight at once, not after its ``timeout``.

Regression: with fewer than ``n - f`` servers up, a read in flight when
``close()`` returned ended a whole ``timeout`` later with
``LivenessError("... are n - f servers up?")`` -- 30 s by default.
"""

import asyncio

import pytest

from repro.errors import OperationAborted
from repro.runtime import LocalCluster
from tests.runtime.test_link import run, until

#: Long enough that waiting it out fails the test's own clock.
TIMEOUT = 30.0
KEYED = [pytest.param(False, id="unkeyed"), pytest.param(True, id="keyed")]


async def stalled_cluster(namespaced):
    """A bsr cluster with two of five servers stopped: no quorum."""
    cluster = LocalCluster("bsr", f=1, n=5, namespaced=namespaced)
    await cluster.start()
    for pid in cluster.server_ids[:2]:
        await cluster.nodes[pid].stop()
    return cluster


def operations(client, namespaced, count):
    """``count`` reads and one write (on their own registers when keyed)."""
    registers = [{"register": f"key-{i}"} if namespaced else {}
                 for i in range(count + 1)]
    calls = [client.read(**kwargs) for kwargs in registers[:count]]
    calls.append(client.write(b"never-lands", **registers[count]))
    return [asyncio.ensure_future(call) for call in calls]


async def assert_all_aborted(tasks, within=1.0):
    loop = asyncio.get_running_loop()
    started = loop.time()
    results = await asyncio.wait_for(
        asyncio.gather(*tasks, return_exceptions=True), within)
    assert loop.time() - started < within
    for result in results:
        assert isinstance(result, OperationAborted), result
        assert "was closed" in str(result)


@pytest.mark.parametrize("namespaced", KEYED)
def test_close_fails_in_flight_operations_at_once(namespaced):
    async def scenario():
        cluster = await stalled_cluster(namespaced)
        try:
            client = cluster.client("w000", timeout=TIMEOUT)
            assert await client.connect() == 3
            tasks = operations(client, namespaced, 3)
            await until(lambda: client.stats()["inflight"] == 4)
            await client.close()
            await assert_all_aborted(tasks)
            assert client.stats()["inflight"] == 0
        finally:
            await cluster.stop()

    run(scenario())


@pytest.mark.parametrize("namespaced", KEYED)
def test_close_fails_admission_waiters_and_queued_writes_too(namespaced):
    async def scenario():
        cluster = await stalled_cluster(namespaced)
        try:
            client = cluster.client("w000", timeout=TIMEOUT, max_inflight=2)
            assert await client.connect() == 3
            tasks = operations(client, namespaced, 5)
            # A second write to the last register: behind its write lock.
            tasks.append(asyncio.ensure_future(client.write(
                b"behind-the-lock",
                **({"register": "key-5"} if namespaced else {}))))
            gate = client._dispatcher.gate
            await until(lambda: gate.inflight == 2 and gate.queued == 4)
            await client.close()
            await assert_all_aborted(tasks)
            assert gate.inflight == 0 and gate.queued == 0
        finally:
            await cluster.stop()

    run(scenario())


@pytest.mark.parametrize("namespaced", KEYED)
def test_a_later_operation_on_a_closed_client_reopens_it(namespaced):
    """Pinned, not endorsed: PR 23's lazy dial serves whoever asks."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=namespaced)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=5.0, max_inflight=2)
            await client.connect()
            kwargs = {"register": "key-0"} if namespaced else {}
            await client.write(b"before", **kwargs)
            await client.close()
            assert client.stats()["connected"] == 0
            assert await client.read(**kwargs) == b"before"
            await client.write(b"after", **kwargs)
            assert await client.read(**kwargs) == b"after"
            assert client.stats()["connected"] == len(cluster.server_ids)
        finally:
            await cluster.stop()

    run(scenario())
