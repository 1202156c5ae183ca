"""Concurrent operations multiplexed over one AsyncRegisterClient."""

import asyncio

from repro.core.messages import Throttled
from repro.obs import MemorySink, MetricRegistry
from repro.runtime import LocalCluster
from repro.transport.codec2 import encode_message_v2


def run(coro):
    return asyncio.run(coro)


def test_gather_of_mixed_reads_and_writes_on_one_client():
    async def scenario():
        sink = MemorySink()
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=10.0, trace_sink=sink)
            await client.connect()
            values = [f"v{i}".encode() for i in range(4)]
            results = await asyncio.gather(
                *[client.write(v) for v in values],
                *[client.read() for _ in range(12)],
            )
        finally:
            await cluster.stop()
        return values, results, sink, client.stats()

    values, results, sink, stats = run(scenario())
    tags = results[:4]
    reads = results[4:]
    # Writes by one client are serialized, so the four tags are distinct
    # and strictly increasing (tag uniqueness is the safety bedrock).
    assert len({(t.num, t.writer) for t in tags}) == 4
    assert [t.num for t in tags] == sorted(t.num for t in tags)
    # Every read returns the initial value or one of the written ones.
    for value in reads:
        assert value == b"" or value in values
    # One span per operation, keyed by unique op_ids, all finished ok.
    assert len(sink.records) == 16
    assert len({r["op_id"] for r in sink.records}) == 16
    assert all(r["outcome"] == "ok" for r in sink.records)
    assert stats["inflight"] == 0


def test_concurrent_ops_overlap_and_inflight_gauge_settles():
    async def scenario():
        sink = MemorySink()
        registry = MetricRegistry()
        cluster = LocalCluster("bsr", f=1, registry=registry)
        await cluster.start()
        try:
            client = cluster.client("r000", timeout=10.0, trace_sink=sink)
            await client.connect()
            await asyncio.gather(*[client.read() for _ in range(8)])
        finally:
            await cluster.stop()
        return sink, registry

    sink, registry = run(scenario())
    # At least one span finished while others were still in flight --
    # the single-op runtime could never produce a nonzero depth here.
    assert max(r["inflight"] for r in sink.records) > 0
    assert registry.gauge("client_inflight_ops", client="r000").value == 0


def test_concurrent_ops_across_namespaced_registers():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=10.0)
            await client.connect()
            registers = [f"key-{i}" for i in range(4)]
            await asyncio.gather(*[
                client.write(f"{reg}:value".encode(), register=reg)
                for reg in registers])
            reads = await asyncio.gather(*[
                client.read(register=reg) for reg in registers
                for _ in range(3)])
        finally:
            await cluster.stop()
        return registers, reads

    registers, reads = run(scenario())
    for index, value in enumerate(reads):
        assert value == f"{registers[index // 3]}:value".encode()


def test_max_inflight_queues_fifo_and_counts():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("r000", timeout=10.0, max_inflight=2)
            await client.connect()
            results = await asyncio.gather(*[client.read()
                                             for _ in range(8)])
        finally:
            await cluster.stop()
        return results, client.stats()

    results, stats = run(scenario())
    assert all(value == b"" for value in results)
    # 2 ran immediately; the other 6 waited at the admission gate.
    assert stats["ops_queued"] == 6
    assert stats["inflight"] == 0


def test_stale_throttled_does_not_slow_the_next_op():
    """Regression: interleave a throttled (finished) op with a fresh one.

    With the shared reply queue, a ``Throttled`` arriving after its op
    finished was consumed by the *next* operation, which then slept the
    throttle backoff and replayed frames no server had shed.  Routed by
    ``op_id``, the stale frame is dropped instead.
    """
    async def scenario():
        sink = MemorySink()
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("r000", timeout=10.0, trace_sink=sink)
            await client.connect()
            await client.read()  # the op that "was throttled"; now finished
            finished_op = sink.records[0]["op_id"]
            stale = Throttled(op_id=finished_op, retry_after=5.0,
                              dropped="QueryData")
            assert client._dispatcher.lookup(finished_op) is None
            before = client.stats()["replies_stale"]
            frame = cluster.nodes["s000"].auth.seal(
                "s000", encode_message_v2(stale))
            client._links["s000"].on_frames([memoryview(frame)], 0.0)
            assert client.stats()["replies_stale"] == before + 1
            loop = asyncio.get_running_loop()
            started = loop.time()
            await client.read()
            elapsed = loop.time() - started
        finally:
            await cluster.stop()
        return sink, client.stats(), elapsed

    sink, stats, elapsed = run(scenario())
    fresh = sink.records[1]
    assert fresh["outcome"] == "ok" and fresh["throttles"] == 0
    assert fresh["resends"] == 0
    assert stats["throttled"] == 0 and stats["frames_resent"] == 0
    # The old bug slept min(retry_after, backoff_max) = 2s here.
    assert elapsed < 1.0
