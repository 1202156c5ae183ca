"""One wire version: batch-sealed binary frames, and nothing else.

Every party speaks the binary codec under batch HMAC envelopes.  These
tests run real TCP clusters: concurrent operations ride the batched
envelope, and a payload in any other encoding -- even inside a
correctly signed frame -- is counted and dropped without touching
protocol state or the connection.
"""

import asyncio

import pytest

from repro.core.messages import HealthAck, HealthPing, QueryTag, TagReply
from repro.core.namespace import NamespacedMessage
from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.runtime import LocalCluster
from repro.transport.codec import read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.test_thrifty import hold_back


def run(coro):
    return asyncio.run(coro)


def test_concurrent_ops_on_v2_wire_batch_seal(unhedged):
    """Concurrent in-flight ops ride the batched envelope unharmed."""
    hold_back("s004", [f"s{i:03d}" for i in range(5)])  # s000 gets every op

    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("w000", max_inflight=8)
            await client.connect()
            tags = await asyncio.gather(
                *(client.write(f"burst-{i}".encode()) for i in range(8)))
            assert len({t.num for t in tags}) == 8
            # Same-client writes are serialized; reads are what overlap.
            reader = cluster.client("r000", max_inflight=8)
            await reader.connect()
            values = await asyncio.gather(*(reader.read() for _ in range(8)))
            assert all(value.startswith(b"burst-") for value in values)
            assert cluster.registry.counter_value(
                "node_reply_batches_total", node="s000") > 0
        finally:
            await cluster.stop()

    run(scenario())


def test_wire_validation():
    """A spec written for the removed ``wire`` option fails loudly."""
    with pytest.raises(ConfigurationError, match="unknown cluster spec keys"):
        ClusterSpec.from_dict({"algorithm": "bsr", "wire": "v2"})


def test_namespaced_registers_on_v2_wire():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            client = cluster.client("w000")
            await client.connect()
            await client.write(b"alpha", register="a")
            await client.write(b"beta", register="b")
            assert await client.read(register="a") == b"alpha"
            assert await client.read(register="b") == b"beta"
        finally:
            await cluster.stop()

    run(scenario())


def test_signed_json_payload_is_counted_and_dropped():
    """An HMAC-valid frame around a non-v2 payload costs one counter tick.

    No protocol state is allocated for it, and the connection that
    carried it keeps serving.
    """
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            node = cluster.nodes["s000"]
            auth = cluster.authenticator()
            reader, writer = await asyncio.open_connection(*node.address)

            async def exchange(message):
                write_frame(writer, auth.seal(
                    "w000", encode_message_v2(message)))
                await writer.drain()
                frame = await asyncio.wait_for(read_frame(reader), 5.0)
                sender, payloads = auth.open_any(frame)
                assert sender == "s000"
                return decode_message_v2(payloads[0])

            def bad_frames():
                return cluster.registry.counter_value(
                    "node_frames_bad_total", node="s000")

            assert bad_frames() == 0
            write_frame(writer, auth.seal(
                "w000", b'{"type":"QueryTag","fields":{"op_id":1}}'))
            # Frames of one connection are served in order, so the ack
            # proves the JSON frame was already handled.
            ack = await exchange(HealthPing(op_id=2))
            assert isinstance(ack, HealthAck)
            assert bad_frames() == 1
            assert node.protocol.registers == {}
            assert not node._recent_frames

            reply = await exchange(NamespacedMessage("k", QueryTag(op_id=3)))
            assert isinstance(reply.inner, TagReply)
            assert bad_frames() == 1
            writer.close()
        finally:
            await cluster.stop()

    run(scenario())
