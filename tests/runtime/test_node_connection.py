"""The node's inbound protocol: chunking, ordering, durability before acks."""

import asyncio
import threading

from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
)
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.node.server import _Connection
from repro.runtime import LocalCluster, RegisterServerNode
from repro.transport.codec import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    frame_burst,
    read_frame,
    write_frame,
)
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.fake_io import deliver


def run(coro):
    return asyncio.run(coro)


class FakeTransport:
    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def write(self, data):
        self.written += data

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed


def test_burst_split_at_any_byte_offset_is_served_identically():
    spec = ClusterSpec(algorithm="bsr", f=1)
    auth = spec.authenticator()
    queries = [QueryTag(op_id=1), QueryData(op_id=2), QueryTag(op_id=3),
               QueryData(op_id=4), QueryTag(op_id=5), QueryData(op_id=6)]
    payloads = [encode_message_v2(query) for query in queries]
    burst = frame_burst([auth.seal_batch("w000", payloads[at:at + 2])
                         for at in (0, 2, 4)])

    async def serve(chunks):
        node = spec.build_node("s000")
        connection = _Connection(node)
        transport = FakeTransport()
        connection.connection_made(transport)
        for chunk in chunks:
            deliver(connection, chunk)
        assert node.stats["wire_frames"] == 3
        assert node.stats["frames"] == 6 and node.stats["frames_bad"] == 0
        return [decode_message_v2(payload)
                for frame in FrameAssembler().feed(bytes(transport.written))
                for payload in auth.open_any(frame, "s000")[1]]

    whole = run(serve([burst]))
    assert [reply.op_id for reply in whole] == [1, 2, 3, 4, 5, 6]
    for cut in range(1, len(burst)):
        assert run(serve([burst[:cut], burst[cut:]])) == whole, cut


def test_oversized_frame_closes_the_connection_and_late_reads_are_inert():
    async def scenario():
        node = ClusterSpec(algorithm="bsr", f=1).build_node("s000")
        connection = _Connection(node)
        transport = FakeTransport()
        connection.connection_made(transport)
        deliver(connection, (MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        assert transport.closed and node.stats["frames_bad"] == 1
        # A read already on its way must not raise into the event loop,
        # and nothing behind the bad header is ever served.
        deliver(connection, frame_burst([b"late"]))
        assert node.stats["recv_calls"] == 2
        assert node.stats["wire_frames"] == 0 and not transport.written

    run(scenario())


def test_ack_waits_for_the_durable_snapshot_and_keeps_order(
        tmp_path, monkeypatch):
    """Safety: no ack before the snapshot covering it reached disk, and a
    frame pipelined behind the blocked one is served after it."""
    release = threading.Event()
    write_snapshot = RegisterServerNode._write_snapshot

    def blocked_write(self, data):
        assert release.wait(10.0)
        write_snapshot(self, data)

    monkeypatch.setattr(RegisterServerNode, "_write_snapshot", blocked_write)

    async def scenario():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=str(tmp_path))
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=10.0)
            await client.connect()
            write = asyncio.ensure_future(client.write(b"durable"))

            # Meanwhile, by hand on a second connection to one node: a
            # mutating frame, then a query pipelined behind it.
            auth = cluster.authenticator()
            reader, writer = await asyncio.open_connection(
                *cluster.nodes["s000"].address)
            put = PutData(op_id=1, tag=Tag(7, "w001"), payload=b"by-hand")
            write_frame(writer, auth.seal("w001", encode_message_v2(put)))
            await writer.drain()
            await asyncio.sleep(0.1)
            write_frame(writer, auth.seal(
                "w001", encode_message_v2(QueryData(op_id=2))))
            await writer.drain()

            await asyncio.sleep(0.3)
            assert not write.done()
            assert not reader._buffer  # neither the ack nor the reply
            release.set()
            await asyncio.wait_for(write, 5.0)
            replies = []
            while len(replies) < 2:
                frame = await asyncio.wait_for(read_frame(reader), 5.0)
                replies.extend(decode_message_v2(payload)
                               for payload in auth.open_any(frame, "s000")[1])
            ack, data = replies
            assert isinstance(ack, PutAck) and ack.op_id == 1
            assert isinstance(data, DataReply) and data.op_id == 2
            writer.close()
        finally:
            release.set()
            await cluster.stop()

    run(scenario())
