"""A reply body crosses a connection once (``transport/delta.py`` in place).

Live clusters over real sockets for what the layer saves and what it
must not weaken (Byzantine servers, a killed link, raw-socket probes),
fake transports for every way the two ends can fall out of step.
Everything is counted -- bytes, full bodies, deltas, resets -- nothing
is timed.
"""

import asyncio
from collections import Counter
from functools import partial

import pytest

from repro.core.messages import DataReply, QueryData, TagReply
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.deploy.serve import health_ping, stats_ping
from repro.runtime import AsyncRegisterClient, LocalCluster
from repro.transport.codec import frame_burst, read_frame, write_frame
from repro.transport.codec2 import (
    MAGIC_V2,
    decode_message_v2,
    encode_message_v2,
)
from repro.transport.delta import DELTA_HEAD_MAX, DELTA_MAGIC, Shrinker
from tests.runtime.fake_io import deliver
from tests.runtime.test_link import Dialer, run, until
from tests.runtime.test_thrifty import hold_back

VALUE = bytes(range(256)) * 256  # 64 KiB
#: One BCSR coded element of VALUE at [n, k] = [8, 3], plus its envelope.
ELEMENT = len(VALUE) // 3 + 200


class Cluster:
    """``async with``: a started cluster, stopped on the way out."""

    def __init__(self, algorithm, **kwargs):
        self.cluster = LocalCluster(algorithm, f=1, **kwargs)

    async def __aenter__(self):
        await self.cluster.start()
        return self.cluster

    async def __aexit__(self, *exc):
        await self.cluster.stop()


def node_counts(cluster, name):
    """``node_<name>_total`` summed over the cluster's nodes."""
    return sum(cluster.registry.counter_value(f"node_{name}_total", node=pid)
               for pid in cluster.server_ids)


def count_received(client):
    """Bytes each of ``client``'s links reads from now on -> Counter."""
    received = Counter()
    for pid, link in client._links.items():
        def counting(nbytes, pid=pid, updated=link.buffer_updated):
            received[pid] += nbytes
            updated(nbytes)
        link.buffer_updated = counting
    return received


# -- live: what is saved -------------------------------------------------------

def test_repeat_bcsr_reads_carry_one_element_per_connection():
    async def scenario():
        async with Cluster("bcsr", n=8) as cluster:
            writer, reader = cluster.client("w000"), cluster.client("r000")
            await writer.connect()
            await reader.connect()
            await writer.write(VALUE)
            received = count_received(reader)
            for _ in range(51):  # the first fetches the element in full
                assert await reader.read() == VALUE
            # (wait out the eighth, surplus replies)
            await until(
                lambda: node_counts(cluster, "replies_delta") == 8 * 50)
            assert set(received) == set(cluster.server_ids)
            for pid, nbytes in received.items():
                assert ELEMENT - 400 < nbytes <= ELEMENT + 50 * 256, pid
            assert node_counts(cluster, "replies_full") == 8
            assert node_counts(cluster, "reply_bytes_elided") > 8 * 50 * 21_000
            stats = reader.stats()
            assert stats["delta_expanded"] >= 7 * 50
            assert stats["delta_resets"] == 0
            # The decode memo still sees whole, equal elements.
            assert stats["decode_memo_hits"] == 50

            # A write in between: one more full element per connection.
            await writer.write(VALUE[::-1])
            for _ in range(5):
                assert await reader.read() == VALUE[::-1]
            await until(
                lambda: node_counts(cluster, "replies_delta") == 8 * 54)
            assert node_counts(cluster, "replies_full") == 16
            for pid, nbytes in received.items():
                assert nbytes <= 2 * ELEMENT + 54 * 256, pid

    run(scenario())


@pytest.mark.parametrize("algorithm, value", [
    ("bsr-history", b"h" * 3000),  # III-C: replies carry the whole list L
    ("bsr", VALUE),
])
def test_history_and_large_value_bsr_reads_shrink_too(algorithm, value,
                                                     unhedged):
    async def scenario():
        async with Cluster(algorithm) as cluster:
            client = cluster.client("w000")
            await client.connect()
            # Every op goes to the n - f servers other than the last.
            held = cluster.server_ids[-1]
            hold_back(held, cluster.server_ids)
            await client.write(value)
            for _ in range(4):
                assert await client.read() == value
            asked = len(cluster.server_ids) - 1
            await until(lambda: node_counts(cluster, "replies_delta")
                        == 3 * asked)
            assert node_counts(cluster, "replies_full") == asked
            assert cluster.registry.counter_value(
                "node_wire_frames_total", node=held) == 0
            assert client.stats()["delta_resets"] == 0

    run(scenario())


def test_small_replies_never_touch_the_delta_path():
    async def scenario():
        async with Cluster("bsr") as cluster:
            client = cluster.client("w000")
            await client.connect()
            await client.write(b"v" * 64)
            for _ in range(5):
                assert await client.read() == b"v" * 64
            assert node_counts(cluster, "replies_full") == 0
            assert node_counts(cluster, "replies_delta") == 0
            assert client.stats()["delta_expanded"] == 0

    run(scenario())


def test_killing_a_link_mid_read_heals_and_the_read_completes():
    async def scenario():
        async with Cluster("bcsr", n=8) as cluster:
            client = cluster.client("w000", backoff_base=0.02,
                                    backoff_max=0.05)
            await client.connect()
            await client.write(VALUE)
            assert await client.read() == VALUE
            # With one server down every other reply is needed.
            await cluster.crash("s007")
            await until(lambda: client.stats()["connected"] == 7)
            full_before = cluster.registry.counter_value(
                "node_replies_full_total", node="s003")
            read = asyncio.ensure_future(client.read())
            client._links["s003"]._transport.abort()
            assert await asyncio.wait_for(read, 5.0) == VALUE
            stats = client.stats()
            assert stats["reconnects"] >= 1 and stats["frames_resent"] >= 1
            assert stats["delta_resets"] == 0
            # The fresh connection started from nothing: a full body.
            assert cluster.registry.counter_value(
                "node_replies_full_total", node="s003") == full_before + 1
            assert await client.read() == VALUE

    run(scenario())


# -- live: what must not weaken ------------------------------------------------

@pytest.mark.parametrize("behavior", ["corrupt_value", "stale", "forge_tag"])
def test_byzantine_servers_next_to_the_delta_path(behavior):
    async def scenario():
        async with Cluster("bcsr", n=8, byzantine={2: behavior}) as cluster:
            writer, reader = cluster.client("w000"), cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for value in (VALUE, VALUE[::-1]):
                await writer.write(value)
                for _ in range(4):
                    assert await reader.read() == value
            assert node_counts(cluster, "replies_delta") > 0
            assert reader.stats()["delta_resets"] == 0

    run(scenario())


@pytest.mark.parametrize("forged", [
    # An id no base ever had; a tail longer than any base.
    bytes([DELTA_MAGIC]) + b"\x5a" * 8 + (100).to_bytes(4, "big") + b"head",
    bytes([DELTA_MAGIC]) + bytes(8) + (2**31).to_bytes(4, "big"),
])
def test_a_forged_delta_costs_one_link_reset_and_the_read_completes(forged):
    async def scenario():
        async with Cluster("bcsr", n=8) as cluster:
            client = cluster.client("w000", backoff_base=0.02,
                                    backoff_max=0.05)
            await client.connect()
            await client.write(VALUE)
            assert await client.read() == VALUE
            liar = cluster.nodes["s005"]
            encode, lies = liar._encode, []

            def lying(message):
                if isinstance(message, DataReply) and not lies:
                    lies.append(message)
                    return forged  # sealed and signed like any reply
                return encode(message)

            liar._encode = lying
            assert await client.read() == VALUE  # on the other n - 1
            await until(lambda: client.stats()["delta_resets"] == 1)
            await until(lambda: client.stats()["connected"] == 8)
            stats = client.stats()
            assert stats["disconnects"] == 1 and len(lies) == 1
            assert await client.read() == VALUE
            assert client.stats()["delta_resets"] == 1

    run(scenario())


def test_raw_socket_probes_on_a_fresh_connection_get_plain_envelopes():
    async def scenario():
        async with Cluster("bcsr", n=8) as cluster:
            client = cluster.client("w000")
            await client.connect()
            await client.write(VALUE)
            assert await client.read() == VALUE
            node = cluster.nodes["s000"]
            auth = cluster.authenticator()
            assert (await health_ping(node.address, auth)).node_id == "s000"
            ack = await stats_ping(node.address, auth)
            assert "node_replies_full_total" in str(ack.metrics)
            # By hand: a query whose reply is large, then the same again.
            reader, writer = await asyncio.open_connection(*node.address)
            for op_id, shrunk in ((1, False), (2, True)):
                write_frame(writer, auth.seal("probe", encode_message_v2(
                    QueryData(op_id=op_id))))
                frame = await asyncio.wait_for(read_frame(reader), 2.0)
                assert frame[:2] != b"\xff\xff"  # a single envelope
                [payload] = auth.open_any(frame)[1]
                assert (payload[0] == DELTA_MAGIC) is shrunk
                if not shrunk:
                    assert payload[0] == MAGIC_V2 and len(payload) > 21_000
                    assert decode_message_v2(payload).op_id == 1
            writer.close()

    run(scenario())


# -- fake transports: falling out of step --------------------------------------

SPEC = ClusterSpec(algorithm="bsr", f=1)
AUTH = SPEC.authenticator()
BODY = b"b" * 4000


async def reading_client():
    """A client with fake links and one read in flight -> (client, op_id)."""
    addresses = {pid: ("127.0.0.1", 1) for pid in SPEC.node_ids}
    client = AsyncRegisterClient("r000", addresses, 1, SPEC.authenticator(),
                                 timeout=5.0, backoff_base=0.01,
                                 backoff_max=0.05)
    assert await client.connect() == 5
    read = asyncio.get_running_loop().create_task(client.read())
    await until(lambda: client._dispatcher.inflight == 1)
    await asyncio.sleep(0)  # the tick's flush
    return client, read, client._dispatcher.states()[0].op_id


def reply(op_id, body=BODY):
    return encode_message_v2(DataReply(op_id=op_id, tag=Tag(1, "w000"),
                                       payload=body))


def server_end(pid):
    """What ``pid``'s connection does to its replies -> frames."""
    return Shrinker(partial(AUTH.seal_frames, pid)).seal


def test_lost_base_then_delta_resets_only_that_link_and_replay_heals_it():
    async def scenario():
        dialer = Dialer()
        hold_back("s004", SPEC.node_ids)  # the read goes to s000
        client, read, op_id = await reading_client()
        seal = server_end("s000")
        seal([reply(9999)])  # the base: lost on the way
        delta = frame_burst(seal([reply(op_id)]))
        assert len(delta) < DELTA_HEAD_MAX
        link = client._links["s000"]
        deliver(link, delta)
        assert [t.closed for t in dialer.transports] == [True] + [False] * 4
        stats = client.stats()
        assert stats["delta_resets"] == 1 and stats["frames_dropped"] == 1
        assert client._dispatcher.inflight == 1  # nothing was handed on
        # What the closed transport reports; the link re-dials, replays
        # the query, and the fresh connection answers in full.
        link.connection_lost(None)
        await until(lambda: len(dialer.transports) == 6)
        await asyncio.sleep(0)
        [query] = dialer.transports[-1].payloads()
        assert decode_message_v2(query) == QueryData(op_id=op_id)
        for pid in SPEC.node_ids[:4]:
            deliver(client._links[pid],
                    frame_burst(server_end(pid)([reply(op_id)])))
        assert await read == BODY
        stats = client.stats()
        assert stats["delta_resets"] == 1 and stats["reconnects"] == 1
        await client.close()

    run(scenario())


def test_delta_before_any_base_is_a_reset_too():
    async def scenario():
        dialer = Dialer()
        client, read, op_id = await reading_client()
        seal = server_end("s001")
        base, delta = seal([reply(1)]), seal([reply(op_id)])
        deliver(client._links["s001"], frame_burst(delta))  # overtook it
        assert dialer.transports[1].closed
        assert client.stats()["delta_resets"] == 1
        # A late read on the dying connection hands nothing on either.
        deliver(client._links["s001"], frame_burst(base))
        assert client._dispatcher.inflight == 1
        read.cancel()
        await client.close()

    run(scenario())


def test_lost_delta_and_duplicated_base_leave_the_link_alone():
    async def scenario():
        dialer = Dialer()
        client, read, op_id = await reading_client()
        for pid in SPEC.node_ids[:4]:
            seal = server_end(pid)
            base = frame_burst(seal([reply(1)]))
            deliver(client._links[pid], base + base)  # duplicated
            seal([reply(2)])  # a delta that never arrives
            deliver(client._links[pid], frame_burst(seal([reply(op_id)])))
        assert await read == BODY
        stats = client.stats()
        assert stats["delta_resets"] == 0 and stats["frames_dropped"] == 0
        assert stats["delta_expanded"] == 4 and stats["replies_stale"] == 8
        assert not any(t.closed for t in dialer.transports)
        await client.close()

    run(scenario())


def test_a_frame_that_fails_verification_is_dropped_and_bites_later():
    """Count-and-drop stays: the reset comes with the delta that needs it."""
    async def scenario():
        dialer = Dialer()
        client, read, op_id = await reading_client()
        seal = server_end("s002")
        [base] = seal([reply(1)])
        torn = base[:-1] + bytes([base[-1] ^ 1])
        deliver(client._links["s002"], frame_burst([torn]))
        stats = client.stats()
        assert stats["frames_dropped"] == 1 and stats["delta_resets"] == 0
        assert not dialer.transports[2].closed
        small = encode_message_v2(TagReply(op_id=1, tag=Tag(1, "w000")))
        deliver(client._links["s002"], frame_burst(seal([small])))
        assert not dialer.transports[2].closed  # small replies still flow
        deliver(client._links["s002"], frame_burst(seal([reply(op_id)])))
        assert dialer.transports[2].closed
        assert client.stats()["delta_resets"] == 1
        read.cancel()
        await client.close()

    run(scenario())
