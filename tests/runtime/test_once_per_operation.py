"""A keyed operation encodes each round once and decodes each distinct reply once.

Both are sharing of *frozen* message objects: one ``NamespacedMessage``
wrapper per broadcast (so the sender's encode-once cache applies), one
decode per byte-distinct reply payload per operation.  Neither may weaken
anything: a reply that differs in one byte is decoded on its own, every
server still gets its own ``on_reply``, a liar still loses the vote.
"""

import asyncio

import pytest

from repro.core.messages import DataReply, QueryData, Throttled
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.protocols.fleet import Fleet
from repro.runtime import LocalCluster
from repro.runtime.cluster import make_client
from repro.sharding import KeyspaceConfig
from repro.transport.codec import frame_burst
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.fake_io import deliver
from tests.runtime.test_link import Dialer, run, until
from tests.runtime.test_thrifty import hold_back

SPEC = ClusterSpec(algorithm="bsr", f=1)
AUTH = SPEC.authenticator()
KEY = "users/42"


async def keyed_client(**kwargs):
    """A namespaced client with an established (fake) link per server."""
    addresses = {pid: ("127.0.0.1", 1) for pid in SPEC.node_ids}
    client = make_client(Fleet.build("bsr", f=1, namespaced=True), "r000",
                         addresses, SPEC.secret_bytes, timeout=5.0,
                         backoff_base=0.01, backoff_max=0.05, **kwargs)
    assert await client.connect() == len(addresses)
    return client


async def started_read(client):
    """A keyed read whose query round has left -> (task, its OpState)."""
    task = asyncio.get_running_loop().create_task(client.read(register=KEY))
    await until(lambda: client._dispatcher.inflight == 1)
    [state] = client._dispatcher.states()
    await asyncio.sleep(0)  # the tick's flush
    return task, state


def reply_payload(op_id, value=b"v1", tag=Tag(1, "w000")):
    return encode_message_v2(NamespacedMessage(
        KEY, DataReply(op_id=op_id, tag=tag, payload=value)))


def answer(client, pid, payload):
    """Deliver ``payload`` to ``client`` as a frame signed by ``pid``."""
    deliver(client._links[pid],
            frame_burst(AUTH.seal_frames(pid, [payload])))


def spy_on_replies(state):
    """Record every ``on_reply(sender, message)`` the operation sees."""
    seen = []
    on_reply = state.operation.on_reply

    def spy(sender, message):
        seen.append((sender, message))
        return on_reply(sender, message)

    state.operation.on_reply = spy
    return seen


# -- (2) one wrapper, one encode per round ------------------------------------

def test_keyed_broadcast_is_one_wrapper_one_encode_and_replayable():
    async def scenario():
        dialer = Dialer()
        client = await keyed_client()
        encoded = []
        encode = client._encode
        client._encode = lambda m: encoded.append(m) or encode(m)
        task, state = await started_read(client)
        # One query object, one encoder call -- and still one replayable
        # frame per destination, held servers included.
        assert len(encoded) == 1
        assert type(encoded[0]) is NamespacedMessage
        assert type(encoded[0].inner) is QueryData
        assert sorted(state.pending) == SPEC.node_ids
        frames = [state.pending[pid] for pid in SPEC.node_ids]
        assert all(len(entries) == 1 for entries in frames)
        assert all(entries[0][1] is frames[0][0][1] for entries in frames)
        query = frames[0][0][1]
        # Only the n - f addressed servers were sent it.
        assert len(state.addressed) == 4 and len(state.held) == 1
        transports = dict(zip(SPEC.node_ids, dialer.transports))
        for pid in state.addressed:
            assert transports[pid].payloads() == [query]
        [held] = state.held
        assert transports[held].writes == []
        # Kill one addressed link mid-operation: the round is hedged to
        # the held server, and the link heals and is served by replay.
        killed = state.addressed[-1]
        client._links[killed].connection_lost(None)
        assert state.held == ()
        await until(lambda: killed in client._connections)
        await asyncio.sleep(0)
        assert len(dialer.transports) == 6
        assert dialer.transports[-1].payloads() == [query]
        assert transports[held].payloads() == [query]
        assert len(encoded) == 1
        for pid in SPEC.node_ids[:4]:
            answer(client, pid, reply_payload(state.op_id))
        assert await task == b"v1"
        stats = client.stats()
        assert stats["frames_resent"] == 1 and stats["reconnects"] == 1
        assert stats["hedges"] == 1
        await client.close()

    run(scenario())


def test_distinct_messages_in_one_round_keep_distinct_wrappers():
    from repro.core.namespace import NamespacedOperation

    class PerServer:
        kind, op_id, done, rounds = "write", 7, False, 1

        def start(self):
            shared = QueryData(op_id=7)
            return [("s0", shared), ("s1", QueryData(op_id=7)),
                    ("s2", shared)]

    envelopes = NamespacedOperation(KEY, PerServer()).start()
    assert [dest for dest, _ in envelopes] == ["s0", "s1", "s2"]
    # Equal but distinct inner messages are not merged: identity, not ==.
    assert envelopes[0][1] is envelopes[2][1]
    assert envelopes[1][1] is not envelopes[0][1]
    assert envelopes[1][1].inner is not envelopes[0][1].inner
    assert all(m.register == KEY for _, m in envelopes)


# -- (3) one decode per distinct reply ----------------------------------------

def test_equal_bytes_share_a_decode_and_one_flipped_byte_does_not():
    async def scenario():
        Dialer()
        client = await keyed_client()
        task, state = await started_read(client)
        seen = spy_on_replies(state)
        honest = reply_payload(state.op_id)
        flipped = bytearray(honest)
        flipped[-1] ^= 0x01                 # the value's last byte: v1 -> v0
        assert decode_message_v2(bytes(flipped)).inner.payload == b"v0"
        answer(client, "s000", honest)
        answer(client, "s001", honest)
        answer(client, "s002", bytes(flipped))
        answer(client, "s003", honest)
        assert await task == b"v1"
        # One on_reply per server, in arrival order ...
        assert [sender for sender, _ in seen] == ["s000", "s001", "s002",
                                                  "s003"]
        first, second, liar, fourth = (message for _, message in seen)
        # ... equal bytes are one message object, the odd one out is its own.
        assert second is first and fourth is first
        assert liar is not first and liar.inner.payload == b"v0"
        assert first.inner.payload == b"v1"
        stats = client.stats()
        assert stats["reply_decodes"] == 4
        assert stats["reply_decodes_shared"] == 2
        await client.close()

    run(scenario())


def test_remembered_payloads_die_with_the_operation():
    async def scenario():
        Dialer()
        client = await keyed_client()
        task, state = await started_read(client)
        for pid in SPEC.node_ids[:4]:
            answer(client, pid, reply_payload(state.op_id))
        assert await task == b"v1"
        assert len(state.decoded) == 1
        assert client._dispatcher.inflight == 0
        # The next read decodes its own replies: nothing carries over.
        task, state = await started_read(client)
        assert state.decoded == []
        before = client.stats()["reply_decodes_shared"]
        answer(client, "s000", reply_payload(state.op_id, value=b"v2",
                                             tag=Tag(2, "w000")))
        assert client.stats()["reply_decodes_shared"] == before
        for pid in SPEC.node_ids[1:4]:
            answer(client, pid, reply_payload(state.op_id, value=b"v2",
                                              tag=Tag(2, "w000")))
        assert await task == b"v2"
        await client.close()

    run(scenario())


def test_a_flood_of_distinct_replies_is_not_remembered_without_bound():
    async def scenario():
        Dialer()
        client = await keyed_client()
        task, state = await started_read(client)
        for i in range(50):                 # one server, fifty "answers"
            answer(client, "s004", reply_payload(
                state.op_id, value=b"junk-%d" % i, tag=Tag(9 + i, "s004")))
        assert len(state.decoded) <= len(SPEC.node_ids)
        for pid in SPEC.node_ids[:4]:
            answer(client, pid, reply_payload(state.op_id))
        assert await task == b"v1"
        await client.close()

    run(scenario())


def test_throttled_and_op_id_less_payloads_take_the_ordinary_path():
    async def scenario():
        dialer = Dialer()
        client = await keyed_client()
        task, state = await started_read(client)
        # The node sheds before routing, so its Throttled comes bare.
        throttled = encode_message_v2(Throttled(
            op_id=state.op_id, retry_after=0.01,
            dropped="NamespacedMessage"))
        answer(client, "s000", throttled)
        answer(client, "s001", throttled)
        assert client.stats()["throttled"] == 2
        # Each throttling server gets its shed frame replayed.
        await until(lambda: client.stats()["frames_resent"] == 2)
        await asyncio.sleep(0)
        for transport in dialer.transports[:2]:
            assert len(transport.writes) == 2
            # The replay goes nameless: the Throttled bound the link.
            assert (transport.payloads(0, "r000")
                    == transport.payloads(1, "r000"))
        # No op_id to peek: decoded, owned by nobody, counted stale.
        stale = client.stats()["replies_stale"]
        for orphan in (NamespacedMessage(KEY, b"raw"),
                       NamespacedMessage(KEY, QueryData(op_id="x"))):
            answer(client, "s002", encode_message_v2(orphan))
        assert client.stats()["replies_stale"] == stale + 2
        assert not task.done()
        for pid in SPEC.node_ids[:4]:
            answer(client, pid, reply_payload(state.op_id))
        assert await task == b"v1"
        await client.close()

    run(scenario())


@pytest.mark.parametrize("behavior", ["forge_tag", "corrupt_value"])
def test_keyed_read_next_to_a_liar_decodes_at_most_two_payloads(behavior,
                                                               unhedged):
    # Every write and read goes to the same n - f servers, the liar s004
    # among them.
    hold_back("s000", SPEC.node_ids)

    async def scenario():
        cluster = LocalCluster(
            "bsr", f=1, n=5, byzantine={4: behavior},
            keyspace=KeyspaceConfig(group_size=5, seed=5))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for i in range(8):
                key = f"k{i}"
                await writer.write(b"value-%d" % i, register=key)
                before = reader.stats()
                assert await reader.read(register=key) == b"value-%d" % i
                # Late replies of this read fold into the counters only
                # while it is in flight, so the delta is this read's.
                after = reader.stats()
                asked = after["reply_decodes"] - before["reply_decodes"]
                shared = (after["reply_decodes_shared"]
                          - before["reply_decodes_shared"])
                assert asked == 4
                # One payload for the quorum, one for the liar.
                assert asked - shared == 2
        finally:
            await cluster.stop()

    run(scenario())


def test_coded_replies_are_never_remembered():
    async def scenario():
        cluster = LocalCluster("bcsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("w000")
            await client.connect()
            await client.write(b"coded" * 1000)
            assert await client.read() == b"coded" * 1000
            stats = client.stats()
            assert stats["reply_decodes"] > 0
            assert stats["reply_decodes_shared"] == 0
        finally:
            await cluster.stop()

    run(scenario())


# -- a node counts a frame as retried only when it is one -----------------------

def drop_after_serving(node):
    """The next frame ``node`` serves gets no reply: its connection dies
    right after, as if the reply were lost with it."""
    serve = node._serve_frame

    def serving(frame, replies, loop, received=None, connection=None):
        node._serve_frame = serve  # one frame only
        mutated = serve(frame, replies, loop, received, connection)
        replies.clear()
        connection.transport.abort()
        return mutated

    node._serve_frame = serving


def test_keyed_writes_are_not_retried_frames_and_a_replayed_query_is():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            client = cluster.client("w000", backoff_base=0.02,
                                    backoff_max=0.05)
            await client.connect()

            def retried():
                return sum(cluster.registry.counter_value(
                    "node_frames_retried_total", node=pid)
                    for pid in cluster.server_ids)

            for index in range(10):
                await client.write(b"v%d" % index, register=KEY)
            # A write's put-data is not a repeat of its get-tag.
            assert retried() == 0
            assert client.stats()["frames_resent"] == 0
            # Two addressed servers take the read's query and lose the
            # connection before answering: three replies are not a
            # quorum, so the read waits for the links to come back and
            # replay the query, which the servers see a second time.
            hold_back("s004", cluster.server_ids)
            for pid in ("s001", "s002"):
                drop_after_serving(cluster.nodes[pid])
            assert await client.read(register=KEY) == b"v9"
            assert client.stats()["frames_resent"] >= 1
            await until(
                lambda: retried() == client.stats()["frames_resent"])
        finally:
            await cluster.stop()

    run(scenario())
