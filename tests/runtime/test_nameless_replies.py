"""A reply carries only what its reader does not know.

A node seals what it sends back to a protocol party without its own name
(the party dialed it by id, so its link knows whose key verifies the
frame), and a register table answers the requesting party without the
register wrapper (the ``op_id`` pins the operation).  Client-side cases
run through fake transports, with replies delivered by hand; the node and
probe cases over loopback sockets.
"""

import asyncio

import pytest

from repro.core.bsr import BSRReadOperation
from repro.core.messages import DataReply, HealthAck, HealthPing, QueryData
from repro.core.namespace import NamespacedMessage, NamespacedOperation
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.deploy.serve import health_ping
from repro.errors import AuthenticationError, ProtocolError
from repro.protocols.fleet import Fleet
from repro.runtime import LocalCluster
from repro.runtime.cluster import make_client
from repro.transport.auth import NAMELESS, NAMELESS_BATCH
from repro.transport.codec import frame_burst, read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.fake_io import deliver
from tests.runtime.test_link import Dialer, run, until

SPEC = ClusterSpec(algorithm="bsr", f=1)
AUTH = SPEC.authenticator()
SERVERS = [f"s{i:03d}" for i in range(5)]
TAG = Tag(1, "w000")


async def reading(namespaced=False):
    """A fake-transport client with one read in flight -> (client, task,
    op state)."""
    Dialer()
    client = make_client(
        Fleet.build("bsr", f=1, n=5, namespaced=namespaced), "r000",
        {pid: ("127.0.0.1", 1) for pid in SERVERS}, SPEC.secret_bytes,
        timeout=5.0)
    assert await client.connect() == 5
    task = asyncio.get_running_loop().create_task(
        client.read(register="k") if namespaced else client.read())
    await until(lambda: client._dispatcher.inflight == 1)
    [state] = client._dispatcher.states()
    await asyncio.sleep(0)  # the tick's flush
    return client, task, state


def answer(client, link_pid, message, signer=None, named=False):
    """Deliver ``message`` on the link to ``link_pid``, sealed by
    ``signer`` (default: that server)."""
    frames = AUTH.seal_frames(signer or link_pid, [encode_message_v2(message)],
                              named=named)
    deliver(client._links[link_pid], frame_burst(frames))


def test_a_frame_of_another_server_replayed_onto_a_link_is_dropped():
    async def scenario():
        client, task, state = await reading()
        victim, other = state.addressed[0], state.addressed[1]
        reply = DataReply(op_id=state.op_id, tag=TAG, payload=b"forged")
        answer(client, victim, reply, signer=other)  # nameless: wrong key
        answer(client, victim, reply, signer=other, named=True)  # wrong name
        assert client.stats()["frames_dropped"] == 2
        assert not state.operation._replies  # neither reached the op
        for pid in state.addressed:  # the genuine replies, both shapes
            answer(client, pid, DataReply(op_id=state.op_id, tag=TAG,
                                          payload=b"v"),
                   named=pid == victim)
        assert await task == b"v"
        await client.close()

    run(scenario())


def test_a_bare_keyed_reply_completes_its_op():
    async def scenario():
        client, task, state = await reading(namespaced=True)
        for pid in state.addressed:
            answer(client, pid, DataReply(op_id=state.op_id, tag=TAG,
                                          payload=b"keyed"))
        assert await task == b"keyed"
        assert client.stats()["frames_dropped"] == 0
        await client.close()

    run(scenario())


def test_a_wrapped_reply_for_its_own_register_still_counts():
    inner = BSRReadOperation("r000", SERVERS, 1)
    op = NamespacedOperation("mine", inner)
    op.start()
    reply = DataReply(op_id=inner.op_id, tag=TAG, payload=b"v")
    for pid in SERVERS[:2]:  # canned, wrapped as a mesh push would be
        op.on_reply(pid, NamespacedMessage("mine", reply))
    for pid in SERVERS[2:4]:  # bare, as a table answers the requester
        op.on_reply(pid, reply)
    assert op.done and op.result == b"v"


def test_a_wrapped_reply_naming_another_register_is_ignored():
    inner = BSRReadOperation("r000", SERVERS, 1)
    op = NamespacedOperation("mine", inner)
    op.start()
    reply = DataReply(op_id=inner.op_id, tag=TAG, payload=b"v")
    for pid in SERVERS:
        assert op.on_reply(pid, NamespacedMessage("other", reply)) == []
    assert not op.done and not inner._replies


def test_a_node_answers_a_party_nameless_and_a_probe_named():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, namespaced=True)
        await cluster.start()
        try:
            auth = cluster.authenticator()

            async def exchange(sender, message):
                # A connection of its own each: a node binds a connection
                # to the party of its first named frame.
                reader, writer = await asyncio.open_connection(
                    *cluster.nodes["s000"].address)
                write_frame(writer, auth.seal(sender, encode_message_v2(
                    message)))
                frame = await asyncio.wait_for(read_frame(reader), 5.0)
                writer.close()
                return frame

            frame = await exchange("w009", NamespacedMessage(
                "k", QueryData(op_id=2)))
            assert frame[0] in (NAMELESS, NAMELESS_BATCH)
            with pytest.raises(AuthenticationError):
                auth.open_any(frame)  # no peer: nothing to verify under
            with pytest.raises(AuthenticationError):
                auth.open_any(frame, "s001")
            [payload] = auth.open_any(frame, "s000")[1]
            reply = decode_message_v2(payload)
            assert type(reply) is DataReply and reply.op_id == 2  # bare
            frame = await exchange("probe", HealthPing(op_id=3))
            assert frame[0] == 0  # a named single envelope
            sender, [payload] = auth.open_any(frame)
            assert sender == "s000"
            assert decode_message_v2(payload).node_id == "s000"
        finally:
            await cluster.stop()

    run(scenario())


def test_a_probe_rejects_an_ack_for_a_node_other_than_its_signer():
    async def scenario():
        auth = SPEC.authenticator()

        async def impostor(reader, writer):
            await read_frame(reader)
            ack = HealthAck(op_id=1, node_id="s000")
            write_frame(writer, auth.seal("s001", encode_message_v2(ack)))
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(impostor, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        try:
            with pytest.raises(ProtocolError, match="signed by s001"):
                await health_ping(address, auth)
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())
