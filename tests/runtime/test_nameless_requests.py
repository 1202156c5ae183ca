"""A request carries no name once its link is bound.

A client link seals its bursts named until its current connection has
delivered one verified reply -- the node answered, so it has bound the
connection to that client -- and nameless after that; every new
connection starts named again.  A node binds a connection to the party of
its first verified named frame and opens later frames under that party
only.  Client-side cases run through fake transports, the node cases over
loopback sockets, and the lost-first-frame case through a chaos proxy.
"""

import asyncio

from repro.chaos.faults import Decision, FaultKind, FaultPlan
from repro.core.messages import DataReply, QueryTag
from repro.runtime import LocalCluster
from repro.transport.auth import NAMELESS, NAMELESS_BATCH
from repro.transport.codec import FrameAssembler, read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.test_link import FakeTransport, run, until
from tests.runtime.test_nameless_replies import SERVERS, TAG, answer, reading
from tests.runtime.test_thrifty import hold_back


def named(write):
    """Whether every frame of one recorded write names its sender."""
    frames = FrameAssembler().feed(write)
    assert frames
    shapes = {frame[0] not in (NAMELESS, NAMELESS_BATCH) for frame in frames}
    assert len(shapes) == 1
    return shapes.pop()


def test_a_link_goes_nameless_after_a_verified_reply_and_named_on_redial():
    hold_back("s004", SERVERS)  # both reads address s000 ... s003

    async def scenario():
        client, task, state = await reading()
        pid, other = state.addressed[0], state.addressed[1]
        link = client._links[pid]
        transport = link._transport
        assert named(transport.writes[-1]) and not link.bound
        # Another server's frame on this link verifies nothing: no binding.
        answer(client, pid, DataReply(op_id=state.op_id, tag=TAG,
                                      payload=b"v"), signer=other)
        assert not link.bound
        for server in state.addressed:
            answer(client, server, DataReply(op_id=state.op_id, tag=TAG,
                                             payload=b"v"))
        assert await task == b"v" and link.bound
        # The next burst on this connection goes nameless ...
        sent = len(transport.writes)
        second = asyncio.get_running_loop().create_task(client.read())
        await until(lambda: len(transport.writes) > sent)
        assert not named(transport.writes[-1])
        # ... and a new connection starts named again.
        link.connection_lost(None)
        fresh = FakeTransport()
        link.connection_made(fresh)
        assert not link.bound
        await until(lambda: fresh.writes)  # the in-flight read, replayed
        assert named(fresh.writes[-1])
        second.cancel()
        await client.close()

    run(scenario())


def test_a_node_binds_a_connection_to_its_first_named_party():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            node = cluster.nodes["s000"]
            auth = cluster.authenticator()
            reader, writer = await asyncio.open_connection(*node.address)

            def send(sender, op_id, is_named):
                write_frame(writer, auth.seal(
                    sender, encode_message_v2(QueryTag(op_id=op_id)),
                    named=is_named))

            async def answered(count):
                op_ids = []
                while len(op_ids) < count:
                    frame = await asyncio.wait_for(read_frame(reader), 5.0)
                    op_ids += [decode_message_v2(payload).op_id for payload
                               in auth.open_any(frame, "s000")[1]]
                return op_ids

            bad = node.stats["frames_bad"]
            send("w009", 1, False)  # unbound: no key to verify under
            send("w009", 2, True)   # binds the connection to w009
            send("w009", 3, False)  # nameless, under w009's key
            # Another party's frames replayed onto w009's connection:
            send("w008", 4, False)  # wrong key
            send("w008", 5, True)   # names another party
            send("w009", 6, False)
            # Replies keep the order of requests: 1, 4 and 5 got none.
            assert await answered(3) == [2, 3, 6]
            assert node.stats["frames_bad"] == bad + 3
            writer.close()
        finally:
            await cluster.stop()

    run(scenario())


class DropFirstFrame(FaultPlan):
    """Drops the first client-to-server frame on one link, nothing else."""

    def __init__(self, link):
        super().__init__()
        self.target = link

    def decide(self, link, direction):
        if (link, direction) == (self.target, "c2s") and not self.counts:
            self.counts["drop"] += 1
            return Decision(FaultKind.DROP)
        return Decision(FaultKind.DELIVER)


def test_a_dropped_first_frame_never_strands_a_connection():
    # Every operation addresses s000 (and holds s004 back), so the one
    # whose frame is dropped completes only through a hedge.
    hold_back("s004", SERVERS)

    async def scenario():
        plan = DropFirstFrame("s000")
        cluster = LocalCluster("bsr", f=1, chaos_plan=plan)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=10.0)
            await client.connect()
            for index in range(6):
                value = b"v%d" % index
                await client.write(value)
                assert await client.read() == value
            link = client._links["s000"]
            bad = sum(node.stats["frames_bad"]
                      for node in cluster.nodes.values())
            return plan.counts["drop"], link.bound, bad
        finally:
            await client.close()
            await cluster.stop()

    # The dropped frame was named; nothing answered it, so the link kept
    # naming its requests until a reply verified -- the node never saw a
    # nameless frame on a connection it had not bound.
    assert run(scenario()) == (1, True, 0)
