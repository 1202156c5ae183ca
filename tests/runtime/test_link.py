"""The one outbound link, driven through a fake transport.

Every behaviour is checked twice: once on a link wired the way
``AsyncRegisterClient`` wires its server links, once on a link wired
the way ``RegisterServerNode`` wires its peer mesh -- they are the same
class, so they must bound, shed and heal the same way.
"""

import asyncio
import os
import subprocess
import sys

import pytest

import repro
from repro.deploy import ClusterSpec
from repro.runtime import AsyncRegisterClient, LocalCluster
from repro.runtime.link import PEER_QUEUE_LIMIT, Link
from repro.transport.codec import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    frame_burst,
)
from tests.runtime.fake_io import deliver

SPEC = ClusterSpec(algorithm="bsr", f=1)
OWNERS = ("client", "mesh")


def run(coro):
    return asyncio.run(coro)


class FakeOperation:
    def __init__(self, op_id):
        self.op_id = op_id


class FakeTransport:
    """Transport stand-in recording what the link wrote to it."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def payloads(self, write=-1):
        """The payloads of one recorded write, verified and in order."""
        auth = SPEC.authenticator()
        return [bytes(payload)
                for frame in FrameAssembler().feed(self.writes[write])
                for payload in auth.open_any(frame)[1]]


class Dialer:
    """Stands in for ``loop.create_connection``: fake transports, on demand."""

    def __init__(self):
        self.refuse = False
        self.dialed_at = []
        self.transports = []
        self._loop = asyncio.get_running_loop()
        self._loop.create_connection = self

    async def __call__(self, factory, host, port):
        self.dialed_at.append(self._loop.time())
        if self.refuse:
            raise ConnectionRefusedError(host, port)
        protocol, transport = factory(), FakeTransport()
        self.transports.append(transport)
        protocol.connection_made(transport)
        return transport, protocol


async def make_link(owner):
    """An established link as ``owner`` builds it -> (link, owner object)."""
    if owner == "client":
        addresses = {pid: ("127.0.0.1", 1) for pid in SPEC.node_ids}
        client = AsyncRegisterClient("w000", addresses, 1,
                                     SPEC.authenticator(),
                                     backoff_base=0.05, backoff_max=1.0)
        link = client._link("s000")
        assert await link.dial()
        return link, client
    node = SPEC.build_node("s000")
    node.set_peers({pid: ("127.0.0.1", 1) for pid in SPEC.node_ids})
    link = node._peer_link("s001")  # dials at once, in the background
    await until(lambda: up(link))
    return link, node


def up(link):
    return link._transport is not None


async def until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


@pytest.mark.parametrize("owner", OWNERS)
def test_frames_sent_in_one_tick_coalesce_into_one_write(owner):
    async def scenario():
        dialer = Dialer()
        link, holder = await make_link(owner)
        assert isinstance(link, Link)
        transport = dialer.transports[0]
        burst = [b"frame-%d" % i for i in range(4)]
        for payload in burst:
            link.send(payload)
        assert transport.writes == []  # nothing leaves mid-tick
        await asyncio.sleep(0)
        assert len(transport.writes) == 1
        assert transport.payloads() == burst
        link.send(b"next-tick")
        await asyncio.sleep(0)
        assert len(transport.writes) == 2
        if owner == "client":
            assert holder.stats()["send_batches"] == 2

    run(scenario())


@pytest.mark.parametrize("owner", OWNERS)
def test_pause_writing_holds_the_queue_and_resume_flushes_in_order(owner):
    async def scenario():
        dialer = Dialer()
        link, _ = await make_link(owner)
        transport = dialer.transports[0]
        link.pause_writing()
        link.send(b"a")
        link.send(b"b")
        await asyncio.sleep(0)
        link.send(b"c")
        await asyncio.sleep(0)
        assert transport.writes == []
        link.resume_writing()
        assert len(transport.writes) == 1
        assert transport.payloads() == [b"a", b"b", b"c"]

    run(scenario())


@pytest.mark.parametrize("owner", OWNERS)
def test_full_queue_sheds_oldest_and_counts(owner, caplog):
    async def scenario():
        dialer = Dialer()
        link, holder = await make_link(owner)
        transport = dialer.transports[0]
        link.pause_writing()
        for i in range(PEER_QUEUE_LIMIT + 3):
            link.send(b"%d" % i)
        link.resume_writing()
        sent = transport.payloads()
        assert len(sent) == PEER_QUEUE_LIMIT
        assert sent[0] == b"3" and sent[-1] == b"%d" % (PEER_QUEUE_LIMIT + 2)
        if owner == "client":
            assert holder.stats()["frames_dropped"] == 3
        assert caplog.text.count("shed the oldest payload") == 3

    run(scenario())


@pytest.mark.parametrize("owner", OWNERS)
def test_connection_lost_fires_on_down_once_redials_and_replays(owner):
    async def scenario():
        dialer = Dialer()
        link, holder = await make_link(owner)
        downs = []
        on_down = link.on_down
        link.on_down = lambda: (downs.append(1), on_down())
        if owner == "client":
            # An operation in flight, with one frame already sent to s000.
            state = holder._dispatcher.register(FakeOperation(1))
            state.pending["s000"] = [("QueryData", b"in-flight")]
        dialer.refuse = True
        lost_at = asyncio.get_running_loop().time()
        link.connection_lost(None)
        link.connection_lost(None)  # a second report changes nothing
        assert downs == [1] and not up(link)
        if owner == "mesh":
            link.send(b"in-flight")  # held while down
        await until(lambda: len(dialer.dialed_at) >= 3)
        # Backoff: no dial straight after the loss, growing gaps after.
        assert dialer.dialed_at[1] - lost_at >= 0.5 * link.backoff_base
        assert (dialer.dialed_at[2] - dialer.dialed_at[1]
                >= link.backoff_base)
        dialer.refuse = False
        await until(lambda: up(link))
        assert dialer.transports[-1].payloads() == [b"in-flight"]
        assert downs == [1]
        if owner == "client":
            stats = holder.stats()
            assert stats["disconnects"] == 1 and stats["reconnects"] == 1
            assert stats["connects"] == 1 and stats["frames_resent"] == 1
            assert set(holder._connections) == {"s000"}
        link.close()

    run(scenario())


def test_oversized_frame_resets_only_its_own_link():
    async def scenario():
        dialer = Dialer()
        link, client = await make_link("client")
        other = client._link("s001")
        assert await other.dial()
        poisoned, healthy = dialer.transports
        deliver(link, (MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        assert poisoned.closed and not healthy.closed
        assert client.stats()["frames_dropped"] == 1
        # A read that was already on its way while the link closes must
        # not raise into the event loop, and hands on no frame.
        deliver(link, frame_burst([b"late"]))
        assert client.stats()["recv_calls"] == 0
        link.connection_lost(None)  # what the closed transport reports
        assert set(client._connections) == {"s001"}
        assert link.redialing and not other.redialing
        await client.close()

    run(scenario())


def test_inbound_frames_arrive_whole_in_order_and_not_across_reconnects():
    async def scenario():
        dialer = Dialer()
        link, _ = await make_link("mesh")  # a link with no frame handler
        got = []
        link.on_frames = lambda frames, now: got.extend(map(bytes, frames))
        big = bytes(range(256)) * (FrameAssembler.INITIAL_CAPACITY // 100)
        exact = b"e" * (FrameAssembler.INITIAL_CAPACITY - 4)
        payloads = [b"a", big, b"", exact, b"z"]
        # Short reads: the big frame needs several fills and one grow.
        deliver(link, frame_burst(payloads), max_read=40_000)
        assert got == payloads
        # Half a frame, then the connection dies: the next connection
        # must not glue its first bytes onto the stale half.
        deliver(link, frame_burst([b"never-completed"])[:9])
        link.connection_lost(None)
        await until(lambda: up(link))
        assert len(dialer.transports) == 2
        deliver(link, frame_burst([b"fresh"]))
        assert got == payloads + [b"fresh"]
        link.close()

    run(scenario())


def test_cancelled_dial_task_propagates_and_stays_down():
    """Regression: the supervisor swallowed CancelledError, dropped the
    link, slept and re-dialed -- so nothing but close() could stop it."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            victim = cluster.server_ids[0]
            await cluster.nodes[victim].stop()
            client = cluster.client("w000", backoff_base=0.02,
                                    backoff_max=0.05)
            assert await client.connect() == 4
            tasks = [link._task for link in client._links.values()
                     if link.redialing]
            assert len(tasks) == 1
            for task in tasks:
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await asyncio.wait_for(task, 1.0)
            await cluster.nodes[victim].start()
            await asyncio.sleep(0.3)
            assert client.stats()["connected"] == 4
        finally:
            await cluster.stop()

    run(scenario())


FORGOTTEN_CLOSE = """
import asyncio
from repro.runtime import LocalCluster

async def main():
    cluster = LocalCluster("bsr", f=1)
    await cluster.start()
    client = cluster.client("w000")
    await client.connect()
    await client.write(b"x")
    # No client.close(), no cluster.stop().

asyncio.run(main())
print("exited")
"""


def run_fresh_interpreter(script, timeout, **env):
    """Run ``script`` against this checkout in a new process -> stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_interpreter_exits_when_close_is_forgotten():
    assert run_fresh_interpreter(FORGOTTEN_CLOSE, 5).strip() == "exited"


def test_operations_create_no_tasks():
    """No task per operation, flush or reply: only the caller's own."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            client = cluster.client("w000")
            await client.connect()
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting_factory)
            try:
                for i in range(200):
                    if i % 4 == 0:
                        await client.write(b"v%d" % i)
                    else:
                        assert await client.read() == b"v%d" % (i - i % 4)
            finally:
                loop.set_task_factory(None)
            assert created == []
        finally:
            await cluster.stop()

    run(scenario())


SOLO_READS = """
import asyncio, resource
from repro.runtime import LocalCluster

async def main():
    cluster = LocalCluster("bsr", f=1, n=5)
    await cluster.start()
    client = cluster.client("w000")
    await client.connect()
    await client.write(b"v" * 64)
    for _ in range(50):  # warm every buffer and cache first
        await client.read()
    recvs = client.stats()["recv_calls"]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(500):
        await client.read()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
          client.stats()["recv_calls"] - recvs)
    await cluster.stop()

asyncio.run(main())
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_minflt and the mmap threshold are Linux/glibc")
def test_reads_do_not_page_fault_per_recv():
    """A recv must land in the link's own buffer, not in a fresh one.

    ``sock.recv(256 KiB)`` -- what a plain ``asyncio.Protocol`` costs --
    allocates above glibc's 128 KiB mmap threshold: mmap, two minor
    faults, munmap, per recv; ~20 faults per five-server read.  glibc
    raises that threshold for good once a process frees one such chunk,
    so the run is a fresh interpreter with the threshold pinned.
    """
    faults, recvs = map(int, run_fresh_interpreter(
        SOLO_READS, 60, MALLOC_MMAP_THRESHOLD_="131072").split())
    # What the saving scales with: one recv per server per read on the
    # client (and as many again on the nodes, which share the process).
    assert 4 * 500 <= recvs <= 6 * 500
    assert faults < 2 * 500, faults / 500
