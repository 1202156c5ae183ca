"""Hot-path smoke: the wire path under a time budget, the decoder under a
ratio, the keyed path under a count.

A fast regression tripwire for the wire path (`make lint` runs it): the
codec encodes a realistic message mix, the bursts are batch-sealed and
framed, then reassembled, verified and decoded back to equal objects.
If an accidental O(n^2) or a per-frame allocation regression lands in
the codec, authenticator or assembler, this blows the budget loudly
long before a benchmark run would notice.

A second, coded pass guards the BCSR decoder the same way: one server
lying in its coded element must not make a read an order of magnitude
dearer than a clean one (it did: 19x, through per-byte Python loops).
The check is a ratio within this process, so the host's speed cancels,
plus a count of single-stripe Berlekamp-Welch calls, which has no noise.

A third, keyed pass counts work that must happen once or not at all:
evicting a key nobody wrote, or one unchanged since it was rehydrated,
must not serialise it, and a keyed broadcast must stay one message
object (the client encodes per object).  Counts only, no timing.

A fourth, reply pass runs real clients against real nodes over in-memory
transports and counts what the nodes write: repeat reads of a 64 KiB BCSR
register may carry one full coded element per connection per version
(the rest are tail deltas), and with 64 B keyed BSR values every frame
must be exactly what the stateless seal of the same payloads produces
(small replies never touch the delta layer).  Counts only, no timing.

A fifth, thrifty pass counts frames over the same in-memory pipes: a
quiet keyed BSR read at ``n = 5, f = 1`` writes exactly ``n - f``
requests, gets ``n - f`` replies and hedges nothing, while a BCSR read
(servers hold distinct coded symbols) still writes ``n``.

Exit status: 0 on success, 1 on wrong results or a blown budget.
"""

import asyncio
import sys
import time

from repro.core.bsr import BSRReadOperation, BSRServer
from repro.core.keys import key_name
from repro.core.messages import DataReply, PutData, QueryData, QueryTag
from repro.core.namespace import NamespacedMessage, NamespacedOperation
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, StripedCodec
from repro.runtime.node import _Connection
from repro.sharding import RegisterTable, table as table_module
from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec import FrameAssembler, frame_burst
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from repro.transport.delta import DELTA_MIN_BYTES

#: Messages in the pass.
COUNT = 10_000

#: Wall-clock budget for the pass (generous: ~10x the observed cost on
#: a slow container, tight enough to catch a 100x regression).
BUDGET_SECONDS = 5.0

#: Frames per sealed batch (mirrors a deep pipeline's per-tick burst).
BURST = 16


def build_messages(count):
    tag = Tag(3, "w000")
    value = b"v" * 128
    mix = [
        QueryTag(op_id=0),
        PutData(op_id=0, tag=tag, payload=value),
        QueryData(op_id=0),
        DataReply(op_id=0, tag=tag, payload=value),
    ]
    return [type(m)(**{**m.__dict__, "op_id": i})
            for i, m in ((i, mix[i % len(mix)]) for i in range(count))]


def run_pass():
    auth = Authenticator(KeyChain.from_secret(b"smoke", ["w000"]))
    assembler = FrameAssembler()
    messages = build_messages(COUNT)
    started = time.perf_counter()
    decoded = 0
    for at in range(0, COUNT, BURST):
        burst = messages[at:at + BURST]
        payloads = [encode_message_v2(m) for m in burst]
        wire = frame_burst(auth.seal_frames("w000", payloads))
        for frame in assembler.feed(wire):
            _, opened = auth.open_any(frame)
            for payload in opened:
                message = decode_message_v2(payload)
                if message != burst[decoded % BURST]:
                    print("hotpath-smoke: round-trip mismatch "
                          f"at message {decoded}: {message!r}")
                    return None
                decoded += 1
    elapsed = time.perf_counter() - started
    if decoded != COUNT:
        print(f"hotpath-smoke: decoded {decoded} of {COUNT}")
        return None
    if len(assembler) != 0:
        print(f"hotpath-smoke: {len(assembler)} bytes left buffered")
        return None
    return elapsed


#: Coded pass: BCSR's ``[n, k]`` at ``f = 1`` on a 64 KiB value.
CODED_N, CODED_K, CODED_F, CODED_SIZE = 8, 3, 1, 65536

#: A decode with one systematic element corrupted throughout may cost
#: this many clean decodes (measured: < 3x; the regression was 19x).
CORRUPT_RATIO = 5.0


def run_coded_pass():
    """Clean vs corrupted decode; returns a status line or None on failure."""
    codec = StripedCodec(CODED_N, CODED_K)
    budget = 2 * CODED_F
    value = bytes(range(256)) * (CODED_SIZE // 256)
    clean = codec.encode(value)[:CODED_N - CODED_F]
    corrupted = [CodedElement(0, bytes(clean[0].data).translate(
        bytes(b ^ 0xA5 for b in range(256))))] + clean[1:]
    calls = []
    bw = ReedSolomon.decode
    ReedSolomon.decode = lambda *a, **kw: calls.append(1) or bw(*a, **kw)
    try:
        timings = {}
        for name, elements in (("clean", clean), ("corrupted", corrupted)):
            best = float("inf")
            for _ in range(5):
                del calls[:]
                started = time.perf_counter()
                decoded = codec.decode(elements, max_errors=budget)
                best = min(best, time.perf_counter() - started)
                if decoded != value:
                    print(f"hotpath-smoke: {name} decode returned a wrong value")
                    return None
            timings[name] = best
    finally:
        ReedSolomon.decode = bw
    ratio = timings["corrupted"] / timings["clean"]
    line = (f"hotpath-smoke: coded decode clean {timings['clean'] * 1e6:.0f} us, "
            f"one systematic element corrupted {timings['corrupted'] * 1e6:.0f} us "
            f"({ratio:.1f}x, {len(calls)} BW call(s))")
    if ratio > CORRUPT_RATIO or len(calls) > budget + 1:
        print(f"{line} -- OVER (limit {CORRUPT_RATIO:.0f}x, {budget + 1} calls)")
        return None
    return line


def run_keyed_pass():
    """Evictions that must be free, a round that must be one object."""
    snapshots = []
    real = table_module.snapshot_server
    table_module.snapshot_server = lambda s: snapshots.append(s) or real(s)
    try:
        for slots in (1, 64):
            table = RegisterTable(
                "s000", factory=lambda name: BSRServer("s000"),
                max_resident=slots)

            def touch(key, inner=QueryData(op_id=1)):
                return table.handle("c0", NamespacedMessage(key, inner))

            for i in range(4 * slots + 4):
                touch(f"cold-{i}")
            if snapshots or table.archived_keys:
                print(f"hotpath-smoke: {slots}-slot table serialised "
                      f"{len(snapshots)} never-written key(s), archived "
                      f"{len(table.archived_keys)}")
                return None
            touch("hot", PutData(op_id=2, tag=Tag(1, "w000"), payload=b"v"))
            for round_ in range(3):  # evict, rehydrate by a read, evict ...
                for i in range(slots):
                    touch(f"cold-{i}")
                if table.archived_keys != ["hot"] or len(snapshots) != 1:
                    print(f"hotpath-smoke: {slots}-slot table took "
                          f"{len(snapshots)} snapshot(s) of one written, "
                          f"then unmodified key (round {round_})")
                    return None
                [(_, reply)] = touch("hot")
                if reply.inner.payload != b"v":
                    print("hotpath-smoke: rehydrated key lost its value")
                    return None
            del snapshots[:]
    finally:
        table_module.snapshot_server = real
    servers = [f"s{i:03d}" for i in range(5)]
    envelopes = NamespacedOperation(
        "k", BSRReadOperation("r000", servers, 1)).start()
    wrappers = {id(message) for _, message in envelopes}
    if len(envelopes) != len(servers) or len(wrappers) != 1:
        print(f"hotpath-smoke: a keyed query round to {len(servers)} servers "
              f"made {len(wrappers)} wrapper objects (want 1)")
        return None
    return ("hotpath-smoke: keyed pass -- 0 snapshots of never-written keys, "
            "1 per written key, 1 wrapper per round")


class Pipe:
    """An in-memory transport: what is written reaches ``peer`` (the
    protocol at the other end) on the next loop tick, and is kept."""

    def __init__(self, loop):
        self.loop = loop
        self.peer = None
        self.carried = []
        self.closed = False

    def write(self, data):
        data = bytes(data)
        self.carried.append(data)
        self.loop.call_soon(self._deliver, data)

    def _deliver(self, data):
        while data and not self.closed:
            view = self.peer.get_buffer(-1)
            n = min(len(view), len(data))
            view[:n] = data[:n]
            del view
            self.peer.buffer_updated(n)
            data = data[n:]

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed


class Wiring:
    """Stands in for ``loop.create_connection``: dials reach the spec's
    nodes through a :class:`Pipe` pair; ``down[node]`` / ``up[node]``
    list the pipes that carried that node's writes / the client's."""

    def __init__(self, spec):
        self.loop = asyncio.get_running_loop()
        self.loop.create_connection = self
        self.nodes = {pid: spec.build_node(pid) for pid in spec.node_ids}
        self.by_address = {spec.address_of(pid): pid for pid in spec.node_ids}
        self.down = {pid: [] for pid in spec.node_ids}
        self.up = {pid: [] for pid in spec.node_ids}

    def frames(self, direction):
        """Frames carried so far in ``direction`` (``up`` or ``down``)."""
        return sum(len(FrameAssembler().feed(burst))
                   for pipes in getattr(self, direction).values()
                   for pipe in pipes for burst in pipe.carried)

    async def __call__(self, factory, host, port):
        pid = self.by_address[(host, port)]
        link, connection = factory(), _Connection(self.nodes[pid])
        up, down = Pipe(self.loop), Pipe(self.loop)
        up.peer, down.peer = connection, link
        self.down[pid].append(down)
        self.up[pid].append(up)
        connection.connection_made(down)
        link.connection_made(up)
        return up, link


async def _bcsr_reads():
    spec = ClusterSpec(algorithm="bcsr", f=CODED_F, n=CODED_N,
                       base_port=7000)
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    versions, reads = 3, 10
    for version in range(versions):
        value = bytes([version]) * CODED_SIZE
        await client.write(value)
        for _ in range(reads):
            if await client.read() != value:
                return "a BCSR read returned a wrong value"
    await client.close()
    for pid, pipes in wiring.down.items():
        if len(pipes) != 1:
            return f"{len(pipes)} connections to {pid} (want 1)"
        full = [frame for burst in pipes[0].carried
                for frame in FrameAssembler().feed(burst)
                if len(frame) >= DELTA_MIN_BYTES]
        if len(full) > versions:
            return (f"the connection to {pid} carried {len(full)} full "
                    f"elements for {versions} versions")
    if client.stats()["delta_resets"]:
        return "a clean run reset a link"
    return None


async def _keyed_small_values():
    spec = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                       keyspace={"group_size": 5})
    wiring = Wiring(spec)
    differing = []
    real_write = _Connection.write

    def checked(self, payloads):
        before = len(self.transport.carried)
        real_write(self, payloads)
        stateless = frame_burst(self.node.auth.seal_frames(
            self.node.server_id, payloads)) if payloads else b""
        if b"".join(self.transport.carried[before:]) != stateless:
            differing.append(self.node.server_id)

    _Connection.write = checked
    try:
        client = spec.client("w000", timeout=10.0)
        await client.connect()
        keys = [key_name(i) for i in range(8)]
        await asyncio.gather(*(client.write(b"v" * 64, register=key)
                               for key in keys))
        values = await asyncio.gather(*(client.read(register=key)
                                        for key in keys * 4))
        await client.close()
    finally:
        _Connection.write = real_write
    if values != [b"v" * 64] * len(values):
        return "a keyed read returned a wrong value"
    written = sum(len(pipe.carried) for pipes in wiring.down.values()
                  for pipe in pipes)
    if differing or not written:
        return (f"{len(differing)} of {written} reply bursts differ from "
                "the stateless seal of their payloads")
    return None


def run_reply_pass():
    """One full element per version; small replies sealed statelessly."""
    for scenario in (_bcsr_reads, _keyed_small_values):
        problem = asyncio.run(scenario())
        if problem is not None:
            print(f"hotpath-smoke: {problem}")
            return None
    return ("hotpath-smoke: reply pass -- <= 1 full element per connection "
            "per version, small replies byte-identical to the stateless seal")


async def _read_round(spec, register):
    """(request frames, reply frames, hedges) of one quiet read."""
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    value = b"v" * 64
    await client.write(value, register=register)
    up, down = wiring.frames("up"), wiring.frames("down")
    if await client.read(register=register) != value:
        return None
    await asyncio.sleep(0.01)  # surplus replies, if any, land
    counts = (wiring.frames("up") - up, wiring.frames("down") - down,
              client.stats().get("hedges"))
    await client.close()
    return counts


def run_thrifty_pass():
    """A quiet BSR round goes to n - f servers; a BCSR round to all n."""
    bsr = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                      keyspace={"group_size": 5})
    bcsr = ClusterSpec(algorithm="bcsr", f=1, n=6, base_port=7000)
    for spec, register, want in ((bsr, key_name(0), (4, 4, 0)),
                                 (bcsr, "default", (6, 6, 0))):
        got = asyncio.run(_read_round(spec, register))
        if got != want:
            print(f"hotpath-smoke: a quiet {spec.algorithm} read at n={spec.n} "
                  f"made (requests, replies, hedges) = {got}, want {want}")
            return None
    return ("hotpath-smoke: thrifty pass -- a keyed BSR read writes 4 "
            "requests to n=5 servers and 0 hedges; a BCSR read still writes n")


def main():
    elapsed = run_pass()
    coded = run_coded_pass()
    keyed = run_keyed_pass()
    replies = run_reply_pass()
    thrifty = run_thrifty_pass()
    if None in (elapsed, coded, keyed, replies, thrifty):
        return 1
    print(coded)
    print(keyed)
    print(replies)
    print(thrifty)
    status = "ok"
    if elapsed > BUDGET_SECONDS:
        status = f"BLOWN BUDGET ({BUDGET_SECONDS:.1f}s)"
    print(f"hotpath-smoke: {COUNT} messages in {elapsed * 1000:.0f} ms "
          f"({COUNT / elapsed:,.0f}/s) -- {status}")
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
