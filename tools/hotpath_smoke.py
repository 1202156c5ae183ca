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
transports and counts what the nodes write: after each write of a 64 KiB
BCSR value at ``n = 8, f = 1``, the first read gets ``n - f`` full coded
elements, and a repeat read writes ``n - f`` ``QueryDataHeld`` and gets
``n - f`` ``DataHeld`` replies carrying no element (nothing is left for
the tail-delta layer); and with 64 B keyed BSR values every frame must be
exactly what the stateless nameless seal of the same payloads produces
(small replies never touch the delta layer).  Counts only, no timing.

A fifth, thrifty pass counts frames over the same in-memory pipes: a
quiet write and read at ``f = 1`` -- a keyed BSR read writes exactly
``n - f`` requests, gets ``n - f`` replies and hedges nothing, and so does
a BCSR read, while a BCSR write (servers hold distinct coded symbols)
still goes to all ``n``.

A sixth, memory pass counts what servers keep: after 200 writes of
64 KiB to a BCSR fleet (``n = 8``, ``max_history = 128``, one ``stale``
server), each correct server holds exactly one coded element -- the
only one it ever answers from -- and the Byzantine one ``min(201, 128)``.
Counts only, no timing.

A seventh, held pass counts conditional reads over the in-memory pipes: a
repeat keyed BSR read of an unchanged key writes ``n - f`` requests and
gets ``n - f`` ``DataHeld`` replies, none carrying the value, while the
first read after a write still gets full replies; and the first BCSR read
and the first keyed BSR read after a write move an exact number of bytes,
op_ids pinned so the count is exact (replies carry neither the server's
name nor the register wrapper, requests on a bound link carry no name,
and no payload carries what its class fixes).  Counts only, no timing.

An eighth, binding pass counts envelope shapes: over the in-memory pipes a
client link seals its first burst named and, once a reply on that
connection verified, every later burst nameless -- and every one is
answered; and a node drops a nameless frame on a connection no named
frame has bound yet, counting it as a bad frame, then serves the same
frame once a named one bound the connection.  Counts only, no timing.

Exit status: 0 on success, 1 on wrong results or a blown budget.
"""

import asyncio
import itertools
import sys
import time
from functools import partial

from repro.core import operation as operation_module
from repro.core.bsr import BSRReadOperation, BSRServer
from repro.core.keys import key_name
from repro.core.messages import (
    DataHeld,
    DataReply,
    PutData,
    QueryData,
    QueryDataHeld,
    QueryTag,
)
from repro.core.namespace import NamespacedMessage, NamespacedOperation
from repro.core.record import with_fields
from repro.core.tags import Tag
from repro.deploy import ClusterSpec
from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, StripedCodec
from repro.node.server import _Connection
from repro.protocols.fleet import Fleet
from repro.sharding import RegisterTable, table as table_module
from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec import FrameAssembler, frame_burst
from repro.transport.codec2 import decode_message_v2, encode_message_v2

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
    return [with_fields(m, op_id=i)
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
                if reply.payload != b"v":  # bare: to the requester
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


async def _keyed_small_values():
    spec = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                       keyspace={"group_size": 5})
    wiring = Wiring(spec)
    differing = []
    real_write = _Connection.write

    def checked(self, payloads, named=False):
        before = len(self.transport.carried)
        real_write(self, payloads, named)
        stateless = frame_burst(self.node.auth.seal_frames(
            self.node.server_id, payloads, named=named)) if payloads else b""
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
    """Per version one full element per addressed server, then DataHeld;
    small replies sealed statelessly."""
    spec = ClusterSpec(algorithm="bcsr", f=CODED_F, n=CODED_N,
                       base_port=7000)
    values = [bytes([version]) * CODED_SIZE for version in range(3)]
    problem = _pinned(partial(_conditional_reads, spec, "default", values,
                              CODED_SIZE // CODED_K))
    if problem is None:
        problem = asyncio.run(_keyed_small_values())
    if problem is not None:
        print(f"hotpath-smoke: {problem}")
        return None
    quorum = CODED_N - CODED_F
    return (f"hotpath-smoke: reply pass -- per version {quorum} full "
            f"elements, then {quorum} QueryDataHeld answered by {quorum} "
            "DataHeld carrying none; small replies byte-identical to the "
            "stateless nameless seal")


async def _quiet_rounds(spec, register):
    """``(requests, replies, hedges)`` of one quiet write, then one read."""
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    value = b"v" * 64
    counts = []
    for operation in (partial(client.write, value), client.read):
        up, down = wiring.frames("up"), wiring.frames("down")
        hedges = client.stats()["hedges"]
        result = await operation(register=register)
        if operation is client.read and result != value:
            return None
        await asyncio.sleep(0.01)  # surplus replies, if any, land
        counts.append((wiring.frames("up") - up, wiring.frames("down") - down,
                       client.stats()["hedges"] - hedges))
    await client.close()
    return counts


def run_thrifty_pass():
    """Quiet rounds go to n - f servers; a BCSR write's to all n."""
    bsr = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                      keyspace={"group_size": 5})
    bcsr = ClusterSpec(algorithm="bcsr", f=1, n=6, base_port=7000)
    for spec, register, want in (
            (bsr, key_name(0), [(8, 8, 0), (4, 4, 0)]),
            (bcsr, "default", [(12, 12, 0), (5, 5, 0)])):
        got = asyncio.run(_quiet_rounds(spec, register))
        if got != want:
            print(f"hotpath-smoke: a quiet {spec.algorithm} write and read at "
                  f"n={spec.n} made (requests, replies, hedges) = {got}, "
                  f"want {want}")
            return None
    return ("hotpath-smoke: thrifty pass -- a keyed BSR read writes 4 "
            "requests to n=5 servers and 0 hedges, a BCSR read 5 to n=6; "
            "a BCSR write still writes n per round")


#: Memory pass: writes of ``CODED_SIZE`` bytes under this history bound.
MEMORY_WRITES, MEMORY_BOUND = 200, 128


def run_memory_pass():
    """Correct BCSR servers keep one element; a Byzantine one its bound."""
    fleet = Fleet.build("bcsr", f=CODED_F, n=CODED_N,
                        max_history=MEMORY_BOUND, byzantine={7: "stale"})
    servers = {pid: fleet.host(pid) for pid in fleet.server_ids}
    elements = fleet.codec.encode(bytes(range(256)) * (CODED_SIZE // 256))
    for num in range(1, MEMORY_WRITES + 1):
        for index, server in enumerate(servers.values()):
            server.handle("w000", PutData(op_id=num, tag=Tag(num, "w000"),
                                          payload=elements[index]))
    held = {pid: len(server.history) for pid, server in servers.items()}
    want = {pid: (min(MEMORY_WRITES + 1, MEMORY_BOUND)
                  if pid in fleet.behaviors else 1) for pid in servers}
    if held != want:
        print(f"hotpath-smoke: after {MEMORY_WRITES} writes the BCSR servers "
              f"hold {held} pairs, want {want}")
        return None
    return (f"hotpath-smoke: memory pass -- after {MEMORY_WRITES} writes "
            f"each correct BCSR server holds 1 element, the stale one "
            f"{want['s007']}")


def _messages(wiring, direction, auth):
    """``(payload, inner message)`` carried in ``direction`` since the
    last call; forgets them."""
    found = []
    for pid, pipes in getattr(wiring, direction).items():
        # Replies are nameless, and so are requests on a bound link.
        peer = pid if direction == "down" else "w000"
        for pipe in pipes:
            for burst in pipe.carried:
                for frame in FrameAssembler().feed(burst):
                    for payload in auth.open_any(frame, peer)[1]:
                        message = decode_message_v2(payload)
                        found.append(
                            (payload, getattr(message, "inner", message)))
            pipe.carried.clear()
    return found


async def _conditional_reads(spec, register, values, share):
    """Problem string of one client's conditional reads, or None.

    After each write of ``values`` to ``register``, a first read gets
    ``n - f`` full replies (its query names a pair from the second write
    on) and a repeat read writes ``n - f`` ``QueryDataHeld`` and gets
    ``n - f`` ``DataHeld`` replies, none longer than ``share`` (what one
    server stores of a value).
    """
    auth = spec.authenticator()
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    quorum = spec.n - spec.f
    for number, value in enumerate(values):
        await client.write(value, register=register)
        for expect in ("full", "held"):
            _messages(wiring, "up", auth)
            _messages(wiring, "down", auth)
            if await client.read(register=register) != value:
                return f"a {spec.algorithm} read returned a wrong value"
            await asyncio.sleep(0.01)  # surplus replies, if any, land
            up = _messages(wiring, "up", auth)
            down = _messages(wiring, "down", auth)
            query = (QueryData if expect == "full" and number == 0
                     else QueryDataHeld)
            reply = DataReply if expect == "full" else DataHeld
            if (len(up) != quorum or len(down) != quorum
                    or any(type(m) is not query for _, m in up)
                    or any(type(m) is not reply for _, m in down)):
                return (f"a {expect} {spec.algorithm} read wrote "
                        f"{[type(m).__name__ for _, m in up]} and got "
                        f"{[type(m).__name__ for _, m in down]}")
            carrying = sum(len(payload) > share for payload, _ in down)
            if carrying != (quorum if expect == "full" else 0):
                return (f"{carrying} replies of a {expect} {spec.algorithm} "
                        "read carried the value")
    stats = client.stats()
    held = stats["replies_held"]
    await client.close()
    if stats["delta_expanded"] or stats["delta_resets"]:
        return (f"{spec.algorithm} replies went as tail deltas "
                f"({stats['delta_expanded']}, {stats['delta_resets']} resets)")
    if held != quorum * len(values):
        return (f"the client counted {held} held replies, want "
                f"{quorum * len(values)}")
    return None


#: Bytes a BCSR read at ``n = 6, f = 1`` of a 64 B value writes (requests,
#: replies) with op_ids pinned to :data:`PINNED_OP_ID` onwards: ``n - f``
#: plain queries answered by ``n - f`` coded elements (the reader holds
#: none).  Each request goes nameless on a link the write bound (5 B: a
#: 1-byte marker where ``name_len(2) | "w000"`` stood) with a two-byte
#: header (2 B: no field count, no value tag before the op_id), and each
#: reply has the same header; both carry a three-byte op_id where the
#: earlier pin of ``2**40 + 1`` took six (3 B).  So (260, 625) became
#: (210, 600): 10 B per request, 5 B per reply.  Every envelope then
#: carried a 16-byte tag where the full 32-byte digest stood, 16 B on
#: each of the 5 requests and 5 replies: (130, 520).
BCSR_READ_BYTES = (130, 520)

#: ... and a keyed BSR read at ``n = 5, f = 1`` of a 64 B value on
#: ``key-0000``, the first after its write: ``n - f`` queries answered by
#: ``n - f`` full replies, each bare and nameless.  A request saves 14 B:
#: its name (5 B), a header that also held the wrapper's field count and
#: value tags and the inner message's magic, field count and op_id tag
#: (6 B), and three op_id bytes; a reply saves 5 B as above.  So
#: (264, 480) became (208, 460); the 16-byte tag then saved 16 B on each
#: of the 4 requests and 4 replies: (144, 396).
KEYED_READ_BYTES = (144, 396)

#: The pinned start of the op_id counter: inside the range a process
#: draws its start from, where an op_id is a three-byte varint.
PINNED_OP_ID = (1 << 19) | 1


async def _read_bytes(spec, register):
    """``(requests, replies)`` bytes of the first read after a write."""
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    value = bytes(range(64))
    await client.write(value, register=register)

    def carried(direction):
        return sum(len(burst) for pipes in getattr(wiring, direction).values()
                   for pipe in pipes for burst in pipe.carried)

    before = carried("up"), carried("down")
    if await client.read(register=register) != value:
        return None
    await asyncio.sleep(0.01)
    await client.close()
    return carried("up") - before[0], carried("down") - before[1]


def _pinned(scenario):
    """Run ``scenario`` with op_ids from :data:`PINNED_OP_ID`: exact byte
    counts, and a thrifty client's writes and reads all in one rotation
    run."""
    counter = operation_module._op_counter
    operation_module._op_counter = itertools.count(PINNED_OP_ID)
    try:
        return asyncio.run(scenario())
    finally:
        operation_module._op_counter = counter


def run_held_pass():
    """Repeat BSR reads elide the value; first reads' bytes are pinned."""
    keyed = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                        keyspace={"group_size": 5})
    problem = _pinned(partial(_conditional_reads, keyed, key_name(0),
                              [b"\x5a" * 64, b"\xa5" * 64], 64))
    if problem is not None:
        print(f"hotpath-smoke: {problem}")
        return None
    for spec, register, want in (
            (ClusterSpec(algorithm="bcsr", f=1, n=6, base_port=7000),
             "default", BCSR_READ_BYTES),
            (keyed, key_name(0), KEYED_READ_BYTES)):
        got = _pinned(partial(_read_bytes, spec, register))
        if got != want:
            print(f"hotpath-smoke: a {spec.algorithm} read of {register} "
                  f"wrote (requests, replies) = {got} bytes, want {want}")
            return None
    return ("hotpath-smoke: held pass -- a repeat keyed BSR read writes 4 "
            "requests and gets 4 DataHeld replies without the value; a "
            f"BCSR read writes {BCSR_READ_BYTES} bytes, a keyed BSR read "
            f"{KEYED_READ_BYTES}")


async def _bound_links(spec, register):
    """``(named, nameless, replies)`` frames of a quiet write and read."""
    wiring = Wiring(spec)
    client = spec.client("w000", timeout=10.0)
    await client.connect()
    await client.write(b"v" * 64, register=register)
    if await client.read(register=register) != b"v" * 64:
        return None
    await asyncio.sleep(0.01)
    await client.close()
    shapes = [bytes(frame[:1]) in (b"\xfe", b"\xfd")
              for pipes in wiring.up.values() for pipe in pipes
              for burst in pipe.carried
              for frame in FrameAssembler().feed(burst)]
    bad = sum(node.stats["frames_bad"] for node in wiring.nodes.values())
    return (shapes.count(False), shapes.count(True), wiring.frames("down"),
            bad)


class Sink:
    """A transport that keeps what is written to it and delivers nothing."""

    def __init__(self):
        self.carried = []

    def write(self, data):
        self.carried.append(bytes(data))

    def is_closing(self):
        return False


async def _unbound_connection(spec, register):
    """Bad frames and written bursts after a nameless frame on an unbound
    connection, then a named one, then the nameless one again."""
    node = spec.build_node(spec.node_ids[0])
    connection, sink = _Connection(node), Sink()
    connection.connection_made(sink)
    inbound = Pipe(asyncio.get_running_loop())
    inbound.peer = connection
    auth = spec.authenticator()
    payload = encode_message_v2(NamespacedMessage(
        register, QueryTag(op_id=PINNED_OP_ID)))
    counts = []
    for named in (False, True, False):
        inbound._deliver(frame_burst(
            auth.seal_frames("w000", [payload], named=named)))
        counts.append((node.stats["frames_bad"], len(sink.carried)))
    return counts


def run_binding_pass():
    """A link goes nameless once bound; a node binds before it listens."""
    keyed = ClusterSpec(algorithm="bsr", f=1, n=5, base_port=7000,
                        keyspace={"group_size": 5})
    got = _pinned(partial(_bound_links, keyed, key_name(0)))
    # Three rounds to the same n - f = 4 servers: each link's get-tag
    # goes named, its put-data and read query nameless, all answered.
    if got != (4, 8, 12, 0):
        print(f"hotpath-smoke: a quiet keyed write and read made (named, "
              f"nameless, replies, bad frames) = {got}, want (4, 8, 12, 0)")
        return None
    got = asyncio.run(_unbound_connection(keyed, key_name(0)))
    want = [(1, 0), (1, 1), (1, 2)]
    if got != want:
        print(f"hotpath-smoke: a node connection fed nameless, named, "
              f"nameless made (bad frames, bursts written) = {got}, "
              f"want {want}")
        return None
    return ("hotpath-smoke: binding pass -- a link's first burst named, "
            "the 8 after its first verified reply nameless and answered; "
            "a nameless frame on an unbound connection dropped and counted")


def main():
    elapsed = run_pass()
    coded = run_coded_pass()
    keyed = run_keyed_pass()
    replies = run_reply_pass()
    thrifty = run_thrifty_pass()
    memory = run_memory_pass()
    held = run_held_pass()
    binding = run_binding_pass()
    if None in (elapsed, coded, keyed, replies, thrifty, memory, held,
                binding):
        return 1
    print(coded)
    print(keyed)
    print(replies)
    print(thrifty)
    print(memory)
    print(held)
    print(binding)
    status = "ok"
    if elapsed > BUDGET_SECONDS:
        status = f"BLOWN BUDGET ({BUDGET_SECONDS:.1f}s)"
    print(f"hotpath-smoke: {COUNT} messages in {elapsed * 1000:.0f} ms "
          f"({COUNT / elapsed:,.0f}/s) -- {status}")
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
