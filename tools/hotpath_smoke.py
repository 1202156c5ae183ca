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

Exit status: 0 on success, 1 on wrong results or a blown budget.
"""

import sys
import time

from repro.core.bsr import BSRReadOperation, BSRServer
from repro.core.messages import DataReply, PutData, QueryData, QueryTag
from repro.core.namespace import NamespacedMessage, NamespacedOperation
from repro.core.tags import Tag
from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, StripedCodec
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


def main():
    elapsed = run_pass()
    coded = run_coded_pass()
    keyed = run_keyed_pass()
    if elapsed is None or coded is None or keyed is None:
        return 1
    print(coded)
    print(keyed)
    status = "ok"
    if elapsed > BUDGET_SECONDS:
        status = f"BLOWN BUDGET ({BUDGET_SECONDS:.1f}s)"
    print(f"hotpath-smoke: {COUNT} messages in {elapsed * 1000:.0f} ms "
          f"({COUNT / elapsed:,.0f}/s) -- {status}")
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
