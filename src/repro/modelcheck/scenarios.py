"""Ready-made model-checking scenarios mirroring the paper's proofs."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.byzantine.behaviors import Behavior, HistoryReplayBehavior
from repro.core.bcsr import BCSRReadOperation, BCSRServer
from repro.core.bsr import BSRReadOperation, BSRReaderState, BSRServer
from repro.core.messages import PutData
from repro.core.operation import WriteOperation
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import StripedCodec
from repro.modelcheck.world import OpSpec, World
from repro.types import reader_id, server_id, writer_id

INITIAL = b"v0"
FIRST, SECOND = b"v1", b"v2"


def _read_predicate(results: List) -> Optional[str]:
    """The safety clause the Theorem 5/6 scenarios exercise.

    Operations are sequential, so the final read is concurrent with no
    write and must return the *second* write's value.
    """
    read_value = results[-1]
    if read_value != SECOND:
        return (f"completed read returned {read_value!r} although "
                f"{SECOND!r} was the latest completed write")
    return None


def bsr_preseeded_write_read(n: int, f: int = 1,
                             liar_count: Optional[int] = None):
    """Theorem 5's shape with the first write pre-seeded.

    Exploring the first write adds nothing adversarial (it completes before
    anything else starts), but multiplies the state space.  This scenario
    starts from the state *after* ``W1(v1)`` completed by reaching servers
    ``s0 .. s(n-f-1)`` -- a reachable state by construction -- and then
    exhaustively explores every schedule of ``W2(v2)`` and the read.

    This is the scenario the E11 benchmark verifies exhaustively at
    ``n = 4f + 1`` and breaks automatically at ``n = 4f``.
    """
    liars = f if liar_count is None else liar_count
    servers_ids = [server_id(i) for i in range(n)]
    first_tag = Tag(1, writer_id(0))

    def factory() -> World:
        servers = {}
        for i, pid in enumerate(servers_ids):
            server = BSRServer(pid, initial_value=INITIAL)
            if i < n - f:  # W1's quorum: the first n - f servers
                server.adopt(TaggedValue(first_tag, FIRST))
            servers[pid] = server
        behaviors: Dict[str, Behavior] = {
            server_id(i): HistoryReplayBehavior(offset=1) for i in range(liars)
        }
        ops = [
            OpSpec(writer_id(1), lambda: WriteOperation(
                writer_id(1), servers_ids, f, SECOND)),
            OpSpec(reader_id(0), lambda: BSRReadOperation(
                reader_id(0), servers_ids, f,
                reader_state=BSRReaderState(INITIAL))),
        ]
        return World(servers, ops, behaviors=behaviors)

    return factory, _read_predicate


def bsr_read_stage(n: int, f: int, w1_quorum: Tuple[int, ...],
                   w2_quorum: Tuple[int, ...],
                   liar_count: Optional[int] = None):
    """The read stage of Theorem 5, exhaustively checkable.

    Both writes are pre-seeded: ``W1(v1)`` reached exactly ``w1_quorum``
    (server indices) and ``W2(v2)`` reached exactly ``w2_quorum``; the
    put-data copies for the servers each write missed are *still in
    flight* as initial pending messages (channels are reliable, so they
    must eventually arrive -- maybe during the read).  The explored
    nondeterminism is then the full read stage: every interleaving of the
    leftover puts with the read's queries and replies.

    Combined with :func:`all_quorum_pairs`, this yields a genuinely
    exhaustive check of the read's safety at a given ``n``: every write
    quorum choice x every read schedule.
    """
    liars = f if liar_count is None else liar_count
    if len(w1_quorum) < n - f or len(w2_quorum) < n - f:
        raise ValueError("write quorums must contain at least n - f servers")
    servers_ids = [server_id(i) for i in range(n)]
    tag1, tag2 = Tag(1, writer_id(0)), Tag(2, writer_id(1))

    def factory() -> World:
        servers = {}
        leftovers = []
        for i, pid in enumerate(servers_ids):
            server = BSRServer(pid, initial_value=INITIAL)
            if i in w1_quorum:
                server.adopt(TaggedValue(tag1, FIRST))
            else:
                leftovers.append(
                    (writer_id(0), pid, PutData(op_id=10_001, tag=tag1,
                                                payload=FIRST)))
            if i in w2_quorum:
                server.adopt(TaggedValue(tag2, SECOND))
            else:
                leftovers.append(
                    (writer_id(1), pid, PutData(op_id=10_002, tag=tag2,
                                                payload=SECOND)))
            servers[pid] = server
        behaviors: Dict[str, Behavior] = {
            server_id(i): HistoryReplayBehavior(offset=1) for i in range(liars)
        }
        ops = [
            OpSpec(reader_id(0), lambda: BSRReadOperation(
                reader_id(0), servers_ids, f,
                reader_state=BSRReaderState(INITIAL))),
        ]
        return World(servers, ops, behaviors=behaviors,
                     initial_pending=leftovers)

    return factory, _read_predicate


def bcsr_read_stage(n: int, f: int, w1_quorum: Tuple[int, ...],
                    w2_quorum: Tuple[int, ...], k: Optional[int] = None,
                    liar_count: Optional[int] = None):
    """The read stage of Theorem 6: BCSR's coded analogue of
    :func:`bsr_read_stage`.

    Servers are pre-seeded with their coded elements of ``v1`` (for
    ``w1_quorum``) and ``v2`` (for ``w2_quorum``); missed PUT-DATA copies
    are in flight; ``liar_count`` servers replay their previous state on
    reads.  The predicate demands the read decode ``v2``.

    ``k`` defaults to the paper's ``n - 5f``, clamped to 1 below the bound
    (the defender's best choice there).
    """
    liars = f if liar_count is None else liar_count
    if len(w1_quorum) < n - f or len(w2_quorum) < n - f:
        raise ValueError("write quorums must contain at least n - f servers")
    if k is None:
        k = n - 5 * f if n > 5 * f else 1
    servers_ids = [server_id(i) for i in range(n)]
    tag1, tag2 = Tag(1, writer_id(0)), Tag(2, writer_id(1))
    codec = StripedCodec(n, k)
    elements1 = codec.encode(FIRST)
    elements2 = codec.encode(SECOND)

    def factory() -> World:
        servers = {}
        leftovers = []
        for i, pid in enumerate(servers_ids):
            server = BCSRServer(pid, i, codec, initial_value=INITIAL)
            if i in w1_quorum:
                server.adopt(TaggedValue(tag1, elements1[i]))
            else:
                leftovers.append(
                    (writer_id(0), pid, PutData(op_id=10_001, tag=tag1,
                                                payload=elements1[i])))
            if i in w2_quorum:
                server.adopt(TaggedValue(tag2, elements2[i]))
            else:
                leftovers.append(
                    (writer_id(1), pid, PutData(op_id=10_002, tag=tag2,
                                                payload=elements2[i])))
            servers[pid] = server
        behaviors: Dict[str, Behavior] = {
            server_id(i): HistoryReplayBehavior(offset=1) for i in range(liars)
        }
        ops = [
            OpSpec(reader_id(0), lambda: BCSRReadOperation(
                reader_id(0), servers_ids, f, codec=codec,
                initial_value=INITIAL)),
        ]
        return World(servers, ops, behaviors=behaviors,
                     initial_pending=leftovers)

    return factory, _read_predicate


def all_quorum_pairs(n: int, f: int):
    """Every (W1 quorum, W2 quorum) pair of exactly ``n - f`` servers."""
    from itertools import combinations
    quorums = list(combinations(range(n), n - f))
    for w1 in quorums:
        for w2 in quorums:
            yield w1, w2


