"""Unit tests for the model checker's World mechanics."""

import pytest

from repro.core.bsr import BSRReadOperation, BSRReaderState, BSRServer
from repro.core.operation import WriteOperation
from repro.core.messages import PutData, QueryTag
from repro.core.tags import Tag, TaggedValue
from repro.modelcheck import OpSpec, World
from repro.types import reader_id, server_id, writer_id

N, F = 4, 1
SERVER_IDS = [server_id(i) for i in range(N)]


def write_world():
    servers = {pid: BSRServer(pid, initial_value=b"v0") for pid in SERVER_IDS}
    ops = [OpSpec(writer_id(0), lambda: WriteOperation(
        writer_id(0), SERVER_IDS, F, b"v1"))]
    return World(servers, ops)


def test_first_op_starts_immediately():
    world = write_world()
    assert len(world.ops) == 1
    # The write's QUERY-TAG to every server is pending.
    assert len(world.pending) == N
    assert all(isinstance(e.message, QueryTag) for e in world.pending)


def test_deliver_to_server_generates_reply():
    world = write_world()
    world.deliver(0)
    assert len(world.pending) == N  # one query consumed, one reply added
    reply_entry = world.pending[-1]
    assert reply_entry.dst == writer_id(0)


def test_write_completes_after_enough_deliveries():
    world = write_world()
    # Deliver everything repeatedly until quiescence.
    while world.pending and not world.done:
        world.deliver(0)
    assert world.done
    assert world.results[0] == Tag(1, writer_id(0))


def test_clone_isolation():
    world = write_world()
    twin = world.clone()
    world.deliver(0)
    assert world.state_key() != twin.state_key()
    assert [e.key() for e in world.pending] != [e.key() for e in twin.pending]
    # Server state diverges independently.
    world.servers[SERVER_IDS[0]].history.append(
        TaggedValue(Tag(9, "x"), b"mutation"))
    assert len(twin.servers[SERVER_IDS[0]].history) == 1


def test_state_key_stable_under_clone():
    world = write_world()
    assert world.state_key() == world.clone().state_key()


def test_state_key_merges_symmetric_servers():
    # Two worlds that differ only by which correct server holds a value
    # must produce the same key (symmetry reduction).
    def world_with_extra(index):
        servers = {pid: BSRServer(pid, initial_value=b"v0")
                   for pid in SERVER_IDS}
        servers[SERVER_IDS[index]].history.append(
            TaggedValue(Tag(1, "w"), b"x"))
        ops = [OpSpec(reader_id(0), lambda: BSRReadOperation(
            reader_id(0), SERVER_IDS, F,
            reader_state=BSRReaderState(b"v0")))]
        return World(servers, ops)

    assert world_with_extra(1).state_key() == world_with_extra(2).state_key()


def test_initial_pending_delivered_like_any_message():
    servers = {pid: BSRServer(pid, initial_value=b"v0") for pid in SERVER_IDS}
    leftover = (writer_id(0), SERVER_IDS[0],
                PutData(op_id=1, tag=Tag(1, writer_id(0)), payload=b"v1"))
    ops = [OpSpec(reader_id(0), lambda: BSRReadOperation(
        reader_id(0), SERVER_IDS, F,
        reader_state=BSRReaderState(b"v0")))]
    world = World(servers, ops, initial_pending=[leftover])
    assert len(world.pending) == 1 + N  # leftover + read queries
    # Find and deliver the leftover put.
    index = next(i for i, e in enumerate(world.pending)
                 if isinstance(e.message, PutData))
    world.deliver(index)
    assert servers[SERVER_IDS[0]].latest.value == b"v1"


def test_sequential_chain_starts_next_op():
    servers = {pid: BSRServer(pid, initial_value=b"v0") for pid in SERVER_IDS}
    ops = [
        OpSpec(writer_id(0), lambda: WriteOperation(
            writer_id(0), SERVER_IDS, F, b"v1")),
        OpSpec(reader_id(0), lambda: BSRReadOperation(
            reader_id(0), SERVER_IDS, F,
            reader_state=BSRReaderState(b"v0"))),
    ]
    world = World(servers, ops)
    while not world.done:
        assert not world.stuck
        world.deliver(0)
    assert world.results == [Tag(1, writer_id(0)), b"v1"]


def test_stuck_detection():
    servers = {pid: BSRServer(pid, initial_value=b"v0") for pid in SERVER_IDS}
    ops = [OpSpec(reader_id(0), lambda: BSRReadOperation(
        reader_id(0), SERVER_IDS, F,
        reader_state=BSRReaderState(b"v0")))]
    world = World(servers, ops)
    # Drop every message by delivering to a black-hole: simulate by
    # clearing pending -- the world is then stuck.
    world.pending.clear()
    assert world.stuck and not world.done
