"""Crash-recovery over TCP: node snapshots survive a full cluster restart."""

import asyncio
import os

import pytest

from repro.core.bcsr import BCSRServer
from repro.core.bsr import BSRServer
from repro.core.messages import PutData, QueryData
from repro.core.persistence import restore_server, snapshot_server
from repro.core.regular import RegularBSRServer
from repro.core.tags import Tag
from repro.node.server import RegisterServerNode
from repro.runtime import LocalCluster
from repro.transport.auth import Authenticator, KeyChain
from tests.core.test_persistence import (
    GOLDEN_BCSR,
    GOLDEN_BSR,
    populated,
    scribbled,
)
from tests.runtime.test_thrifty import hold_back

SERVERS = [f"s{i:03d}" for i in range(5)]


def run(coro):
    return asyncio.run(coro)


def test_cluster_state_survives_restart(tmp_path, unhedged):
    snapshot_dir = str(tmp_path / "snapshots")
    hold_back("s004", SERVERS)

    async def first_life():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            await writer.write(b"durable-value")
        finally:
            await cluster.stop()

    async def second_life():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            reader = cluster.client("r000")
            await reader.connect()
            return await reader.read()
        finally:
            await cluster.stop()

    run(first_life())
    # Snapshots were written for every server that stored the value: the
    # n - f the write was sent to, not s004, which it held back.
    snapshots = os.listdir(snapshot_dir)
    assert sorted(snapshots) == [f"{pid}.snapshot" for pid in SERVERS[:4]]
    assert run(second_life()) == b"durable-value"


def test_partial_snapshot_loss_is_tolerated(tmp_path, unhedged):
    """Losing f snapshots is just f slow servers: reads still succeed."""
    snapshot_dir = str(tmp_path / "snapshots")
    hold_back("s004", SERVERS)

    async def first_life():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            await writer.write(b"mostly-durable")
        finally:
            await cluster.stop()

    run(first_life())
    # s004 was never sent the write; s000 loses what it stored.
    assert "s004.snapshot" not in os.listdir(snapshot_dir)
    os.remove(os.path.join(snapshot_dir, "s000.snapshot"))

    async def second_life():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            reader = cluster.client("r000")
            await reader.connect()
            return await reader.read()
        finally:
            await cluster.stop()

    assert run(second_life()) == b"mostly-durable"


def test_bcsr_snapshots_restore_coded_elements(tmp_path):
    snapshot_dir = str(tmp_path / "snapshots")

    async def first_life():
        cluster = LocalCluster("bcsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            await writer.write(b"coded and durable")
        finally:
            await cluster.stop()

    async def second_life():
        cluster = LocalCluster("bcsr", f=1, snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            reader = cluster.client("r000")
            await reader.connect()
            return await reader.read()
        finally:
            await cluster.stop()

    run(first_life())
    assert run(second_life()) == b"coded and durable"


def snapshot_tags(snapshot_dir):
    """pid -> the tags of the history its snapshot file holds."""
    tags = {}
    for name in os.listdir(snapshot_dir):
        with open(os.path.join(snapshot_dir, name), "rb") as fh:
            restored = restore_server(fh.read())
        tags[name.split(".")[0]] = [pair.tag for pair in restored.history]
    return tags


def test_every_acked_put_is_checkpointed_past_a_full_history(tmp_path,
                                                             unhedged):
    """A put that leaves a full bounded history's length unchanged still
    changes what the node must recover; it is acked only once on disk."""
    snapshot_dir = str(tmp_path / "snapshots")
    hold_back("s004", SERVERS)

    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=5, max_history=2,
                               snapshot_dir=snapshot_dir)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            for i in range(4):
                tag = await writer.write(f"v{i + 1}".encode())
            return tag
        finally:
            await cluster.stop()

    fourth = run(scenario())
    # Every node sent the puts holds the fourth write, as its one pair.
    assert snapshot_tags(snapshot_dir) == {pid: [fourth]
                                           for pid in SERVERS[:4]}


def test_a_snapshot_restores_within_the_live_servers_bound(tmp_path):
    """A snapshot written under a larger bound (an older build's, say)
    restores as the newest pairs the live server may keep."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    deep = RegularBSRServer("s000", initial_value=b"", max_history=None)
    for i in range(1, 4):
        deep.handle("w000", PutData(op_id=i, tag=Tag(i, "w000"),
                                    payload=f"v{i}".encode()))
    (snapshot_dir / "s000.snapshot").write_bytes(snapshot_server(deep))

    async def scenario():
        cluster = LocalCluster("bsr-history", f=1, max_history=2,
                               snapshot_dir=str(snapshot_dir))
        await cluster.start()
        try:
            return list(cluster.nodes["s000"].protocol.history)
        finally:
            await cluster.stop()

    assert run(scenario()) == deep.history[-2:]


@pytest.mark.parametrize("golden", [GOLDEN_BSR, GOLDEN_BCSR],
                         ids=["bsr", "bcsr"])
def test_golden_snapshots_restore_into_a_one_pair_server(tmp_path, golden):
    recorded = restore_server(golden)
    if isinstance(recorded, BCSRServer):
        protocol = BCSRServer(recorded.server_id, recorded.index,
                              recorded.codec, max_history=1)
    else:
        protocol = BSRServer(recorded.server_id, max_history=1)
    path = tmp_path / "golden.snapshot"
    path.write_bytes(golden)
    node = RegisterServerNode(
        recorded.server_id, protocol,
        Authenticator(KeyChain.from_secret(b"golden", [recorded.server_id])),
        snapshot_path=str(path))
    node._restore_from_snapshot()
    assert protocol.history == [recorded.history[-1]]
    [(_, reply)] = protocol.handle("r000", QueryData(op_id=1))
    assert (reply.tag, reply.payload) == (recorded.latest.tag,
                                          recorded.latest.value)


def test_a_restarted_node_drops_a_scribbled_tag(tmp_path):
    """A node restarting from a snapshot edited to carry a tag above
    ``TAG_MAX`` does not hold that pair, and stores a later put."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    path = snapshot_dir / "s000.snapshot"
    recorded = populated(BSRServer)

    async def scenario():
        cluster = LocalCluster("bsr", f=1, snapshot_dir=str(snapshot_dir))
        await cluster.start()
        try:
            await cluster.crash("s000")
            path.write_bytes(scribbled(snapshot_server(recorded)))
            await cluster.restart("s000")
            protocol = cluster.nodes["s000"].protocol
            held = [pair.tag for pair in protocol.history]
            protocol.handle("w9", PutData(op_id=51, tag=Tag(3, "w9"),
                                          payload=b"post"))
            return held, protocol.latest
        finally:
            await cluster.stop()

    held, latest = run(scenario())
    assert Tag(2 ** 64, "zz") not in held
    assert held[-1] == Tag(1, "w0")
    assert (latest.tag, latest.value) == (Tag(3, "w9"), b"post")


def test_no_snapshot_dir_means_fresh_start(tmp_path):
    async def life(expect):
        cluster = LocalCluster("bsr", f=1, initial_value=b"fresh")
        await cluster.start()
        try:
            client = cluster.client("c000")
            await client.connect()
            if expect is None:
                await client.write(b"ephemeral")
                return None
            return await client.read()
        finally:
            await cluster.stop()

    run(life(None))
    assert run(life("read")) == b"fresh"  # nothing persisted
