"""Crash-recovery over TCP: node snapshots survive a full cluster restart."""

import asyncio
import os

import pytest

from repro.runtime import LocalCluster
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
