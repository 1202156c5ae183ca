"""ClusterSupervisor against real OS processes (``procs`` marker).

Each test starts a genuine ``repro node zygote`` child that forks one
node process per node, so these are the slowest unit-level tests in the
tree; ``make cluster-smoke`` runs just this marker.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.deploy import (
    ClusterSpec,
    ClusterSupervisor,
    default_state_path,
    read_state,
)
from repro.errors import ConfigurationError

pytestmark = pytest.mark.procs


def run(coro):
    return asyncio.run(coro)


def make_spec(tmp_path, **overrides):
    defaults = dict(algorithm="bsr", f=1,
                    snapshot_dir=str(tmp_path / "snaps"),
                    secret="supervisor-test")
    defaults.update(overrides)
    return ClusterSpec(**defaults)


def test_start_spawns_one_process_per_node(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            rows = supervisor.status()
            assert len(rows) == 5
            assert all(row["running"] for row in rows)
            pids = {row["pid"] for row in rows}
            assert len(pids) == 5          # five distinct OS processes
            assert os.getpid() not in pids  # none of them is us
            for node_id in spec.node_ids:
                assert await supervisor.healthy(node_id)
        finally:
            await supervisor.stop()
        assert not any(handle.running
                       for handle in supervisor.handles.values())

    run(scenario())


def test_client_operations_against_process_cluster(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            writer = supervisor.client("w000", timeout=10.0)
            reader = supervisor.client("r000", timeout=10.0)
            await writer.connect()
            await reader.connect()
            await writer.write(b"across-processes")
            assert await reader.read() == b"across-processes"
        finally:
            await supervisor.stop()

    run(scenario())


def test_crash_restart_pins_port_and_recovers_snapshot(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            client = supervisor.client("w000", timeout=10.0)
            await client.connect()
            await client.write(b"durable")

            victim = spec.node_ids[2]
            old_pid = supervisor.handles[victim].pid
            old_address = supervisor.handles[victim].address
            await supervisor.crash(victim)
            assert not supervisor.handles[victim].running
            assert not await supervisor.healthy(victim)

            await supervisor.restart(victim)
            handle = supervisor.handles[victim]
            assert handle.running
            assert handle.pid != old_pid
            assert handle.address == old_address  # port pinned for clients
            assert handle.restarts == 1
            assert await supervisor.healthy(victim)
            # The write survived the SIGKILL via the snapshot.
            assert await client.read() == b"durable"
        finally:
            await supervisor.stop()

    run(scenario())


def test_kill_rejects_dead_node(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            victim = spec.node_ids[0]
            await supervisor.crash(victim)
            with pytest.raises(ConfigurationError):
                supervisor.kill(victim, signal.SIGKILL)
        finally:
            await supervisor.stop()

    run(scenario())


def test_state_file_tracks_pids_and_is_removed_on_stop(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        state_path = default_state_path(spec)
        assert state_path.startswith(spec.snapshot_dir)
        await supervisor.start()
        try:
            state = read_state(state_path)
            assert state["spec_path"] == supervisor.spec_path
            assert set(state["nodes"]) == set(spec.node_ids)
            for node_id, entry in state["nodes"].items():
                assert entry["pid"] == supervisor.handles[node_id].pid
                assert entry["port"] == supervisor.handles[node_id].address[1]
            # The spec file the children loaded is a faithful copy.
            with open(state["spec_path"], "rb") as fh:
                assert ClusterSpec.from_dict(json.load(fh)) == spec
        finally:
            await supervisor.stop()
        assert not os.path.exists(state_path)
        with pytest.raises(ConfigurationError):
            read_state(state_path)

    run(scenario())


def test_unready_child_raises_instead_of_hanging(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        # A python that exits at once never forks a node that could
        # write a READY line.
        supervisor = ClusterSupervisor(spec, ready_timeout=5.0)
        supervisor.python = "/bin/false"
        with pytest.raises(ConfigurationError):
            await supervisor.start()
        for handle in supervisor.handles.values():
            assert not handle.running

    run(scenario())
