"""End-to-end runs against a real process-per-node cluster (``procs``).

The acceptance path for the deployment subsystem: a 5-node BSR (f=1)
cluster as five OS processes driven from one :class:`ClusterSpec`, with
the nemesis delivering *real* SIGKILLs and the supervisor restarting
victims from their snapshots, judged by the paper's safety checker.
"""

import asyncio

import pytest

from repro.chaos.nemesis import build_schedule
from repro.chaos.soak import run_soak
from repro.core.persistence import restore_server
from repro.deploy import ClusterSpec, ClusterSupervisor, health_ping
from repro.obs import MemorySink
from tests.runtime.test_thrifty import hold_back

pytestmark = pytest.mark.procs


def run(coro):
    return asyncio.run(coro)


def test_sigkill_mid_write_recovers_from_snapshot(tmp_path):
    """A node killed mid-write rejoins from its snapshot, reads stay safe."""
    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1, max_history=8,
                           snapshot_dir=str(tmp_path / "snaps"),
                           secret="sigkill-mid-write")
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            writer = supervisor.client("w000", timeout=10.0)
            reader = supervisor.client("r000", timeout=10.0)
            await writer.connect()
            await reader.connect()
            await writer.write(b"before-crash")

            victim = spec.node_ids[1]

            async def kill_mid_write():
                # Land the SIGKILL inside the write's two round trips.
                await asyncio.sleep(0.01)
                await supervisor.crash(victim)

            results = await asyncio.gather(
                writer.write(b"during-crash"), kill_mid_write())
            assert results[0] is not None  # write completed despite the kill

            # More writes while the victim is down: n - 1 >= n - f servers
            # remain, so the cluster stays live (Lemma 6).
            await writer.write(b"while-down")
            assert await reader.read() == b"while-down"

            await supervisor.restart(victim)
            assert await supervisor.healthy(victim)
            # The restarted node restored a *bounded* history: max_history
            # capped what the snapshot carried.
            ack = await health_ping(supervisor.handles[victim].address,
                                    spec.authenticator())
            assert 1 <= ack.history_len <= 8

            await writer.write(b"after-recovery")
            assert await reader.read() == b"after-recovery"
        finally:
            await supervisor.stop()

    run(scenario())


def test_every_acked_put_reaches_a_node_processs_snapshot(tmp_path, unhedged):
    """Past a full bounded history a put keeps the history's length, and
    is still checkpointed before the node acks it."""
    servers = [f"s{i:03d}" for i in range(5)]
    hold_back("s004", servers)

    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1, max_history=2,
                           snapshot_dir=str(tmp_path / "snaps"),
                           secret="checkpoint-every-put")
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            writer = supervisor.client("w000", timeout=10.0)
            await writer.connect()
            for i in range(4):
                tag = await writer.write(f"v{i + 1}".encode())
        finally:
            await supervisor.stop()
        return tag

    fourth = run(scenario())
    snapshots = {}
    for pid in servers:
        path = tmp_path / "snaps" / f"{pid}.snapshot"
        if path.exists():
            snapshots[pid] = [pair.tag for pair in
                              restore_server(path.read_bytes()).history]
    assert snapshots == {pid: [fourth] for pid in servers[:4]}


def test_acceptance_soak_procs_crash_restart(tmp_path):
    """ISSUE acceptance: procs soak with SIGKILL crash-restart, zero
    safety violations, bounded snapshots, reconnects recorded."""
    servers = [f"s{i:03d}" for i in range(5)]
    [crash, _] = build_schedule("crash-restart", servers, 1, seed=5,
                                start=0.4, period=0.9)
    # Thrifty clients must address the node the nemesis kills.
    hold_back(next(p for p in servers if p not in crash.targets), servers)
    sink = MemorySink()
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="crash-restart", ops=16,
        read_ratio=0.6, seed=5, start=0.4, period=0.9, timeout=15.0,
        snapshot_dir=str(tmp_path / "snaps"), max_history=6, procs=True,
        client_kwargs={"trace_sink": sink},
    ))
    assert result.procs
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.ops_completed >= 16
    assert any("crash" in event for event in result.nemesis_events)
    assert any("restart" in event for event in result.nemesis_events)
    # Real crashes severed TCP connections; clients had to re-dial.
    reconnects = sum(stats.get("reconnects", 0)
                     for stats in result.client_stats.values())
    assert reconnects > 0
    # max_history bounded the on-disk snapshots: with 6 entries of
    # 32-byte values a snapshot stays well under 2 KiB per node.  A node
    # has one if it acked a write, and only if it was sent one (a write
    # holds a node back unless the crash made it hedge).
    puts = [phase for record in sink.records for phase in record["phases"]
            if phase["phase"] == "put-data"]
    acked = {pid for phase in puts for pid in phase["replies"]}
    sent = {pid for phase in puts for pid in phase["sent"]}
    assert len(acked) >= 4
    assert acked <= set(result.snapshot_bytes) <= sent
    assert all(0 < size < 2048 for size in result.snapshot_bytes.values())


def test_procs_soak_rejects_proxy_schedules(tmp_path):
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        run(run_soak(algorithm="bsr", f=1, schedule="rolling-partition",
                     procs=True, snapshot_dir=str(tmp_path / "snaps")))
