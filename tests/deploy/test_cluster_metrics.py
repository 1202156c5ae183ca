"""Golden-shape test: ``repro cluster status --json --metrics``.

Boots a real process-per-node cluster, drives traffic through it, then
invokes the CLI exactly as an operator would (a separate process) and
asserts the JSON it prints carries per-node phase histograms that
distinguish the paper's rounds.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.deploy import ClusterSpec, ClusterSupervisor
from tests.runtime.test_thrifty import hold_back

pytestmark = pytest.mark.procs


def make_spec(tmp_path):
    return ClusterSpec(algorithm="bsr", f=1,
                       snapshot_dir=str(tmp_path / "snaps"),
                       secret="metrics-test")


def cli_env():
    import repro
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_status_json_carries_per_node_phase_histograms(tmp_path, unhedged):
    hold_back("s004", [f"s{i:03d}" for i in range(5)])

    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            writer = supervisor.client("w000", timeout=10.0)
            reader = supervisor.client("r000", timeout=10.0)
            await writer.connect()
            await reader.connect()
            for index in range(3):
                await writer.write(f"v{index}".encode())
                await reader.read()
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "cluster", "status",
                 "--spec", supervisor.spec_path, "--json", "--metrics"],
                env=cli_env(), capture_output=True, text=True, timeout=60)
            return completed
        finally:
            await supervisor.stop()

    completed = asyncio.run(scenario())
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["ok"] is True
    assert len(report["nodes"]) == 5
    for entry in report["nodes"]:
        assert entry["state"] == "healthy"
        health = entry["health"]
        assert health["history_len"] >= 1
        if entry["node"] == "s004":
            # Every op held s004 back: it served no round, stored nothing.
            assert entry["phases"] == {}
            assert health["snapshot_age"] == -1
            continue
        assert health["frames"] > 0
        assert health["snapshot_age"] >= 0  # spec persists snapshots
        # Every other node served both write rounds and the read round,
        # and the histograms keep them apart.
        phases = entry["phases"]
        assert set(phases) == {"get-tag", "put-data", "get-data"}
        for digest in phases.values():
            assert digest["count"] == 3
            assert 0 <= digest["p50"] <= digest["p95"] <= digest["p99"]
            assert digest["p99"] > 0


def test_metrics_dump_emits_prometheus_text(tmp_path):
    async def scenario():
        spec = make_spec(tmp_path)
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            client = supervisor.client("w000", timeout=10.0)
            await client.connect()
            await client.write(b"scrape-me")
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "metrics", "dump",
                 "--spec", supervisor.spec_path],
                env=cli_env(), capture_output=True, text=True, timeout=60)
            return completed
        finally:
            await supervisor.stop()

    completed = asyncio.run(scenario())
    assert completed.returncode == 0, completed.stderr
    text = completed.stdout
    assert "# TYPE repro_node_frames_total counter" in text
    assert "# TYPE repro_node_phase_seconds histogram" in text
    # One labelled series per node for the frame counter.
    frame_lines = [line for line in text.splitlines()
                   if line.startswith("repro_node_frames_total{")]
    assert len(frame_lines) == 5
