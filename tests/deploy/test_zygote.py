"""The node zygote and what a supervisor leaves behind (``procs`` marker).

``repro node zygote`` forks every node of a :class:`ClusterSupervisor`.
These tests hold it to its line protocol -- one ``os.write`` per line on
a stdout its children share -- and to the two promises the supervisor
builds on: the nodes go down with a supervisor that dies, and a stopped
supervisor has no process left that could write anything.
"""

import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.deploy import ClusterSpec, read_state
from repro.deploy.supervisor import child_env
from repro.node.serve import EXIT, READY, parse_line

pytestmark = pytest.mark.procs


def make_spec(tmp_path, **overrides):
    defaults = dict(algorithm="bsr", f=1,
                    snapshot_dir=str(tmp_path / "snaps"),
                    secret="zygote-test")
    defaults.update(overrides)
    spec = ClusterSpec(**defaults)
    return spec, spec.save(str(tmp_path / "cluster.json"))


def alive(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except FileNotFoundError:
        return False


def read_lines(fd, count, timeout=30.0):
    """``count`` complete lines from ``fd``, or fewer at EOF."""
    deadline = time.monotonic() + timeout
    data = b""
    while data.count(b"\n") < count:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"timed out; read so far: {data!r}"
        if select.select([fd], [], [], remaining)[0]:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            data += chunk
    return data.decode().splitlines()


def test_parse_line_takes_whole_lines_only():
    assert parse_line("READY s001 127.0.0.1 7101 4242\n") == (
        READY, "s001", "127.0.0.1", 7101, 4242)
    assert parse_line("EXIT s001 4242 -9") == (EXIT, "s001", 4242, -9)
    # What two writers racing on one pipe make of two lines.
    assert parse_line("READY s000 127.0.0.1 44219READY s001 "
                      "127.0.0.1 44220 4243") is None
    assert parse_line("READY s001 127.0.0.1 port 4242") is None
    assert parse_line("node s001 stopped") is None


def test_ready_and_exit_lines_of_five_children_all_parse(tmp_path):
    spec, path = make_spec(tmp_path)
    zygote = subprocess.Popen(
        [sys.executable, "-m", "repro", "node", "zygote", "--spec", path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        env=child_env())
    try:
        # Five forks asked for in one write, so the children bind and
        # write their READY lines at the same time.
        zygote.stdin.write("".join(f"spawn {node}\n"
                                   for node in spec.node_ids).encode())
        ready = [parse_line(line)
                 for line in read_lines(zygote.stdout.fileno(), 5)]
        assert all(line is not None and line[0] == READY for line in ready)
        assert sorted(line[1] for line in ready) == sorted(spec.node_ids)
        pids = {line[1]: line[4] for line in ready}
        assert len(set(pids.values())) == 5
        assert zygote.pid not in pids.values()

        zygote.stdin.close()  # EOF: SIGTERM every node, wait, exit
        exits = [parse_line(line)
                 for line in read_lines(zygote.stdout.fileno(), 6)]
        assert zygote.wait(timeout=30) == 0
    finally:
        if zygote.poll() is None:  # pragma: no cover - failed above
            zygote.kill()
            zygote.wait()
        zygote.stdout.close()
    assert all(line is not None and line[0] == EXIT for line in exits)
    assert {line[1]: line[2] for line in exits} == pids
    assert [line[3] for line in exits] == [0] * 5  # each stopped cleanly
    assert not any(alive(pid) for pid in pids.values())


def test_nodes_go_down_with_a_killed_supervisor(tmp_path):
    _, path = make_spec(tmp_path)
    state_path = str(tmp_path / "state.json")
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "serve", "--spec", path,
         "--state", state_path],
        stdout=subprocess.DEVNULL, env=child_env())
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(state_path):
            assert supervisor.poll() is None, "supervisor exited"
            assert time.monotonic() < deadline, "no state file"
            time.sleep(0.05)
        state = read_state(state_path)
        pids = [entry["pid"] for entry in state["nodes"].values()]
        assert len(pids) == 5 and all(alive(pid) for pid in pids)

        supervisor.send_signal(signal.SIGKILL)
        supervisor.wait()
        deadline = time.monotonic() + 2.0
        while any(alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if alive(pid)] == []
        # The zygote reaped them all, so it is on its way out too.
        zygote = state["zygote_pid"]
        assert zygote not in pids
        while alive(zygote) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(zygote)
    finally:
        for pid in pids:
            if alive(pid):  # pragma: no cover - the test failed
                os.kill(pid, signal.SIGKILL)
        if supervisor.poll() is None:  # pragma: no cover
            supervisor.kill()
            supervisor.wait()


_HYGIENE_SCRIPT = """
import asyncio, sys
from repro.deploy import ClusterSpec, ClusterSupervisor, read_state

async def main():
    spec = ClusterSpec(algorithm="bsr", f=1, snapshot_dir=sys.argv[1],
                       secret="hygiene")
    supervisor = ClusterSupervisor(spec)
    await supervisor.start()
    pids = {read_state(supervisor.state_path)["zygote_pid"]}
    pids.update(handle.pid for handle in supervisor.handles.values())
    client = supervisor.client("w000", timeout=10.0)
    await client.connect()
    await client.write(b"before the crash")
    victim = spec.node_ids[1]
    await supervisor.crash(victim)
    await supervisor.restart(victim)
    pids.add(supervisor.handles[victim].pid)
    assert await client.read() == b"before the crash"
    await supervisor.stop()
    return pids

pids = asyncio.run(main())
print("PIDS", *sorted(pids))
print("HYGIENE-SENTINEL")
"""


def test_stop_leaves_no_process_and_no_output_behind(tmp_path):
    # The way a benchmark harness uses the supervisor: everything it
    # prints after stop() returns must be its own, and last.
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", _HYGIENE_SCRIPT, str(tmp_path / "snaps")],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert done.stderr == ""
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[-1] == "HYGIENE-SENTINEL"
    pids = [int(pid) for pid in lines[-2].split()[1:]]
    assert len(pids) == 7  # the zygote, five nodes, one restarted node
    assert [pid for pid in pids if alive(pid)] == []
