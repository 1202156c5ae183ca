"""What a process imports is what it runs.

Every ``repro`` process pays for its imports at start-up: each node the
zygote forks, each ``repro`` command, each benchmark run.  These tests
start fresh interpreters and read ``sys.modules`` where it matters --
after the benchmark's imports, in the node zygote at the moment it
forks, after ``import repro.cli`` -- and hold each to the code it runs:
no simulator, chaos, model checker, baselines, Reed-Solomon codec or
HTTP server where a BSR cluster runs none of them, and in a node none
of the CLI, the client side, the supervisor or the analysis half of
:mod:`repro.obs`.
"""

import asyncio
import json
import subprocess
import sys

import pytest

from repro.core import messages
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.deploy import ClusterSpec, ClusterSupervisor
from repro.deploy.supervisor import child_env, zygote_command
from repro.erasure.element import CodedElement

#: Loaded by none of the three processes below.
UNUSED = ("repro.sim.simulator", "repro.chaos", "repro.modelcheck",
          "repro.baselines", "repro.broadcast", "repro.erasure.rs",
          "repro.obs.httpd", "repro.core.register", "http.server")

#: Loaded by no node: what the CLI, a client or a supervisor runs.
NOT_IN_A_NODE = ("repro.cli", "argparse", "repro.runtime.client",
                 "repro.runtime.cluster", "repro.deploy.supervisor",
                 "repro.obs.stitch", "repro.obs.timeseries")

#: What the benchmark imports from the program.
BENCH_IMPORTS = ("import repro.runtime, repro.deploy, repro.obs, "
                 "repro.sharding, repro.consistency, repro.workloads, "
                 "repro.sim.trace")

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"

#: Runs the module a ``python -m`` command line names, with its
#: arguments, and ``os.fork`` standing in to report ``sys.modules`` at
#: the first fork -- all a forked node starts with.
_AT_FIRST_FORK = """
import json, os, runpy, sys

def fork():
    os.write(1, (json.dumps(sorted(sys.modules)) + "\\n").encode())
    os._exit(0)

os.fork = fork
sys.argv = sys.argv[1:]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


def loaded(script, *args, flags=(), stdin=""):
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *args], input=stdin,
        capture_output=True, text=True, timeout=60, env=child_env())
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def unused_in(modules):
    return [name for name in UNUSED if name in modules]


def test_the_benchmark_imports_no_unused_subsystem():
    assert unused_in(loaded(f"{BENCH_IMPORTS}; {_REPORT}")) == []


def test_the_cli_imports_no_command_at_import():
    modules = loaded(f"import repro.cli; {_REPORT}")
    assert unused_in(modules) == []
    assert "repro.protocols" not in modules


@pytest.mark.parametrize("keyspace", [{}, {"group_size": 5}],
                         ids=["single", "keyed"])
def test_a_bsr_zygote_forks_with_the_node_closure_only(tmp_path, keyspace):
    path = ClusterSpec(algorithm="bsr", f=1, secret="closure",
                       keyspace=keyspace).save(str(tmp_path / "c.json"))
    # The command line the supervisor execs, its module run as `-m` does.
    command = zygote_command(sys.executable, path)
    at = command.index("-m")
    modules = loaded(_AT_FIRST_FORK, *command[at + 1:],
                     flags=command[1:at], stdin="spawn s000\n")
    assert unused_in(modules) == []
    assert [name for name in NOT_IN_A_NODE if name in modules] == []
    # The protocol is looked up before the fork, so a node imports
    # nothing after it.
    assert {"repro.protocols.bsr", "repro.core.bsr",
            "repro.node.server", "repro.transport.codec2"} <= modules
    assert "repro.core.regular" not in modules


def test_no_wire_class_is_a_dataclass():
    import dataclasses
    wire = [*messages.MESSAGE_TYPES.values(), NamespacedMessage, Tag,
            TaggedValue, CodedElement]
    assert [cls.__name__ for cls in wire
            if dataclasses.is_dataclass(cls)] == []
    assert all(not hasattr(cls(*[0] * len(cls._fields)), "__dict__")
               for cls in wire)


@pytest.mark.procs
def test_a_supervised_zygote_writes_nothing_to_stderr(tmp_path, capfd):
    # The zygote inherits stderr: a warning at its start-up (runpy's, on
    # a package that imports the module it runs) or its exit shows here.
    spec = ClusterSpec(algorithm="bsr", f=1, secret="quiet")
    supervisor = ClusterSupervisor(
        spec, spec_path=spec.save(str(tmp_path / "c.json")))

    async def cycle():
        await supervisor.start()
        await supervisor.stop()

    capfd.readouterr()
    asyncio.run(cycle())
    assert capfd.readouterr().err == ""
