"""What a process imports is what it runs.

Every ``repro`` process pays for its imports at start-up: each node the
zygote forks, each ``repro`` command, each benchmark run.  These tests
start fresh interpreters and read ``sys.modules`` where it matters --
after the benchmark's imports, in the node zygote at the moment it
forks, after ``import repro.cli`` -- and hold each to the code it runs:
no simulator, chaos, model checker, baselines, Reed-Solomon codec or
HTTP server where a BSR cluster runs none of them.
"""

import json
import subprocess
import sys

import pytest

from repro.deploy import ClusterSpec
from repro.deploy.supervisor import child_env

#: Loaded by none of the three processes below.
UNUSED = ("repro.sim.simulator", "repro.chaos", "repro.modelcheck",
          "repro.baselines", "repro.broadcast", "repro.erasure.rs",
          "repro.obs.httpd", "repro.core.register", "http.server")

#: What the benchmark imports from the program.
BENCH_IMPORTS = ("import repro.runtime, repro.deploy, repro.obs, "
                 "repro.sharding, repro.consistency, repro.workloads, "
                 "repro.sim.trace")

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"

#: Runs the zygote's own entry, with ``os.fork`` standing in to report
#: ``sys.modules`` at the first fork -- all a forked node starts with.
_ZYGOTE_AT_FORK = """
import json, os, sys

def fork():
    os.write(1, (json.dumps(sorted(sys.modules)) + "\\n").encode())
    os._exit(0)

os.fork = fork
from repro.cli import main
main(["node", "zygote", "--spec", sys.argv[1]])
"""


def loaded(script, *args, stdin=""):
    done = subprocess.run(
        [sys.executable, "-c", script, *args], input=stdin,
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
    modules = loaded(_ZYGOTE_AT_FORK, path, stdin="spawn s000\n")
    assert unused_in(modules) == []
    # The protocol is looked up before the fork, so a node imports
    # nothing after it.
    assert {"repro.protocols.bsr", "repro.core.bsr",
            "repro.runtime.node", "repro.transport.codec2"} <= modules
    assert "repro.core.regular" not in modules
