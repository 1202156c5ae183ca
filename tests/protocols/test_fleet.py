"""Builder parity: the simulator, LocalCluster and ClusterSpec build alike.

All three deployment builders go through one recipe,
:class:`repro.protocols.fleet.Fleet`.  These tests pin what that buys:
they reject the same bad Byzantine maps with the same error, and on every
server they host the same thing -- server class, per-key quorum group
and coded index, and the layer that applies a Byzantine behaviour --
for every registered protocol in every deployment mode.
"""

import ast
import importlib.util
import os

import pytest

from repro.core.register import RegisterSystem
from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.protocols import get_spec, names
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig, RegisterTable, key_name
from repro.types import server_id

F = 1
KEYS = [key_name(i) for i in range(8)]
MODES = ("single", "namespaced", "keyspace")


# -- validation ----------------------------------------------------------------

BUILDERS = {
    "sim": lambda byzantine: RegisterSystem("bsr", f=F, byzantine=byzantine),
    "local": lambda byzantine: LocalCluster("bsr", f=F, byzantine=byzantine),
    "spec": lambda byzantine: ClusterSpec(algorithm="bsr", f=F,
                                          byzantine=byzantine),
}


@pytest.mark.parametrize("byzantine", [
    {"s999": "silent"},
    {"s000": "silent", "s001": "stale"},
], ids=["unknown-server", "f-plus-one"])
def test_every_builder_rejects_the_same_byzantine_maps(byzantine):
    messages = {}
    for name, build in BUILDERS.items():
        with pytest.raises(ConfigurationError) as info:
            build(byzantine)
        messages[name] = str(info.value)
    assert len(set(messages.values())) == 1, messages


# -- what each server hosts ----------------------------------------------------

def _layout(algorithm, mode):
    """``(n, keyspace, namespaced)`` of one deployment mode."""
    spec = get_spec(algorithm)
    floor = spec.min_servers(F)
    if mode == "single":
        return floor, None, False
    if mode == "namespaced":
        return floor, None, True
    # Groups smaller than the fleet, so group and fleet indices differ.
    n = floor if spec.group_spans_fleet else floor + 2
    return n, KeyspaceConfig(group_size=floor, seed=3), True


def _name(obj):
    return None if obj is None else type(obj).__name__


def _server(server):
    """Class, peer group (broadcast protocols) and coded index (BCSR)."""
    return (type(server).__name__, tuple(getattr(server, "peers", ())),
            getattr(server, "index", None))


def _routed(n, keyspace):
    """pid -> the probe keys routed to it (all of them unsharded).

    A broadcast server refuses to be built outside its own group, so a
    table is only probed on keys its server actually serves.
    """
    if keyspace is None:
        return lambda pid: KEYS
    placement = keyspace.placement([server_id(i) for i in range(n)])
    return lambda pid: [key for key in KEYS
                        if pid in placement.servers_for(key)]


def _describe(host, outer_behavior, keys):
    """What one server hosts, in builder-independent terms."""
    if not isinstance(host, RegisterTable):
        return ("bare", None, _name(outer_behavior), _server(host))
    return ("table", _name(host.behavior), _name(outer_behavior),
            {key: _server(host.register_server(key)) for key in keys})


def _sim(algorithm, mode, behavior):
    n, keyspace, namespaced = _layout(algorithm, mode)
    system = RegisterSystem(algorithm, f=F, n=n, keyspace=keyspace,
                            namespaced=namespaced,
                            byzantine={0: behavior} if behavior else None)
    keys = _routed(n, keyspace)
    return {pid: _describe(system.server_protocols[pid],
                           system.sim.processes[pid].behavior, keys(pid))
            for pid in system.server_ids}


def _local(algorithm, mode, behavior):
    n, keyspace, namespaced = _layout(algorithm, mode)
    cluster = LocalCluster(algorithm, f=F, n=n, keyspace=keyspace,
                           namespaced=namespaced,
                           byzantine={0: behavior} if behavior else None)
    keys = _routed(n, keyspace)
    return {pid: _describe(node.protocol, node.behavior, keys(pid))
            for pid, node in cluster.nodes.items()}


def _spec(algorithm, mode, behavior):
    n, keyspace, _ = _layout(algorithm, mode)
    spec = ClusterSpec(algorithm=algorithm, f=F, n=n, base_port=47000,
                       keyspace=keyspace.to_dict() if keyspace else {},
                       byzantine={"s000": behavior} if behavior else {})
    keys = _routed(n, keyspace)
    return {pid: _describe(spec.build_protocol(pid),
                           spec.build_node(pid).behavior, keys(pid))
            for pid in spec.node_ids}


@pytest.mark.parametrize("behavior", [None, "stale"],
                         ids=["honest", "one-byzantine"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", names())
def test_builders_host_the_same_servers(algorithm, mode, behavior):
    spec = get_spec(algorithm)
    if mode != "single" and not spec.namespaced_ok:
        pytest.skip(f"{algorithm} does not host named registers")
    sim = _sim(algorithm, mode, behavior)
    # A table applies the behaviour per key; a bare server's process does.
    _, table_behavior, outer_behavior, _ = sim["s000"]
    carried = "StaleBehavior" if behavior else None
    if mode == "single":
        assert (table_behavior, outer_behavior) == (None, carried)
    else:
        assert (table_behavior, outer_behavior) == (carried, None)
    if not spec.runtime_ok:
        return
    assert _local(algorithm, mode, behavior) == sim
    if mode != "namespaced":  # a spec names registers only via a keyspace
        assert _spec(algorithm, mode, behavior) == sim


def test_spec_keyspace_shares_one_codec_across_keys():
    spec = ClusterSpec(algorithm="bcsr", f=F, keyspace={"group_size": 6})
    codecs = {id(spec.build_protocol(pid).register_server(key).codec)
              for pid in ("s000", "s003") for key in KEYS}
    assert codecs == {id(spec.fleet.codec)}


# -- the lint that keeps it that way -------------------------------------------

@pytest.fixture(scope="module")
def dead_code_lint():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "check_dead_code", os.path.join(root, "tools", "check_dead_code.py"))
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    return lint


def test_lint_allows_each_builder_in_one_module_only(dead_code_lint):
    modules = {
        "fleet.py": ast.parse("ctx = ServerContext(1)\nRegisterTable(pid)\n"),
        "cluster.py": ast.parse(
            "node = RegisterServerNode(pid)\n"
            "hint = ServerContext  # a name, not a call\n"),
    }
    assert dead_code_lint.builder_findings(modules) == []
    modules["spec.py"] = ast.parse("ctx = protocols.ServerContext(2)\n")
    findings = dead_code_lint.builder_findings(modules)
    assert len(findings) == 1
    assert findings[0].startswith("ServerContext( is called from 2 modules")
    assert "fleet.py" in findings[0] and "spec.py" in findings[0]
