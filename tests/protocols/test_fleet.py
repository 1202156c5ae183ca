"""Builder parity: the simulator, LocalCluster and ClusterSpec build alike.

All three deployment builders go through one recipe,
:class:`repro.protocols.fleet.Fleet`.  These tests pin what that buys:
they reject the same bad Byzantine maps and the same bad register names
with the same error, and on every server they host the same thing --
server class, per-key quorum group and coded index, and the layer that
applies a Byzantine behaviour -- for every registered protocol in every
deployment mode.
"""

import ast
import asyncio
import importlib.util
import os
import re
from collections import Counter

import pytest

from repro.core.register import RegisterSystem
from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.protocols import get_spec, names
from repro.runtime import LocalCluster
from repro.sharding import (
    MAX_KEY_LENGTH,
    KeyspaceConfig,
    RegisterTable,
    key_error,
    key_name,
)
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


#: mode -> (deployment, longest register name it accepts).
NAMED = {
    "namespaced": ({"namespaced": True}, MAX_KEY_LENGTH),
    "keyspace": ({"keyspace": KeyspaceConfig(group_size=5, max_key_len=16)},
                 16),
}


@pytest.mark.parametrize("problem", ["charset", "over-max-key-len"])
@pytest.mark.parametrize("mode", sorted(NAMED))
@pytest.mark.parametrize("builder", ["sim", "local"])
def test_every_builder_rejects_a_bad_register_name_at_once(
        builder, mode, problem):
    """Scheduling (sim) or calling (socket client) an operation on a name
    the servers would drop raises at once -- never a hang or a timeout --
    and the client keeps no per-key state for it."""
    deployment, bound = NAMED[mode]
    name = "bad key" if problem == "charset" else "k" * (bound + 1)
    expected = f"invalid register name {name!r}: {key_error(name, bound)}"
    if builder == "sim":
        system = RegisterSystem("bsr", f=F, **deployment)
        for schedule in (lambda: system.write(b"v", register=name),
                         lambda: system.read(register=name)):
            with pytest.raises(ConfigurationError) as info:
                schedule()
            assert str(info.value) == expected
        return

    async def scenario():
        cluster = LocalCluster("bsr", f=F, **deployment)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=1.0)
            await client.connect()
            for call in (lambda: client.write(b"v", register=name),
                         lambda: client.read(register=name)):
                with pytest.raises(ConfigurationError) as info:
                    await call()
                assert str(info.value) == expected
            assert not client._register_states and not client._write_locks
        finally:
            await cluster.stop()

    asyncio.run(scenario())


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
    """Class, peer group (broadcast protocols), coded index (BCSR) and
    history bound."""
    return (type(server).__name__, tuple(getattr(server, "peers", ())),
            getattr(server, "index", None),
            getattr(server, "max_history", None))


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


def _sim(algorithm, mode, behavior, max_history=None):
    n, keyspace, namespaced = _layout(algorithm, mode)
    system = RegisterSystem(algorithm, f=F, n=n, keyspace=keyspace,
                            namespaced=namespaced, max_history=max_history,
                            byzantine={0: behavior} if behavior else None)
    keys = _routed(n, keyspace)
    return {pid: _describe(system.server_protocols[pid],
                           system.sim.processes[pid].behavior, keys(pid))
            for pid in system.server_ids}


def _local(algorithm, mode, behavior, max_history=None):
    n, keyspace, namespaced = _layout(algorithm, mode)
    cluster = LocalCluster(algorithm, f=F, n=n, keyspace=keyspace,
                           namespaced=namespaced, max_history=max_history,
                           byzantine={0: behavior} if behavior else None)
    keys = _routed(n, keyspace)
    return {pid: _describe(node.protocol, node.behavior, keys(pid))
            for pid, node in cluster.nodes.items()}


def _spec(algorithm, mode, behavior, max_history=None):
    n, keyspace, _ = _layout(algorithm, mode)
    spec = ClusterSpec(algorithm=algorithm, f=F, n=n, base_port=47000,
                       max_history=max_history,
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
    sim = _sim(algorithm, mode, behavior)
    # A table applies the behaviour per key; a bare server's process does.
    _, table_behavior, outer_behavior, _ = sim["s000"]
    carried = "StaleBehavior" if behavior else None
    if mode == "single":
        assert (table_behavior, outer_behavior) == (None, carried)
    else:
        assert (table_behavior, outer_behavior) == (carried, None)
    assert _local(algorithm, mode, behavior) == sim
    if mode != "namespaced":  # a spec names registers only via a keyspace
        assert _spec(algorithm, mode, behavior) == sim


BOUND = 16


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm",
                         ["bsr", "bcsr", "abd", "bsr-history", "bsr-2round",
                          "rb", "rb2", "mpr"])
def test_only_history_serving_and_byzantine_servers_keep_the_bound(
        algorithm, mode):
    """A correct server that answers from its newest pair keeps one pair;
    s000 (Byzantine) and every server of a history read keep ``BOUND``."""
    serves = get_spec(algorithm).serves_history
    assert serves == (algorithm in ("bsr-history", "bsr-2round"))
    builders = [_sim, _local] + ([_spec] if mode != "namespaced" else [])
    for build in builders:
        hosted = build(algorithm, mode, "stale", max_history=BOUND)
        for pid, (kind, _, _, servers) in hosted.items():
            bounds = ([servers[3]] if kind == "bare"
                      else [server[3] for server in servers.values()])
            want = BOUND if serves or pid == "s000" else 1
            assert bounds and set(bounds) == {want}, (build.__name__, pid)


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
        "fleet.py": ast.parse(
            "ctx = ServerContext(1)\nRegisterTable(pid)\n"
            "op = NamespacedOperation(key, spec.make_read(OpContext(1)))\n"),
        "cluster.py": ast.parse(
            "node = RegisterServerNode(pid)\n"
            "hint = ServerContext  # a name, not a call\n"),
        "operation.py": ast.parse(
            "query = QueryTag(op_id=self.op_id)\n"
            "held = QueryDataHeld(op_id=op.op_id, tag=tag)\n"),
        "behaviors.py": ast.parse(
            "if isinstance(message, (QueryTag, QueryDataHeld)):  # names\n"
            "    pass\n"),
    }
    assert dead_code_lint.builder_findings(modules) == []
    modules["spec.py"] = ast.parse("ctx = protocols.ServerContext(2)\n")
    modules["client.py"] = ast.parse(
        "op = core.NamespacedOperation(key, spec.make_write(OpContext(2)))\n")
    # A second write walk, asking for tags on its own ...
    modules["bsr.py"] = ast.parse("query = messages.QueryTag(op_id=2)\n")
    # ... and a read capturing its held pair outside the one helper.
    modules["bcsr.py"] = ast.parse("query = QueryDataHeld(op_id=3, tag=t)\n")
    findings = dead_code_lint.builder_findings(modules)
    assert [finding.split("(")[0] for finding in findings] == [
        "NamespacedOperation", "OpContext", "QueryDataHeld", "QueryTag",
        "ServerContext"]
    for finding, pair in zip(findings, (
            ("client.py", "fleet.py"), ("client.py", "fleet.py"),
            ("bcsr.py", "operation.py"), ("bsr.py", "operation.py"),
            ("fleet.py", "spec.py"))):
        assert " is called from 2 modules" in finding
        assert all(module in finding for module in pair)
    # A read collecting its own replies beside the walks: one finding.
    walks = {"operation.py": ast.parse(
                 "self._replies = ReplyCollector(self.servers)\n"
                 "self._acks = ReplyCollector(self.servers)\n"),
             "world.py": ast.parse(
                 "if isinstance(value, ReplyCollector):  # a name\n"
                 "    pass\n")}
    assert dead_code_lint.builder_findings(walks) == []
    walks["regular.py"] = ast.parse(
        "values = operation.ReplyCollector(self.servers)\n")
    [finding] = dead_code_lint.builder_findings(walks)
    assert finding.startswith("ReplyCollector( is called from 2 modules")
    assert "operation.py" in finding and "regular.py" in finding


def test_lint_allows_history_writes_in_the_store_only(dead_code_lint):
    store = {
        "store.py": ast.parse(
            "self.history.append(pair)\n"
            "del self.history[: len(self.history) - self.max_history]\n"),
        "scenarios.py": ast.parse("server.adopt(TaggedValue(tag, value))\n"),
        "world.py": ast.parse("copied = server.copy()\n"),
        "gate.py": ast.parse("self.history[key].append(record)\n"),
    }
    assert dead_code_lint.history_findings(store) == []
    # A second server appending to its own L, around the admission rule.
    store["mpr.py"] = ast.parse("self.history.append(pair)\n")
    [finding] = dead_code_lint.history_findings(store)
    assert finding.startswith(".history is assigned, appended to or "
                              "deleted from in 2 modules (mpr.py, store.py)")
    # Pruning in place counts too.
    del store["mpr.py"]
    store["bcsr.py"] = ast.parse("del server.history[:-1]\n")
    [finding] = dead_code_lint.history_findings(store)
    assert "(bcsr.py, store.py)" in finding


@pytest.mark.parametrize("source", [
    "server.history = history\n",
    "self.protocol.history = restored.history[-bound:]\n",
    "copied.history = list(server.history)\n",
    "server.history += [pair]\n",
    "server.history[0] = pair\n",
])
def test_lint_counts_assigning_history_as_a_write(dead_code_lint, source):
    # A restore that assigns a snapshot's L wholesale skips the tag bound
    # the way an append would.
    store = {"store.py": ast.parse("self.history = [pair]\n"),
             "persistence.py": ast.parse(source)}
    [finding] = dead_code_lint.history_findings(store)
    assert "(persistence.py, store.py)" in finding


def test_lint_finds_a_definition_nothing_references(dead_code_lint):
    source = ("class Table:\n"
              "    def __len__(self):\n        return 0\n"
              "    def do_GET(self):\n        pass\n"
              "def used():\n    return Table()\n"
              "def unused_helper():\n    return used()\n")
    modules = {"helpers.py": ast.parse(source)}
    words = Counter(re.findall(r"\w+", source))
    [finding] = dead_code_lint.unreferenced_definitions(modules, words)
    assert finding == ("helpers.py:8: 'unused_helper' is defined but "
                       "referenced nowhere")
    # One mention anywhere else -- a test, a doc -- is a reference.
    words["unused_helper"] += 1
    assert dead_code_lint.unreferenced_definitions(modules, words) == []
