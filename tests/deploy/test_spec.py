"""ClusterSpec parsing, validation and component construction."""

import json

import pytest

from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.node.server import RegisterServerNode
from repro.runtime.client import AsyncRegisterClient


def test_defaults_resolve_minimum_servers():
    spec = ClusterSpec(algorithm="bsr", f=1)
    assert spec.n == 5
    assert spec.node_ids == ["s000", "s001", "s002", "s003", "s004"]
    coded = ClusterSpec(algorithm="bcsr", f=1)
    assert coded.n == 6


def test_rejects_bad_algorithm_and_small_n():
    with pytest.raises(ConfigurationError):
        ClusterSpec(algorithm="raft", f=1)
    with pytest.raises(ConfigurationError):
        ClusterSpec(algorithm="bsr", f=1, n=4)
    with pytest.raises(ConfigurationError):
        ClusterSpec(algorithm="bsr", f=-1)


def test_rejects_unknown_byzantine_nodes_and_excess_budget():
    with pytest.raises(ConfigurationError):
        ClusterSpec(algorithm="bsr", f=1, byzantine={"s999": "forge_tag"})
    with pytest.raises(ConfigurationError):
        ClusterSpec(algorithm="bsr", f=1,
                    byzantine={"s000": "forge_tag", "s001": "forge_tag"})


def test_base_port_and_overrides():
    spec = ClusterSpec(algorithm="bsr", f=1, base_port=7100,
                       nodes={"s002": ["10.1.2.3", 9000]})
    assert spec.address_of("s000") == ("127.0.0.1", 7100)
    assert spec.address_of("s004") == ("127.0.0.1", 7104)
    assert spec.address_of("s002") == ("10.1.2.3", 9000)
    # base_port 0 means every node binds an ephemeral port.
    assert ClusterSpec(algorithm="bsr", f=1).address_of("s003")[1] == 0


def test_roundtrip_through_dict_and_json_file(tmp_path):
    spec = ClusterSpec(algorithm="bcsr", f=1, base_port=7200,
                       secret="roundtrip", max_history=16,
                       max_connections=64, rate_limit=500.0,
                       snapshot_dir=str(tmp_path / "snaps"))
    path = spec.save(str(tmp_path / "cluster.json"))
    loaded = ClusterSpec.from_file(path)
    assert loaded == spec
    assert loaded.to_dict() == spec.to_dict()


def test_from_toml_file(tmp_path):
    path = tmp_path / "cluster.toml"
    path.write_text(
        'algorithm = "bsr"\n'
        "f = 1\n"
        "base_port = 7300\n"
        'secret = "toml-secret"\n'
        "max_history = 8\n"
        "[byzantine]\n"
        's001 = "forge_tag"\n'
    )
    spec = ClusterSpec.from_file(str(path))
    assert spec.algorithm == "bsr"
    assert spec.base_port == 7300
    assert spec.max_history == 8
    assert spec.byzantine == {"s001": "forge_tag"}


def test_from_file_rejects_unknown_keys_and_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algorithm": "bsr", "flux_capacitor": 88}))
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_file(str(bad))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_file(str(garbage))


def test_build_node_wires_limits_snapshot_and_history(tmp_path):
    spec = ClusterSpec(algorithm="bsr", f=1, max_history=4,
                       max_connections=10, rate_limit=100.0,
                       snapshot_dir=str(tmp_path / "snaps"))
    node = spec.build_node("s001")
    assert isinstance(node, RegisterServerNode)
    assert node.max_connections == 10
    assert node.rate_limit == 100.0
    assert node.snapshot_path.endswith("s001.snapshot")
    # A correct plain-BSR server answers from its newest pair only.
    assert node.protocol.max_history == 1
    with pytest.raises(ConfigurationError):
        spec.build_node("s999")
    history = ClusterSpec(algorithm="bsr-history", f=1, max_history=4)
    assert history.build_node("s001").protocol.max_history == 4
    byzantine = ClusterSpec(algorithm="bsr", f=1, max_history=4,
                            byzantine={"s001": "stale"})
    assert byzantine.build_node("s001").protocol.max_history == 4


def test_build_node_applies_byzantine_behavior():
    spec = ClusterSpec(algorithm="bsr", f=1, byzantine={"s000": "forge_tag"})
    assert spec.build_node("s000").behavior is not None
    assert spec.build_node("s001").behavior is None


def test_client_from_spec():
    spec = ClusterSpec(algorithm="bcsr", f=1, base_port=7400)
    client = spec.client("w000", timeout=3.0)
    assert isinstance(client, AsyncRegisterClient)
    assert client.fleet is spec.fleet
    assert client.fleet.spec.name == "bcsr"
    assert client.fleet.f == 1
    assert client.addresses == spec.addresses
    assert client.timeout == 3.0
    override = {pid: ("127.0.0.1", 12000 + i)
                for i, pid in enumerate(spec.node_ids)}
    assert spec.client("r000", addresses=override).addresses == override


def test_spec_keys_interoperate_with_node_auth():
    # A client sealed by the spec's derived keys must verify on a node
    # built from the same spec (same shared secret).
    spec = ClusterSpec(algorithm="bsr", f=1, secret="interop")
    auth = spec.authenticator()
    sealed = auth.seal("w000", b"payload")
    sender, payload = spec.build_node("s000").auth.open(sealed)
    assert (sender, payload) == ("w000", b"payload")
