"""Keyspace blocks in cluster specs: parsing, validation, determinism.

The placement-determinism guarantee -- client, server, simulator and CLI
all derive the identical key -> group mapping from one spec -- is what
makes sharding safe to deploy; these tests pin it.
"""

import asyncio

import pytest

from repro.deploy import ClusterSpec, ClusterSupervisor
from repro.errors import ConfigurationError
from repro.sharding import KeyspaceConfig, RegisterTable, key_name


def make_spec(**overrides):
    defaults = dict(algorithm="bsr", f=1, n=9, secret="keyspace-test",
                    keyspace={"group_size": 5, "vnodes": 32, "seed": 7})
    defaults.update(overrides)
    return ClusterSpec(**defaults)


def test_spec_parses_keyspace_block():
    spec = make_spec()
    config = spec.keyspace_config()
    assert config == KeyspaceConfig(group_size=5, vnodes=32, seed=7)


def test_spec_without_keyspace_is_single_register():
    spec = ClusterSpec(algorithm="bsr", f=1, secret="plain")
    assert spec.keyspace_config() is None
    assert spec.ring() is None
    assert spec.locate("any") is None


def test_spec_validates_keyspace_bounds():
    with pytest.raises(ConfigurationError):
        make_spec(keyspace={"group_size": 4})  # below 4f+1
    with pytest.raises(ConfigurationError):
        make_spec(keyspace={"group_size": 10})  # above n
    with pytest.raises(ConfigurationError):
        make_spec(algorithm="bcsr", n=7,
                  keyspace={"group_size": 6})  # bcsr needs group == n


def test_spec_roundtrips_keyspace(tmp_path):
    spec = make_spec()
    path = spec.save(str(tmp_path / "cluster.json"))
    loaded = ClusterSpec.from_file(path)
    assert loaded.keyspace_config() == spec.keyspace_config()
    keys = [key_name(i) for i in range(100)]
    assert (loaded.ring().fingerprint(keys, 5)
            == spec.ring().fingerprint(keys, 5))


def test_spec_toml_keyspace(tmp_path):
    path = tmp_path / "cluster.toml"
    path.write_text(
        'algorithm = "bsr"\nf = 1\nn = 9\nsecret = "toml-keys"\n\n'
        '[keyspace]\ngroup_size = 5\nvnodes = 32\nseed = 7\n')
    spec = ClusterSpec.from_file(str(path))
    assert spec.keyspace_config() == KeyspaceConfig(
        group_size=5, vnodes=32, seed=7)


def test_locate_matches_simulator_and_client_placement():
    spec = make_spec()
    config = spec.keyspace_config()
    placement = config.placement(spec.node_ids)
    from repro.core.register import RegisterSystem
    system = RegisterSystem("bsr", f=1, n=9, keyspace=config)
    for i in range(50):
        key = key_name(i)
        group = spec.locate(key)
        assert group == placement.servers_for(key)
        assert group == system.fleet.placement.servers_for(key)


def test_build_protocol_returns_register_table():
    spec = make_spec(keyspace={"group_size": 5, "max_resident": 10})
    protocol = spec.build_protocol("s000")
    assert isinstance(protocol, RegisterTable)
    assert protocol.max_resident == 10


def test_spec_client_gets_placement():
    spec = make_spec()
    client = spec.client("w000")
    assert client.placement is not None
    assert client.placement.group_size == 5


@pytest.mark.procs
def test_keyed_ops_against_process_cluster(tmp_path):
    async def scenario():
        spec = make_spec(algorithm="bsr", f=1, n=5,
                         keyspace={"group_size": 5, "seed": 2},
                         snapshot_dir=str(tmp_path / "snaps"))
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()
        try:
            writer = supervisor.client("w000", timeout=10.0)
            reader = supervisor.client("r000", timeout=10.0)
            await writer.connect()
            await reader.connect()
            for i in range(6):
                await writer.write(f"proc-{i}".encode(),
                                   register=key_name(i))
            for i in range(6):
                assert (await reader.read(register=key_name(i))
                        == f"proc-{i}".encode())
        finally:
            await supervisor.stop()

    asyncio.run(scenario())
