"""Consistent-hash ring and keyspace config tests."""

import pytest

from repro.errors import ConfigurationError
from repro.protocols import specs
from repro.sharding import (
    HashRing,
    KeyspaceConfig,
    Placement,
    key_name,
)


def ring(n=9, vnodes=32, seed=7):
    return HashRing([f"s{i:03d}" for i in range(n)], vnodes=vnodes, seed=seed)


# -- determinism --------------------------------------------------------------

def test_same_inputs_same_placement():
    keys = [key_name(i) for i in range(200)]
    a, b = ring(), ring()
    assert a.fingerprint(keys, 5) == b.fingerprint(keys, 5)
    for key in keys:
        assert a.group(key, 5) == b.group(key, 5)


def test_node_order_does_not_matter():
    nodes = [f"s{i:03d}" for i in range(9)]
    a = HashRing(nodes, vnodes=16, seed=1)
    b = HashRing(list(reversed(nodes)), vnodes=16, seed=1)
    keys = [key_name(i) for i in range(100)]
    assert a.fingerprint(keys, 5) == b.fingerprint(keys, 5)


def test_seed_changes_placement():
    keys = [key_name(i) for i in range(200)]
    assert ring(seed=1).fingerprint(keys, 5) != ring(seed=2).fingerprint(keys, 5)


def test_groups_are_sorted_and_distinct():
    r = ring()
    for i in range(100):
        group = r.group(key_name(i), 5)
        assert len(group) == 5
        assert len(set(group)) == 5
        assert list(group) == sorted(group)


def test_group_never_exceeds_ring():
    with pytest.raises(ConfigurationError):
        ring(n=3).group("k", 5)


def test_primary_is_in_group():
    r = ring()
    for i in range(50):
        key = key_name(i)
        assert r.primary(key) in r.group(key, 5)


# -- load and stability -------------------------------------------------------

def test_load_is_roughly_even():
    r = ring(n=9, vnodes=64)
    keys = [key_name(i) for i in range(2000)]
    share = r.load_share(keys, 5)
    expected = 2000 * 5 / 9
    for node, count in share.items():
        assert 0.5 * expected < count < 1.5 * expected, (node, count)


def test_adding_a_node_moves_a_minority_of_singleton_groups():
    # With group size 1 the classic consistent-hash bound applies:
    # adding one node to ten moves ~1/11 of the keys, not all of them.
    nodes = [f"s{i:03d}" for i in range(10)]
    a = HashRing(nodes, vnodes=64, seed=3)
    b = HashRing(nodes + ["s010"], vnodes=64, seed=3)
    keys = [key_name(i) for i in range(1000)]
    moved = a.moved_keys(b, keys, 1)
    assert 0 < len(moved) < 300


# -- config validation --------------------------------------------------------

def test_config_floor_per_algorithm():
    for spec in specs():
        if not spec.namespaced_ok:
            continue
        floor = spec.min_servers(1)
        KeyspaceConfig(group_size=floor).validate(spec.name, 1, floor)
        with pytest.raises(ConfigurationError):
            KeyspaceConfig(group_size=floor - 1).validate(spec.name, 1, floor)


def test_config_rejects_group_above_fleet():
    with pytest.raises(ConfigurationError):
        KeyspaceConfig(group_size=10).validate("bsr", 1, 9)


def test_bcsr_requires_full_fleet_groups():
    KeyspaceConfig(group_size=6).validate("bcsr", 1, 6)
    with pytest.raises(ConfigurationError):
        KeyspaceConfig(group_size=6).validate("bcsr", 1, 7)


def test_config_rejects_unsupported_algorithm():
    with pytest.raises(ConfigurationError):
        KeyspaceConfig(group_size=5).validate("no-such-algo", 1, 5)
    # rb shards now: each key's group runs its own broadcast instance.
    KeyspaceConfig(group_size=4).validate("rb", 1, 5)


def test_config_roundtrips_through_dict():
    config = KeyspaceConfig(group_size=5, vnodes=16, seed=9,
                            max_resident=100, max_key_len=64)
    assert KeyspaceConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        KeyspaceConfig.from_dict({"group_size": 5, "bogus": 1})


def test_config_requires_group_size():
    with pytest.raises(ConfigurationError):
        KeyspaceConfig.from_dict({"vnodes": 8})


# -- placement cache ----------------------------------------------------------

def test_placement_caches_and_validates():
    placement = Placement(ring(), 5)
    group = placement.servers_for("key-0001")
    assert placement.servers_for("key-0001") == group
    with pytest.raises(ConfigurationError):
        placement.servers_for("bad key with spaces")
    with pytest.raises(ConfigurationError):
        placement.servers_for("x" * 300)


def test_placement_matches_config_placement():
    config = KeyspaceConfig(group_size=5, vnodes=32, seed=7)
    nodes = [f"s{i:03d}" for i in range(9)]
    placement = config.placement(nodes)
    r = config.ring(nodes)
    for i in range(50):
        key = key_name(i)
        assert placement.servers_for(key) == r.group(key, 5)
