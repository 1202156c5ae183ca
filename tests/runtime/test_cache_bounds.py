"""Per-key caches stay bounded: client state, codec caches, placement,
server histories.

Keyed workloads touch arbitrarily many registers over a long run; every
per-key lookaside structure must have a hard cap or node/client memory
grows without bound.  These tests drive each cache past a (monkeypatched
where needed) cap and assert the bound holds -- and that correctness
hazards like evicting a *held* write lock are avoided.
"""

import asyncio

import pytest

import repro.runtime.client as client_module
import repro.sharding.ring as ring_module
from repro.core.keys import key_name
from repro.core.messages import DataReply, QueryData
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig
from repro.transport.codec2 import _NS_CACHE_MAX, CachedDecoder, CachedEncoder
from tests.runtime.test_thrifty import hold_back


def run(coro):
    return asyncio.run(coro)


# -- client per-key state ---------------------------------------------------

def test_client_key_state_caps_exist():
    assert client_module.MAX_KEY_STATES == 4096


def test_write_locks_and_reader_states_are_bounded(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_KEY_STATES", 8)

    async def scenario():
        cluster = LocalCluster("bsr", f=1,
                               keyspace=KeyspaceConfig(group_size=5))
        await cluster.start()
        try:
            client = cluster.client("c-bounds")
            await client.connect()
            for i in range(100):
                client._write_lock_for(key_name(i))
                await client.read(register=key_name(i))
            assert len(client._write_locks) <= 8
            assert len(client._register_states) <= 8
        finally:
            await cluster.stop()

    run(scenario())


def test_held_write_locks_survive_eviction(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_KEY_STATES", 4)

    async def scenario():
        cluster = LocalCluster("bsr", f=1,
                               keyspace=KeyspaceConfig(group_size=5))
        await cluster.start()
        try:
            client = cluster.client("c-held")
            held = client._write_lock_for("key-held")
            await held.acquire()
            try:
                for i in range(50):
                    client._write_lock_for(key_name(i))
                # The held lock was never shed: evicting it would let a
                # second write to its key overlap the first.
                assert client._write_locks.get("key-held") is held
            finally:
                held.release()
        finally:
            await cluster.stop()

    run(scenario())


# -- codec v2 namespaced caches ---------------------------------------------

def test_encoder_register_cache_is_bounded():
    encoder = CachedEncoder()
    for i in range(2 * _NS_CACHE_MAX):
        encoder(NamespacedMessage(key_name(i), QueryData(op_id=i)))
    assert len(encoder._ns) <= _NS_CACHE_MAX


def test_decoder_tail_cache_is_bounded():
    encoder = CachedEncoder()
    decoder = CachedDecoder()
    for i in range(2 * _NS_CACHE_MAX):
        message = NamespacedMessage(
            key_name(0),
            DataReply(op_id=i, tag=Tag(i, "w0"),
                      payload=f"value-{i:05d}".encode()))
        blob = encoder(message)
        assert decoder(blob) == message      # cache changes cost, not bytes
    for tails in decoder._ns.values():
        assert len(tails) <= _NS_CACHE_MAX


# -- placement group cache --------------------------------------------------

def test_placement_group_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ring_module, "_GROUP_CACHE", 64)
    keyspace = KeyspaceConfig(group_size=3, seed=1)
    placement = keyspace.placement([f"s{i}" for i in range(6)])
    groups = [placement.servers_for(key_name(i)) for i in range(500)]
    assert len(placement._cache) <= 64
    # Eviction never changes resolution, only cost.
    for i in (0, 100, 499):
        assert placement.servers_for(key_name(i)) == groups[i]


def test_placement_group_cache_default_cap():
    assert ring_module._GROUP_CACHE == 65536


# -- server histories -------------------------------------------------------

WRITES, BOUND = 200, 128


async def _history_lengths(algorithm, **cluster_kwargs):
    cluster = LocalCluster(algorithm, f=1, n=8, max_history=BOUND,
                           **cluster_kwargs)
    await cluster.start()
    try:
        writer = cluster.client("w000")
        await writer.connect()
        for i in range(WRITES):
            await writer.write(b"v%d" % i)
        return {pid: len(node.protocol.history)
                for pid, node in cluster.nodes.items()}
    finally:
        await cluster.stop()


def test_correct_plain_servers_keep_one_pair_byzantine_ones_the_bound():
    lengths = run(_history_lengths("bcsr", byzantine={7: "stale"}))
    assert lengths == {**{f"s{i:03d}": 1 for i in range(7)}, "s007": BOUND}


def test_history_serving_servers_keep_the_bound(unhedged):
    # Thrifty rounds hold one server back per rotation run: pin it, so
    # every other server is sent all the writes.
    servers = [f"s{i:03d}" for i in range(8)]
    hold_back("s007", servers)
    lengths = run(_history_lengths("bsr-history"))
    assert lengths == {**{pid: BOUND for pid in servers[:7]}, "s007": 1}
