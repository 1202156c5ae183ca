"""Sharded keyspace over the asyncio TCP runtime."""

import asyncio

import pytest

from repro.deploy import stats_ping
from repro.errors import ConfigurationError
from repro.obs import MemorySink
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig, key_name
from tests.runtime.test_thrifty import hold_back


def run(coro):
    return asyncio.run(coro)


def test_keyed_put_get_roundtrip():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=9,
                               keyspace=KeyspaceConfig(group_size=5, seed=3))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for i in range(12):
                await writer.write(f"value-{i}".encode(),
                                   register=key_name(i))
            for i in range(12):
                assert (await reader.read(register=key_name(i))
                        == f"value-{i}".encode())
            assert await reader.read(register="untouched-key") == b""
        finally:
            await cluster.stop()

    run(scenario())


def test_keys_land_only_on_their_group(unhedged):
    async def scenario():
        keyspace = KeyspaceConfig(group_size=5, seed=3)
        cluster = LocalCluster("bsr", f=1, n=9, keyspace=keyspace)
        await cluster.start()
        try:
            sink = MemorySink()
            writer = cluster.client("w000", trace_sink=sink)
            await writer.connect()
            placement = keyspace.placement(cluster.server_ids)
            for i in range(10):
                await writer.write(b"v", register=key_name(i))
            for i, record in enumerate(sink.records):
                key = key_name(i)
                group = set(placement.servers_for(key))
                hosts = {pid for pid, node in cluster.nodes.items()
                         if key in node.protocol.registers}
                # The write went to the n - f of the group it did not
                # hold back (thrifty rounds).
                [held] = record["held"]
                assert held in group and hosts == group - {held}, key
        finally:
            await cluster.stop()

    run(scenario())


def test_group_quorums_tolerate_f_byzantine():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=9,
                               keyspace=KeyspaceConfig(group_size=5, seed=3),
                               byzantine={0: "stale"})
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for i in range(8):
                await writer.write(f"v{i}".encode(), register=key_name(i))
                assert (await reader.read(register=key_name(i))
                        == f"v{i}".encode())
        finally:
            await cluster.stop()

    run(scenario())


def test_invalid_key_rejected_client_side():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=9,
                               keyspace=KeyspaceConfig(group_size=5, seed=3))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            with pytest.raises(ConfigurationError):
                await writer.write(b"x", register="bad key")
            with pytest.raises(ConfigurationError):
                await writer.write(b"x", register="y" * 300)
        finally:
            await cluster.stop()

    run(scenario())


def test_eviction_under_live_load(unhedged):
    hold_back("s004", [f"s{i:03d}" for i in range(5)])

    async def scenario():
        cluster = LocalCluster(
            "bsr", f=1, n=5,
            keyspace=KeyspaceConfig(group_size=5, seed=3, max_resident=4))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for i in range(16):
                await writer.write(f"v{i}".encode(), register=key_name(i))
            # Every key still reads back despite only 4 resident per node.
            for i in range(16):
                assert (await reader.read(register=key_name(i))
                        == f"v{i}".encode())
            for pid, node in cluster.nodes.items():
                assert len(node.protocol.registers) <= 4
                # Every op held s004 back: it was never sent a write.
                assert bool(node.protocol.archived_keys) == (pid != "s004")
            snap = cluster.registry.snapshot()
            evictions = sum(c["value"] for c in snap["counters"]
                            if c["name"] == "table_evictions_total")
            rehydrations = sum(c["value"] for c in snap["counters"]
                               if c["name"] == "table_rehydrations_total")
            assert evictions > 0 and rehydrations > 0
        finally:
            await cluster.stop()

    run(scenario())


def test_scrape_reports_longest_history_and_recvs_of_a_keyed_node(unhedged):
    """What a ``--procs`` node's table holds is visible from outside: the
    gauge is set by the scrape itself, so an unscraped node pays nothing."""
    hold_back("s004", [f"s{i:03d}" for i in range(5)])  # s000 gets every op

    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=5,
                               keyspace=KeyspaceConfig(group_size=5, seed=3))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            await writer.write(b"once", register=key_name(0))
            for i in range(6):
                await writer.write(b"v%d" % i, register=key_name(1))
            node = cluster.nodes["s000"]
            registry = cluster.registry  # shared by the in-process nodes

            def of_s000(metrics):
                return {m["name"]: m["value"] for m in metrics
                        if m["labels"].get("node") == "s000"}

            assert "node_history_len_max" not in of_s000(
                registry.snapshot()["gauges"])
            ack = await stats_ping(
                node.address, cluster.authenticator())
            longest = of_s000(ack.metrics["gauges"])["node_history_len_max"]
            assert longest == 7  # v0 and six writes, each needing s000
            assert longest == max(
                len(server.history)
                for server in node.protocol.registers.values())
            # A quiet link reads once per frame (two per write, and the
            # probe); the scrape sees both counters at the same instant.
            counters = of_s000(ack.metrics["counters"])
            assert (counters["node_recv_calls_total"]
                    == counters["node_wire_frames_total"] >= 14)
        finally:
            await cluster.stop()

    run(scenario())


def test_client_group_ops_metric():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=9,
                               keyspace=KeyspaceConfig(group_size=5, seed=3))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            for i in range(6):
                await writer.write(b"v", register=key_name(i))
            snap = cluster.registry.snapshot()
            entries = [c for c in snap["counters"]
                       if c["name"] == "client_group_ops_total"]
            assert entries
            assert sum(c["value"] for c in entries) == 6
            for entry in entries:
                label = entry["labels"]["group"]
                assert len(label.split("+")) == 5
        finally:
            await cluster.stop()

    run(scenario())


def test_sharded_bcsr_requires_full_fleet_groups():
    with pytest.raises(ConfigurationError):
        LocalCluster("bcsr", f=1, n=7,
                     keyspace=KeyspaceConfig(group_size=6, seed=1))


def test_sharded_bcsr_full_fleet_roundtrip():
    async def scenario():
        cluster = LocalCluster("bcsr", f=1,
                               keyspace=KeyspaceConfig(group_size=6, seed=1))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            for i in range(4):
                await writer.write(f"coded-{i}".encode(),
                                   register=key_name(i))
                assert (await reader.read(register=key_name(i))
                        == f"coded-{i}".encode())
        finally:
            await cluster.stop()

    run(scenario())


def test_undersized_groups_rejected():
    with pytest.raises(ConfigurationError):
        LocalCluster("bsr", f=1, n=9,
                     keyspace=KeyspaceConfig(group_size=4, seed=1))


def test_concurrent_multikey_clients():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=9,
                               keyspace=KeyspaceConfig(group_size=5, seed=3))
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            await asyncio.gather(*(
                writer.write(f"v{i}".encode(), register=key_name(i))
                for i in range(10)))
            values = await asyncio.gather(*(
                reader.read(register=key_name(i)) for i in range(10)))
            assert values == [f"v{i}".encode() for i in range(10)]
        finally:
            await cluster.stop()

    run(scenario())
