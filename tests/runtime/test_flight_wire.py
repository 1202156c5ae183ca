"""Server-side flight recording scraped over TraceDump, end to end."""

import asyncio

import pytest

from repro.deploy import trace_dump
from repro.obs import MemorySink, stitch_op
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig
from repro.transport.auth import Authenticator, KeyChain
from tests.runtime.test_thrifty import hold_back

SERVERS = [f"s{i:03d}" for i in range(5)]


def run(coro):
    return asyncio.run(coro)


def probe_auth(cluster) -> Authenticator:
    return Authenticator(KeyChain.from_secret(cluster.secret, []))


def test_trace_dump_returns_records_that_stitch_with_client_spans(unhedged):
    hold_back("s004", SERVERS)

    async def scenario():
        cluster = LocalCluster("bsr", f=1, flight_sample=1)
        await cluster.start()
        try:
            sink = MemorySink()
            writer = cluster.client("w000", trace_sink=sink)
            await writer.connect()
            await writer.write(b"flight-one")
            await writer.write(b"flight-two")
            auth = probe_auth(cluster)
            server_records = []
            for pid, address in cluster.addresses.items():
                ack = await trace_dump(address, auth)
                # Both writes held s004 back: it recorded nothing.
                if pid == "s004":
                    assert ack.total == 0
                else:
                    assert ack.total >= 2
                server_records.extend(dict(r) for r in ack.records)
            return sink.records, server_records
        finally:
            await cluster.stop()

    client_records, server_records = run(scenario())
    assert client_records
    op_id = client_records[-1]["op_id"]
    op = stitch_op(op_id, client_records, server_records)
    assert op is not None
    # Every node asked served both write phases and the clocks align, so
    # the stitched timeline carries the paper's witness/quorum instants;
    # the node never asked is named as such, not as missing.
    assert op.aligned
    assert not op.missing_servers
    assert op.held_servers == ["s004"]
    assert {r["node"] for r in op.servers} == set(SERVERS[:4])
    phases = {r["phase"] for r in op.servers}
    assert phases == {"get-tag", "put-data"}
    texts = [text for _, _, text in op.events()]
    assert "witness reached (f+1 replies)" in texts
    assert "quorum reached (n-f replies)" in texts
    for record in op.servers:
        assert record["verdict"] == "served"
        assert record["queue_wait"] >= 0.0
        assert record["service"] > 0.0


def test_trace_dump_target_op_and_limit_filter_on_the_node():
    hold_back("s004", SERVERS)  # every write goes to s000

    async def scenario():
        cluster = LocalCluster("bsr", f=1, flight_sample=1)
        await cluster.start()
        try:
            sink = MemorySink()
            writer = cluster.client("w000", trace_sink=sink)
            await writer.connect()
            for index in range(3):
                await writer.write(b"v%d" % index)
            auth = probe_auth(cluster)
            address = next(iter(cluster.addresses.values()))
            target = sink.records[0]["op_id"]
            narrowed = await trace_dump(address, auth, target_op=target)
            limited = await trace_dump(address, auth, limit=2)
            everything = await trace_dump(address, auth)
            return target, narrowed, limited, everything
        finally:
            await cluster.stop()

    target, narrowed, limited, everything = run(scenario())
    assert narrowed.records
    assert all(r["op_id"] == target for r in narrowed.records)
    assert len(limited.records) == 2
    assert limited.records == everything.records[-2:]


def test_flight_sample_zero_disables_server_recording():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, flight_sample=0)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            await writer.write(b"untraced")
            address = next(iter(cluster.addresses.values()))
            return await trace_dump(address, probe_auth(cluster))
        finally:
            await cluster.stop()

    ack = run(scenario())
    assert ack.records == ()
    assert ack.total == 0


def test_sampling_modulus_thins_server_records():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, flight_sample=64)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            for index in range(5):  # op_ids are small, none % 64 == 0
                await writer.write(b"v%d" % index)
            address = next(iter(cluster.addresses.values()))
            return await trace_dump(address, probe_auth(cluster))
        finally:
            await cluster.stop()

    ack = run(scenario())
    assert all(r["op_id"] % 64 == 0 for r in ack.records)


def test_health_ack_occupancy_for_sharded_and_plain_nodes(unhedged):
    from repro.deploy import health_ping

    hold_back("s004", SERVERS)  # both writes go to s000

    async def scenario():
        keyspace = KeyspaceConfig(group_size=5, max_resident=8)
        sharded = LocalCluster("bsr", f=1, keyspace=keyspace)
        plain = LocalCluster("bsr", f=1)
        await sharded.start()
        await plain.start()
        try:
            client = sharded.client("w000")
            await client.connect()
            await client.write(b"k1", register="key-0001")
            await client.write(b"k2", register="key-0002")
            sharded_acks = {pid: await health_ping(address,
                                                   probe_auth(sharded))
                            for pid, address in sharded.addresses.items()}
            plain_ack = await health_ping(
                next(iter(plain.addresses.values())), probe_auth(plain))
            return sharded_acks, plain_ack
        finally:
            await sharded.stop()
            await plain.stop()

    sharded_acks, plain_ack = run(scenario())
    # Sharded nodes report RegisterTable occupancy; plain nodes report
    # the -1 sentinel so status displays can tell the cases apart.  The
    # writes held s004 back, so it has no key resident.
    assert {pid: ack.keys_resident for pid, ack in sharded_acks.items()} == {
        pid: 0 if pid == "s004" else 2 for pid in SERVERS}
    for sharded_ack in sharded_acks.values():
        assert sharded_ack.keys_archived == 0
        assert sharded_ack.rehydrations == 0
    assert plain_ack.keys_resident == -1
    assert plain_ack.keys_archived == -1
    assert plain_ack.rehydrations == -1
