"""Integration tests for the asyncio TCP runtime."""

import asyncio

import pytest

from repro.errors import ConfigurationError, LivenessError
from repro.protocols.fleet import Fleet
from repro.runtime import LocalCluster
from repro.runtime.cluster import make_client


def run(coro):
    return asyncio.run(coro)


@pytest.mark.parametrize("algorithm", ["bsr", "bsr-history", "bsr-2round",
                                       "bcsr", "abd"])
def test_write_read_over_tcp(algorithm):
    async def scenario():
        cluster = LocalCluster(algorithm, f=1)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            tag = await writer.write(b"network-value")
            assert tag.num == 1
            value = await reader.read()
            assert value == b"network-value"
        finally:
            await cluster.stop()

    run(scenario())


def test_sequential_writes_increase_tags():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            await writer.connect()
            first = await writer.write(b"a")
            second = await writer.write(b"b")
            assert first < second
        finally:
            await cluster.stop()

    run(scenario())


def test_reader_state_persists_across_tcp_reads():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            await writer.write(b"sticky")
            assert await reader.read() == b"sticky"
            assert await reader.read() == b"sticky"
        finally:
            await cluster.stop()

    run(scenario())


@pytest.mark.parametrize("behavior", ["silent", "stale", "forge_tag",
                                      "corrupt_value"])
def test_byzantine_node_tolerated_over_tcp(behavior):
    async def scenario():
        cluster = LocalCluster("bsr", f=1, byzantine={2: behavior})
        await cluster.start()
        try:
            writer = cluster.client("w000")
            reader = cluster.client("r000")
            await writer.connect()
            await reader.connect()
            await writer.write(b"resilient")
            assert await reader.read() == b"resilient"
        finally:
            await cluster.stop()

    run(scenario())


def test_operations_survive_f_unreachable_servers():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            # Stop one server: n - f remain, liveness must hold.
            victim = cluster.server_ids[0]
            await cluster.nodes[victim].stop()
            writer = cluster.client("w000", timeout=10.0)
            reader = cluster.client("r000", timeout=10.0)
            await writer.connect()
            await reader.connect()
            await writer.write(b"degraded-mode")
            assert await reader.read() == b"degraded-mode"
        finally:
            await cluster.stop()

    run(scenario())


def test_liveness_error_when_quorum_unreachable():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            for victim in cluster.server_ids[:2]:  # f + 1 down: no quorum
                await cluster.nodes[victim].stop()
            writer = cluster.client("w000", timeout=0.5)
            await writer.connect()
            with pytest.raises(LivenessError):
                await writer.write(b"doomed")
        finally:
            await cluster.stop()

    run(scenario())


def test_wrong_secret_client_is_ignored():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, secret=b"right")
        await cluster.start()
        try:
            rogue = make_client(cluster.fleet, "w666", cluster.addresses,
                                b"wrong", timeout=0.5)
            await rogue.connect()
            with pytest.raises(LivenessError):
                await rogue.write(b"forged")
            await rogue.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_unsupported_algorithm_rejected():
    with pytest.raises(ConfigurationError):
        LocalCluster("no-such-algo", f=1)
    with pytest.raises(ConfigurationError):
        Fleet.build("no-such-algo")


def test_cluster_rejects_below_bound():
    with pytest.raises(ConfigurationError):
        LocalCluster("bsr", f=1, n=4)


def test_concurrent_clients_over_tcp():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            writers = [cluster.client(f"w{i:03d}") for i in range(3)]
            for writer in writers:
                await writer.connect()
            tags = await asyncio.gather(*[
                writer.write(f"c{i}".encode())
                for i, writer in enumerate(writers)
            ])
            assert len(set(tags)) == 3  # concurrent writes, distinct tags
            reader = cluster.client("r000")
            await reader.connect()
            value = await reader.read()
            assert value in {b"c0", b"c1", b"c2"}
        finally:
            await cluster.stop()

    run(scenario())
