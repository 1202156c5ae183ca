"""Node flow control: connection caps, rate limiting, health pings.

Everything here runs in-process (one event loop, real TCP on localhost)
-- the process-per-node variants live in the ``procs``-marked tests.
"""

import asyncio

import pytest

from repro.core.messages import HealthAck, StatsAck
from repro.deploy import ClusterSpec, health_ping, stats_ping
from repro.node.limits import PerClientBuckets, TokenBucket
from repro.runtime import LocalCluster


def run(coro):
    return asyncio.run(coro)


# -- token bucket unit behaviour -------------------------------------------

def test_token_bucket_spends_and_refills():
    now = [0.0]
    bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
    assert bucket.allow() and bucket.allow()
    assert not bucket.allow()
    assert bucket.retry_after() == pytest.approx(0.1)
    now[0] += 0.25  # refills 2.5 tokens, capped at burst
    assert bucket.allow() and bucket.allow()
    assert not bucket.allow()


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0)


def test_per_client_buckets_are_independent_and_bounded():
    now = [0.0]
    buckets = PerClientBuckets(rate=10.0, burst=1.0, max_clients=2,
                               clock=lambda: now[0])
    assert buckets.allow("a")
    assert not buckets.allow("a")   # a's bucket is empty...
    assert buckets.allow("b")       # ...but b's is untouched
    now[0] += 1.0                   # every bucket refills to full (idle)
    assert buckets.allow("c")       # eviction keeps the map at the cap
    assert len(buckets._buckets) <= 2


# -- node-level enforcement ------------------------------------------------

def test_rate_limited_write_backs_off_and_completes():
    async def scenario():
        # A 1-token burst guarantees the second frame of every operation
        # is shed, so the client must handle Throttled to make progress.
        cluster = LocalCluster("bsr", f=1, rate_limit=20.0, rate_burst=1.0)
        await cluster.start()
        try:
            client = cluster.client("w000", timeout=15.0)
            await client.connect()
            for index in range(3):
                await client.write(f"v{index}".encode())
            assert await client.read() == b"v2"
            stats = client.stats()
            assert stats["throttled"] > 0
            assert stats["frames_resent"] > 0
            assert sum(node.stats["frames_throttled"]
                       for node in cluster.nodes.values()) > 0
        finally:
            await cluster.stop()

    run(scenario())


def test_connection_cap_sheds_excess_dials():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, max_connections=1)
        await cluster.start()
        node = next(iter(cluster.nodes.values()))
        try:
            first = await asyncio.open_connection(*node.address)
            second = await asyncio.open_connection(*node.address)
            # The excess connection is closed immediately: EOF, no frames.
            assert await asyncio.wait_for(second[0].read(1), 3.0) == b""
            assert node.stats["connections_refused"] == 1
            first[1].close()
            second[1].close()
        finally:
            await cluster.stop()

    run(scenario())


def test_health_ping_round_trip_and_rate_limit_exemption():
    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1, rate_limit=5.0,
                           rate_burst=1.0)
        node = spec.build_node("s000")
        await node.start()
        try:
            auth = spec.authenticator()
            for _ in range(5):  # far beyond the bucket: pings are exempt
                ack = await health_ping(node.address, auth)
            assert isinstance(ack, HealthAck)
            assert ack.node_id == "s000"
            assert ack.history_len == 1  # just the initial pair
            # Telemetry fields are real counters, not defaults: the ack
            # counts its own frame, reports no shed traffic, and carries
            # no snapshot age (this node does not persist).
            assert ack.frames == 5
            assert ack.throttled == 0
            assert ack.snapshot_age == -1.0
            assert node.stats["health_pings"] == 5
            assert node.stats["frames_throttled"] == 0
        finally:
            await node.stop()

    run(scenario())


def test_stats_ping_returns_node_labeled_snapshot():
    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1, rate_limit=5.0,
                           rate_burst=1.0)
        node = spec.build_node("s000")
        await node.start()
        try:
            auth = spec.authenticator()
            await health_ping(node.address, auth)
            for _ in range(8):  # deep enough to outrun the rate limit
                ack = await stats_ping(node.address, auth)
            assert isinstance(ack, StatsAck)
            assert ack.node_id == "s000"
            counters = {(c["name"], c["labels"].get("node")): c["value"]
                        for c in ack.metrics["counters"]}
            assert counters[("node_stats_pings_total", "s000")] == 8
            assert counters[("node_health_pings_total", "s000")] == 1
            assert counters[("node_frames_total", "s000")] == 9
        finally:
            await node.stop()

    run(scenario())


def test_stats_ping_exempt_from_rate_limit_and_reports_throttles():
    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1, rate_limit=2.0,
                           rate_burst=1.0)
        node = spec.build_node("s000")
        await node.start()
        try:
            auth = spec.authenticator()
            for _ in range(6):  # far beyond a 1-token bucket
                ack = await stats_ping(node.address, auth)
            snapshot = ack.metrics
            throttled = [c["value"] for c in snapshot["counters"]
                         if c["name"] == "node_frames_throttled_total"]
            assert throttled == [0]  # pings are exempt, nothing was shed
        finally:
            await node.stop()

    run(scenario())


def test_health_ping_fails_against_dead_node():
    async def scenario():
        spec = ClusterSpec(algorithm="bsr", f=1)
        node = spec.build_node("s000")
        await node.start()
        address = node.address
        await node.stop()
        with pytest.raises(OSError):
            await health_ping(address, spec.authenticator(), timeout=1.0)

    run(scenario())
