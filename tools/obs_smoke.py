#!/usr/bin/env python
"""End-to-end observability smoke: trace -> stitch -> exporter.

Boots an in-process cluster on live TCP with the flight recorder set to
trace every operation, runs write/read pairs through a traced client
until its operations span two thrifty-rotation windows (a thrifty round
addresses ``n - f`` servers, and which ones turns every
``ROTATION_RUN`` op_ids, so only then has every node served a frame),
then exercises the whole observability plane:

1. scrapes every node's flight recorder over the wire (``TraceDump``,
   the same frame ``repro trace show`` uses),
2. stitches the final write into a causal timeline and checks the
   paper's ``witness`` (f+1) and ``quorum`` (n-f) instants are present,
3. serves the merged metrics through :class:`MetricsExporter` and
   fetches ``/metrics``, ``/healthz`` and ``/traces/<op_id>`` over
   real HTTP.

Run via ``make obs-smoke``.  Exits non-zero with a message on stderr at
the first broken link in that chain.
"""

import asyncio
import json
import sys
import urllib.request

from repro.deploy import stats_ping, trace_dump
from repro.obs import MemorySink, merge_registry_snapshots, stitch_op
from repro.obs.httpd import MetricsExporter
from repro.runtime import LocalCluster
from repro.runtime.dispatch import ROTATION_RUN

#: Write/read pairs at least; more until a rotation window has turned.
OPS = 4


def fail(message):
    print(f"obs smoke: {message}", file=sys.stderr)
    raise SystemExit(1)


async def scenario():
    cluster = LocalCluster("bsr", f=1, flight_sample=1)
    await cluster.start()
    try:
        sink = MemorySink()
        client = cluster.client("w000", timeout=10.0, trace_sink=sink)
        await client.connect()
        windows = set()
        index = 0
        while index < OPS or len(windows) < 2:
            await client.write(f"value-{index}".encode())
            await client.read()
            windows.update(r["op_id"] // ROTATION_RUN for r in sink.records)
            index += 1

        # 1. Scrape every node's flight recorder over the wire.
        server_records = []
        for pid, node in cluster.nodes.items():
            ack = await trace_dump(node.address, node.auth)
            if ack.node_id != pid:
                fail(f"trace ack for {pid} answered as {ack.node_id}")
            if not ack.records:
                fail(f"node {pid} recorded no flights at sample=1")
            server_records.extend(dict(r) for r in ack.records)

        # 2. Stitch the last traced op into a causal timeline.
        op_id = sink.records[-1]["op_id"]
        op = stitch_op(op_id, sink.records, server_records)
        if op is None:
            fail(f"op {op_id} did not stitch")
        if not op.aligned:
            fail("client/server clocks failed to align in-process")
        if op.missing_servers:
            fail(f"stitched op missing servers: {op.missing_servers}")
        texts = [text for _, _, text in op.events()]
        for needle in ("witness reached (f+1 replies)",
                       "quorum reached (n-f replies)"):
            if needle not in texts:
                fail(f"timeline lacks {needle!r}")

        # 3. Serve it all over HTTP.  The exporter's handler threads call
        # scrape()/lookup() synchronously, so they wrap their own
        # asyncio.run and the fetches run in an executor thread.
        addresses = [node.address for node in cluster.nodes.values()]
        auth = next(iter(cluster.nodes.values())).auth

        def scrape():
            async def sweep():
                acks = await asyncio.gather(
                    *(stats_ping(address, auth) for address in addresses))
                return [ack.metrics for ack in acks]
            return asyncio.run(sweep())

        def lookup(wanted):
            return [r for r in server_records if r["op_id"] == wanted] or None

        def fetch(base, path):
            with urllib.request.urlopen(base + path, timeout=10.0) as reply:
                return reply.read().decode()

        loop = asyncio.get_running_loop()
        with MetricsExporter(scrape, trace_lookup=lookup, port=0) as exporter:
            host, port = exporter.address
            base = f"http://{host}:{port}"
            health = await loop.run_in_executor(None, fetch, base, "/healthz")
            metrics = await loop.run_in_executor(None, fetch, base,
                                                 "/metrics")
            traces = await loop.run_in_executor(None, fetch, base,
                                                f"/traces/{op_id}")
        if health.strip() != "ok":
            fail(f"/healthz said {health!r}")
        for needle in ("# TYPE repro_node_frames_total counter",
                       "# TYPE repro_node_phase_seconds histogram",
                       "# TYPE repro_client_ops_total counter"):
            if needle not in metrics:
                fail(f"/metrics lacks {needle!r}")
        served = json.loads(traces)
        if not served or any(r["op_id"] != op_id for r in served):
            fail(f"/traces/{op_id} returned {served!r}")

        acks = await asyncio.gather(
            *(stats_ping(address, auth) for address in addresses))
        merged = merge_registry_snapshots([ack.metrics for ack in acks])
        return op_id, len(server_records), len(metrics.splitlines()), merged
    finally:
        await cluster.stop()


def main():
    op_id, flights, lines, merged = asyncio.run(scenario())
    counters = {c["name"] for c in merged["counters"]}
    if "node_frames_total" not in counters:
        fail("merged snapshot lost node_frames_total")
    print(f"obs smoke: ok (op {op_id} stitched from {flights} flight "
          f"records, {lines} exposition lines served over HTTP)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
