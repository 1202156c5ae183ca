"""Geo-replication: where does the one-shot read pay off on a WAN?

Deploys registers across three regions (us-east, eu-west, ap-south) with
realistic inter-region latencies and compares per-region client latencies
across three read protocols.  Two lessons fall out:

* Any phase that waits for ``n - f`` replies must cross an ocean, so
  ABD's two full-quorum read rounds cost ~2x the one-shot read.
* The Section III-C two-round variant's *second* round only needs
  ``f + 1`` **matching** replies -- which co-located replicas can serve --
  so on geo topologies with local replicas its penalty nearly vanishes.
  (Under uniform random delays, benchmark E6 shows it costing ~1.8x.)
  Quorum *size* matters as much as round count on a WAN.

Run with::

    python examples/geo_replication.py
"""

from repro.core.register import RegisterSystem
from repro.metrics import format_table
from repro.sim.delays import TopologyDelay
from repro.types import reader_id, server_id, writer_id

#: Inter-region round-trip-ish one-way latencies (seconds).
LATENCY = {
    ("us-east", "us-east"): 0.002,
    ("eu-west", "eu-west"): 0.002,
    ("ap-south", "ap-south"): 0.002,
    ("us-east", "eu-west"): 0.040,
    ("us-east", "ap-south"): 0.110,
    ("eu-west", "ap-south"): 0.085,
}
REGIONS = ("us-east", "eu-west", "ap-south")


def build_topology(client_region: str) -> TopologyDelay:
    # 6 servers: two per region (n = 6 > 4f + 1 for f = 1).
    regions = {server_id(i): REGIONS[i // 2] for i in range(6)}
    regions[writer_id(0)] = client_region
    regions[reader_id(0)] = client_region
    return TopologyDelay(regions=regions, latency=LATENCY, jitter=0.05)


def measure(algorithm: str, client_region: str):
    system = RegisterSystem(algorithm, f=1, n=6, seed=11,
                            delay_model=build_topology(client_region))
    write = system.write(b"geo-value", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    assert read.value == b"geo-value"
    return write.latency * 1000, read.latency * 1000  # ms


def main() -> None:
    print("Registers across us-east/eu-west/ap-south, 2 servers per region, f=1\n")
    rows = []
    for region in REGIONS:
        bsr_write, bsr_read = measure("bsr", region)
        _, variant_read = measure("bsr-2round", region)
        _, abd_read = measure("abd", region)
        rows.append((region, bsr_write, bsr_read, variant_read, abd_read,
                     abd_read / bsr_read))
    print(format_table(
        ("client region", "BSR write ms", "1-shot read ms",
         "2-round(f+1) ms", "ABD read ms", "ABD/1-shot"),
        rows,
        title="operation latency by client region (simulated WAN)",
    ))
    print("\nABD reads pay two full n-f quorums (two ocean crossings); the "
          "one-shot read\npays one. The III-C two-round variant dodges the "
          "second crossing because its\nround 2 needs only f+1 matching "
          "replies, served by the client's local replicas.")


if __name__ == "__main__":
    main()
