"""Erasure-coded storage: BCSR's cost savings and corruption tolerance.

Stores a sizeable blob in a BCSR deployment (n = 16, f = 2, so the
``[16, 6]`` code stores ~1/6 of the blob per server), compares the
footprint with full replication, and then reads the blob back while two
Byzantine servers hand out corrupted coded elements.

Run with::

    python examples/coded_storage.py
"""

from repro.core.register import RegisterSystem
from repro.metrics import format_table
from repro.sim.delays import UniformDelay

N, F = 16, 2
BLOB = bytes(range(256)) * 64   # a 16 KiB "document"


def deploy(algorithm: str, byzantine=None) -> RegisterSystem:
    return RegisterSystem(algorithm, f=F, n=N, seed=99,
                          delay_model=UniformDelay(0.2, 1.0),
                          byzantine=byzantine or {})


def footprint(system: RegisterSystem):
    stored = system.storage_bytes()
    total = sum(stored.values())
    return max(stored.values()), total


def main() -> None:
    print(f"Storing a {len(BLOB)} byte blob on n={N} servers, f={F}\n")

    replicated = deploy("bsr")
    replicated.write(BLOB, at=0.0)
    replicated.run()
    repl_per_server, repl_total = footprint(replicated)

    coded = deploy("bcsr", byzantine={0: "corrupt_value", 1: "corrupt_value"})
    coded.write(BLOB, at=0.0)
    read = coded.read(reader=0, at=20.0)
    coded.run()
    coded_per_server, coded_total = footprint(coded)

    k = N - 5 * F
    print(format_table(
        ("scheme", "per-server bytes", "total bytes", "vs value size"),
        [
            ("replication (BSR)", repl_per_server, repl_total,
             f"{repl_total / len(BLOB):.1f}x"),
            (f"[{N},{k}] MDS code (BCSR)", coded_per_server, coded_total,
             f"{coded_total / len(BLOB):.1f}x"),
        ],
        title="Storage footprint",
    ))
    print(f"\ncoding saves {repl_total / coded_total:.1f}x storage "
          f"(theory: k = {k}x, minus framing)")

    ok = read.value == BLOB
    print(f"\nread-back with 2 corrupting Byzantine servers: "
          f"{'intact' if ok else 'CORRUPTED'} "
          f"({read.rounds} round, {read.latency:.2f}s simulated)")
    assert ok, "Berlekamp-Welch must fix 2f corrupted elements"


if __name__ == "__main__":
    main()
