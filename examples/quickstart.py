"""Quickstart: a Byzantine-tolerant safe register in a few lines.

Builds a BSR deployment (n = 5 servers, f = 1 Byzantine), runs writes and
one-shot reads under a lying server, and verifies the execution against the
paper's safety definition.

Run with::

    python examples/quickstart.py
"""

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.sim.delays import UniformDelay


def main() -> None:
    # A register with 5 servers tolerating 1 Byzantine fault; server s002
    # answers every read with fabricated data under an inflated timestamp.
    system = RegisterSystem(
        "bsr", f=1, seed=2026,
        delay_model=UniformDelay(0.5, 2.0),   # asynchronous-ish network
        byzantine={2: "forge_tag"},
        initial_value=b"v0",
    )

    # Two writers and a reader, scheduled on the simulated clock.
    system.write(b"first-value", writer=0, at=0.0)
    system.write(b"second-value", writer=1, at=20.0)
    read = system.read(reader=0, at=40.0)

    trace = system.run()

    print("Execution:")
    print(trace.format())
    print()
    print(f"Read returned {read.value!r} "
          f"in {read.rounds} round ({read.latency:.2f}s simulated)")
    assert read.value == b"second-value", "the forged tag must not win"

    verdict = check_safety(trace, initial_value=b"v0")
    print(verdict)
    verdict.raise_if_violated()
    print("The lying server changed nothing: safety holds with one-shot reads.")


if __name__ == "__main__":
    main()
