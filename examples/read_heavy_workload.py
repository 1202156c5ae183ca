"""A TAO-style read-dominated workload across all register designs.

Facebook's TAO sees ~99.8 % reads (the paper's motivating footnote); this
example replays one identical 99.8 %-read schedule against every
implemented algorithm and prints the latency/round statistics, showing why
"semi-fast" (fast reads, slow writes) is the right asymmetry.

Run with::

    python examples/read_heavy_workload.py
"""

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.metrics import format_table, summarize_trace
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.workloads import (
    TAO_READ_RATIO,
    WorkloadSpec,
    apply_schedule,
    generate_schedule,
)

ALGORITHMS = ("bsr", "bsr-history", "bsr-2round", "bcsr", "rb", "abd")


def main() -> None:
    spec = WorkloadSpec(
        num_ops=400, read_ratio=TAO_READ_RATIO, value_size=128,
        mean_interarrival=1.5, num_writers=2, num_readers=4,
    )
    schedule = generate_schedule(spec, SimRng(7, "tao"))
    reads = sum(1 for op in schedule if op.kind == "read")
    print(f"workload: {spec.num_ops} ops, {reads} reads "
          f"({reads / spec.num_ops:.1%}), exponential arrivals\n")

    rows = []
    for algorithm in ALGORITHMS:
        system = RegisterSystem(
            algorithm, f=1, seed=7, num_writers=2, num_readers=4,
            delay_model=UniformDelay(0.4, 1.2), initial_value=b"v0",
        )
        handles = apply_schedule(system, schedule)
        trace = system.run()
        assert all(handle.done for handle in handles)
        check_safety(trace, initial_value=b"v0").raise_if_violated()
        summary = summarize_trace(trace)
        read_stats = summary["read"].latency
        rows.append((
            algorithm, system.n,
            summary["read"].mean_rounds,
            read_stats.mean, read_stats.p99,
            summary["write"].latency.mean or 0.0,
        ))

    print(format_table(
        ("algorithm", "servers", "read rounds", "read mean(s)",
         "read p99(s)", "write mean(s)"),
        rows,
        title=f"{TAO_READ_RATIO:.1%}-read workload, per-algorithm latency",
    ))
    print("\nOne-shot-read designs (bsr, bsr-history, bcsr) pay one round "
          "per read; every")
    print("other design pays ~2x on the 99.8% path. The rb baseline "
          "matches on reads but")
    print("needs reliable broadcast (extra 1.5x) on every write and f "
          "fewer servers.")


if __name__ == "__main__":
    main()
