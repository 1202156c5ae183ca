"""E21: open-loop load -- honest latency and max sustainable throughput.

Every earlier experiment measured the runtime with closed-loop drivers:
a fixed set of in-flight slots that submits the next operation only when
the previous one returns, so when the system slows down the driver slows
down with it and the recorded latency silently excludes the queueing
delay an open population would have suffered (*coordinated omission*).
E21 is the open-loop answer: ``repro.load`` offers a Poisson arrival
stream at a target aggregate rate from multi-process workers, charges
every operation from its *scheduled* instant, and judges the measured
window against an SLO (p99 latency, error rate, zero consistency
violations on the sampled trace).

The acceptance configuration drives the ISSUE's figure -- thousands of
sessions at a four-digit offered rate against a real process-per-node
cluster -- and the step sweep locates the maximum offered rate the
cluster sustains within the SLO.  On a saturated host the report stays
honest rather than rosy: late arrivals are recorded as queued (never
skipped), and backlog the drain grace cannot finish is counted as
abandoned with lower-bound latencies.

Run directly (or via ``make bench-load``) to write ``BENCH_load.json``
at the repository root:

    PYTHONPATH=src python benchmarks/bench_e21_load.py

The pytest entry points are marked ``slow_bench`` and excluded from the
tier-1 run; they assert the open-loop discipline (honest p99 >=
closed-loop p99), full accounting of every arrival, and zero
consistency violations.
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.load.coordinator import run_load
from repro.load.profile import LoadProfile, SloPolicy

pytestmark = pytest.mark.slow_bench

#: The ISSUE acceptance configuration (scaled knobs kept in one place).
USERS = 2000
RPS = 1500.0
DURATION = 30.0
KEYS = 64
WORKERS = 2

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_load.json"


def _profile(users: int = USERS, rps: float = RPS,
             duration: float = DURATION) -> LoadProfile:
    return LoadProfile(users=users, rps=rps, duration=duration,
                       warmup=3.0, cooldown=0.5, keys=KEYS,
                       read_ratio=0.9, timeout=10.0, seed=21,
                       clients_per_worker=4)


def run_benchmark(procs: bool = True, users: int = USERS, rps: float = RPS,
                  duration: float = DURATION, workers: int = WORKERS,
                  sweep: str = "step"):
    """One full ``repro load`` run; returns the :class:`LoadReport`."""
    return asyncio.run(run_load(
        _profile(users=users, rps=rps, duration=duration), procs=procs,
        workers=workers, slo=SloPolicy(), sweep=sweep))


def _assert_honest(report) -> None:
    main = report.main
    # Every measured arrival is accounted for across the four outcomes.
    assert sum(main["ops"].values()) >= main["arrivals"] - 1, main
    # The open-loop number can never undercut the closed-loop one.
    assert main["p99_ms"] >= main["service_p99_ms"] - 1e-6, main
    assert report.safety_ok, report.safety_detail


def test_open_loop_run_is_honest_and_safe():
    """Scaled-down acceptance shape on the in-process cluster."""
    report = run_benchmark(procs=False, users=100, rps=120.0,
                           duration=6.0, workers=2, sweep="none")
    _assert_honest(report)
    assert report.main["arrivals"] > 300


@pytest.mark.procs
def test_procs_acceptance_run():
    """ISSUE acceptance: the full configuration against real processes."""
    report = run_benchmark(procs=True)
    _assert_honest(report)
    assert report.max_sustainable_rps >= 0.0
    report.write(str(OUTPUT))


def main() -> None:
    import argparse

    from repro.metrics.report import emit

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-procs", action="store_true",
                        help="use the in-process cluster instead")
    parser.add_argument("--users", type=int, default=USERS)
    parser.add_argument("--rps", type=float, default=RPS)
    parser.add_argument("--duration", type=float, default=DURATION)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--sweep", choices=("step", "binary", "none"),
                        default="step")
    options = parser.parse_args()
    report = run_benchmark(procs=not options.no_procs, users=options.users,
                           rps=options.rps, duration=options.duration,
                           workers=options.workers, sweep=options.sweep)
    report.write(str(OUTPUT))
    emit(report.format())
    emit(f"\nwrote {OUTPUT}")


if __name__ == "__main__":
    main()
