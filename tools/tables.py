#!/usr/bin/env python
"""Every simulator-backed experiment table, as one diffable text.

Writes, to stdout, the rows of E1-E9 and E11-E15 (each benchmark's
``run_experiment()``; ``run_sweep()`` for E1) and the output of ``repro
scenario t3``, ``t5`` and ``t6``.  Everything here is seeded and runs on
simulated time, so two checkouts that execute the same protocol steps
print the same bytes: a refactor that claims to change no behaviour is
checked with one ``diff`` of this output taken before and after it.

Run from the repository root (``make tables`` writes ``tables.txt``)::

    python tools/tables.py > tables.txt

String hashing is pinned (``PYTHONHASHSEED=0``): the script re-runs
itself under it when started without, so set iteration order cannot
differ between two runs.
"""

import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (experiment, benchmark module, the function that computes its rows).
EXPERIMENTS = (
    ("E1", "bench_e1_read_latency", "run_sweep"),
    ("E2", "bench_e2_bsr_resilience", "run_experiment"),
    ("E3", "bench_e3_bcsr_resilience", "run_experiment"),
    ("E4", "bench_e4_storage_comm", "run_experiment"),
    ("E5", "bench_e5_regularity", "run_experiment"),
    ("E6", "bench_e6_read_heavy", "run_experiment"),
    ("E7", "bench_e7_round_complexity", "run_experiment"),
    ("E8", "bench_e8_tag_ablation", "run_experiment"),
    ("E9", "bench_e9_decoder", "run_experiment"),
    ("E11", "bench_e11_modelcheck", "run_experiment"),
    ("E12", "bench_e12_history_gc", "run_experiment"),
    ("E13", "bench_e13_bandwidth", "run_experiment"),
    ("E14", "bench_e14_read_repair", "run_experiment"),
    ("E15", "bench_e15_fast_writes", "run_experiment"),
)

SCENARIOS = ("t3", "t5", "t6")


def _rows(result):
    """One line per row when the result is a list of rows."""
    if isinstance(result, list):
        return [repr(row) for row in result]
    return [repr(result)]


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable] + sys.argv, env=env)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    out = sys.stdout
    for name, module, function in EXPERIMENTS:
        run = getattr(importlib.import_module(f"benchmarks.{module}"),
                      function)
        out.write(f"== {name} {module}.{function}()\n")
        out.writelines(line + "\n" for line in _rows(run()))
        out.flush()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for scenario in SCENARIOS:
        out.write(f"== repro scenario {scenario}\n")
        out.flush()
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", scenario],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out.write(completed.stdout)
        out.write(f"(exit {completed.returncode})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
