#!/usr/bin/env python3
"""The register stack's one benchmark.

    python3 bench/run.py --seed 1                      # all four workloads
    python3 bench/run.py --seed 1 --workload zipf90    # one, end-to-end
    python3 bench/run.py --seed 1 --workload zipf90 --trace 1   # per-layer
    python3 bench/run.py --quick                       # smoke, not comparable

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` -- every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) declared in ``BENCHMARK.json``.  Without it, each
workload runs in a fresh process of its own (``--repeats`` times, seeds
``seed, seed+1, ...``, plus one traced run) and the medians are printed
and, with ``--out``, saved for ``compare.py``.

The program under test is imported from ``src/`` of this checkout; the
seed goes to the generator, the program only sees generated operations.
Exit status is non-zero on any safety violation, on a failure ratio over
its bound, or when the program cannot be imported.
"""

import time

PROCESS_START = time.perf_counter()     # set-up is charged from here

import argparse                          # noqa: E402
import json                              # noqa: E402
import math                              # noqa: E402
import os                                # noqa: E402
import statistics                        # noqa: E402
import subprocess                        # noqa: E402
import sys                               # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

#: Fresh processes whose set-up time is pooled with this one's.
SETUP_PROBES = 2
QUICK_SECONDS = 4.0
DETAIL_PREFIX = "DETAIL "
SETUP_PREFIX = "SETUP "


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, contract):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g}-second runs, no set-up "
                             "probes; results are marked non-comparable")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--out", help="write the all-workloads result here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.quick:
        options.seconds = QUICK_SECONDS
    return options


# -- one workload, in this process -------------------------------------------

def child_command(options, workload, **overrides):
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload,
               "--seed", str(overrides.get("seed", options.seed)),
               "--seconds", repr(options.seconds),
               "--trace", str(overrides.get("trace", options.trace))]
    if options.quick:
        command.append("--quick")
    return command


def probe_setups(options) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            child_command(options, options.workload) + ["--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True)
        line = [ln for ln in done.stdout.splitlines()
                if ln.startswith(SETUP_PREFIX)][-1]
        samples.append(float(line[len(SETUP_PREFIX):]))
    return samples


def run_one(options, contract) -> int:
    try:
        import asyncio
        import harness
        import procfs
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    setup_base = time.perf_counter() - PROCESS_START
    workload = WORKLOADS[options.workload]
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    fingerprint = procfs.fingerprint()
    setup_samples = ([] if options.setup_probe or options.trace
                     or options.quick else probe_setups(options))
    report = asyncio.run(harness.run_workload(
        workload, options.seed, options.seconds, options.trace, workdir,
        setup_base=setup_base, setup_samples=setup_samples,
        setup_only=options.setup_probe))
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass                             # absent, or another run is using it
    if options.setup_probe:
        print(f"{SETUP_PREFIX}{report.detail['setup_samples_s'][0]!r}")
        return 0

    section = "per_layer" if options.trace else "end_to_end"
    measured = report.per_layer if options.trace else report.end_to_end
    metrics, counts = {}, {}
    print(f"workload {workload.name}  seed {options.seed}  "
          f"seconds {options.seconds:g}  trace {options.trace}"
          + ("  [quick: not comparable]" if options.quick else ""))
    for declared in contract[section]:
        name, unit = declared["name"], declared["unit"]
        value, count = measured.get(name, (None, 0))
        if value is not None and not math.isfinite(value):
            value = None
        metrics[name] = {"value": value, "unit": unit}
        counts[name] = count
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>12} {unit:<6} n={count}")
    if options.trace:
        _print_budget(report, workload)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        report.spans.write(os.path.join(
            HERE, "results", f"trace-{workload.name}.jsonl"))
    print(f"  fail_ratio {report.fail_ratio:.6f} "
          f"({report.failed}/{report.attempted})  safety_violations "
          f"{len(report.violations)}  reads checked "
          f"{report.detail['reads_prefix_and_hash_checked']}")
    for violation in report.violations[:10]:
        print(f"  VIOLATION: {violation}")
    detail = dict(report.detail, counts=counts, fingerprint=fingerprint,
                  comparable=not options.quick)
    print(DETAIL_PREFIX + json.dumps(detail, default=str))
    print(json.dumps({"correct": report.correct,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.correct else 1


def _print_budget(report, workload) -> None:
    """Named layer costs + runtime.other = cpu_us_per_op, and self times."""
    total = report.detail["traced_run_cpu_us_per_op"]
    print(f"  budget of cpu_us_per_op = {total:.1f} us "
          "(this traced run's own untraced sat phase):")
    for name, (cost, _) in report.per_layer.items():
        if name.endswith(".us_per_op"):
            print(f"    {name.split('.')[0]:<10} {cost:9.1f} us  "
                  f"{cost / total:6.1%}")
    other = report.per_layer["runtime.other_us_per_op"][0]
    print(f"    {'other':<10} {other:9.1f} us  {other / total:6.1%}  "
          "(runtime: loop, tasks, sockets)")
    print("  span self times (count, mean self ms):")
    for name, entry in sorted(report.detail["span_self_times"].items()):
        print(f"    {name:<28} {entry['count']:>6} "
              f"{entry['self_s'] / entry['count'] * 1e3:9.3f}")


# -- all workloads, one fresh process each -----------------------------------

def run_child(command):
    """Run one single-workload child; returns (result, detail, exit code)."""
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=400)
    lines = done.stdout.splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"no output from: {' '.join(command)}")
    detail = [ln for ln in lines if ln.startswith(DETAIL_PREFIX)]
    return (json.loads(lines[-1]),
            json.loads(detail[-1][len(DETAIL_PREFIX):]) if detail else {},
            done.returncode)


def run_all(options, contract) -> int:
    status = 0
    result = {"schema": 1, "seed": options.seed, "seconds": options.seconds,
              "repeats": options.repeats, "comparable": not options.quick,
              "fingerprint": None, "workloads": {}}
    for declared in contract["workloads"]:
        name = declared["name"]
        entry = {"correct": True, "attempted": 0, "failed": 0,
                 "end_to_end": {}, "per_layer": {}}
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for repeat in range(options.repeats):
            run, detail, code = run_child(child_command(
                options, name, seed=options.seed + repeat, trace=0))
            status = status or code
            result["fingerprint"] = result["fingerprint"] or detail.get(
                "fingerprint")
            entry["correct"] &= run["correct"]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            for metric, reading in run["metrics"].items():
                values[metric].append(reading["value"])
        for m in contract["end_to_end"]:
            entry["end_to_end"][m["name"]] = summarize(values[m["name"]],
                                                       m["unit"])
        run, detail, code = run_child(child_command(
            options, name, seed=options.seed, trace=1))
        status = status or code
        entry["correct"] &= run["correct"]
        for metric, reading in run["metrics"].items():
            entry["per_layer"][metric] = dict(
                reading, n=detail.get("counts", {}).get(metric))
        result["workloads"][name] = entry
        print_workload(name, entry)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {options.out}")
    return status


def summarize(values, unit) -> dict:
    known = [v for v in values if v is not None]
    summary = {"unit": unit, "values": values, "median": None,
               "q1": None, "q3": None}
    if known:
        summary["median"] = statistics.median(known)
    if len(known) >= 2:
        q1, _, q3 = statistics.quantiles(known, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def print_workload(name, entry) -> None:
    verdict = "correct" if entry["correct"] else "INCORRECT"
    print(f"\n{name}: {verdict}, {entry['failed']}/{entry['attempted']} "
          "operations failed")
    for metric, s in entry["end_to_end"].items():
        shown = "null" if s["median"] is None else f"{s['median']:.6g}"
        spread = ""
        if s["q1"] is not None and s["median"]:
            spread = f"  iqr/median {(s['q3'] - s['q1']) / s['median']:.1%}"
        print(f"  {metric:<36} {shown:>12} {s['unit']:<6} "
              f"runs={len(s['values'])}{spread}")
    for metric, reading in entry["per_layer"].items():
        value = reading["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<36} {shown:>12} {reading['unit']:<6} "
              f"n={reading['n']}")


def main(argv=None) -> int:
    contract = load_contract()
    options = parse_args(argv, contract)
    if options.workload:
        return run_one(options, contract)
    return run_all(options, contract)


if __name__ == "__main__":
    sys.exit(main())
