#!/usr/bin/env python3
"""Compare two result files of ``run.py --out`` against the bounds.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric: A's and B's median, how much
worse B is (as a share of A, signed so that positive is worse), and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``better`` / ``worse`` -- B's median differs from A's by more than the
  bound (or every run of B reads better than every run of A),
* ``same`` -- within the bound, and both files' run-to-run spread
  (quartile distance over median) is within the bound too,
* ``unresolved`` -- within the bound but the spread is wider than the
  bound: the runs cannot tell.

Per-layer metrics have no bound; they are listed side by side.  Exit
status 1 if any verdict is ``worse``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(summary):
    """Quartile distance as a share of the median (None if unknown)."""
    if summary.get("q1") is None or not summary.get("median"):
        return None
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(a, b, better, bound):
    """``(verdict, worse_by)`` for one metric's two summaries."""
    if a.get("median") is None or b.get("median") is None or not a["median"]:
        return "unresolved", None
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    runs_a = [v for v in a.get("values", ()) if v is not None]
    runs_b = [v for v in b.get("values", ()) if v is not None]
    if len(runs_a) > 1 and len(runs_b) > 1 and (
            max(runs_b) < min(runs_a) if better == "lower"
            else min(runs_b) > max(runs_a)):
        return "better", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", worse_by
    return "same", worse_by


def compare(contract, a, b, out=sys.stdout):
    """Print the comparison; returns the number of ``worse`` verdicts."""
    worse = 0
    if a.get("fingerprint") != b.get("fingerprint"):
        print("note: host fingerprints differ", file=out)
        for key in sorted(set(a.get("fingerprint") or {})
                          | set(b.get("fingerprint") or {})):
            va = (a.get("fingerprint") or {}).get(key)
            vb = (b.get("fingerprint") or {}).get(key)
            if va != vb:
                print(f"  {key}: {va} -> {vb}", file=out)
    if not (a.get("comparable", True) and b.get("comparable", True)):
        print("note: at least one file is a --quick run: not comparable",
              file=out)
    for workload in contract["workloads"]:
        name = workload["name"]
        wa = a["workloads"].get(name)
        wb = b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"\n{name}: missing from one file", file=out)
            continue
        print(f"\n{name}", file=out)
        print(f"  {'end-to-end metric':<22}{'A median':>12}{'B median':>12}"
              f"{'worse by':>10}{'bound':>8}  verdict", file=out)
        for metric in contract["end_to_end"]:
            sa = wa["end_to_end"].get(metric["name"], {})
            sb = wb["end_to_end"].get(metric["name"], {})
            result, worse_by = verdict(sa, sb, metric["better"],
                                       metric["bound"])
            worse += result == "worse"
            print(f"  {metric['name']:<22}{_num(sa.get('median')):>12}"
                  f"{_num(sb.get('median')):>12}"
                  f"{'' if worse_by is None else f'{worse_by:+.1%}':>10}"
                  f"{metric['bound']:>8.0%}  {result}", file=out)
        print(f"  {'per-layer metric':<38}{'A':>12}{'B':>12}", file=out)
        for metric in contract["per_layer"]:
            va = wa["per_layer"].get(metric["name"], {}).get("value")
            vb = wb["per_layer"].get(metric["name"], {}).get("value")
            print(f"  {metric['name']:<38}{_num(va):>12}{_num(vb):>12}",
                  file=out)
    return worse


def _num(value):
    return "null" if value is None else f"{value:.5g}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    return 1 if compare(contract, *files) else 0


if __name__ == "__main__":
    sys.exit(main())
