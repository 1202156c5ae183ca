#!/usr/bin/env python3
"""Check ``BENCHMARK.json`` and result files against the contract.

    python3 bench/check_schema.py [RESULT.json ...]

``BENCHMARK.json``: exactly the contract's keys; 2-8 workloads, 1-16
end-to-end metrics (one of them ``setup_s`` in ``s``, lower is better;
every bound at most 0.25), 1-128 per-layer metrics; names, units and
sizes within their limits.  A result file (``run.py --out``): every
declared metric present for every declared workload, every end-to-end
reading a finite number, every per-layer reading finite or null (a
vanished layer probe).
"""

import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
MAX_BOUND = 0.25


def check_contract(doc, raw_size=0):
    problems = []
    if set(doc) != KEYS:
        problems.append(f"keys must be exactly {sorted(KEYS)}, "
                        f"got {sorted(doc)}")
        return problems
    if raw_size > 64 * 1024:
        problems.append("file larger than 64 KiB")
    command = doc["command"]
    if not (1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command: 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command: no absolute path, no '..'")
    paths = doc["paths"]
    if not (1 <= len(paths) <= 16 and all(
            isinstance(p, str) and PATH.match(p) and not p.startswith("/")
            and ".." not in p.split("/") for p in paths)):
        problems.append("paths: 1-16 relative directories")
    if not (isinstance(doc["run_seconds"], int)
            and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    seen = set()

    def check_names(section, entries, keys):
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section}: keys must be {sorted(keys)}: "
                                f"{entry}")
                continue
            name = entry["name"]
            if not NAME.match(str(name)):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: name {name!r} used twice")
            seen.add(name)
            if "unit" in entry and not UNIT.match(str(entry["unit"])):
                problems.append(f"{section}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower",
                                                             "higher"):
                problems.append(f"{section}: better must be lower|higher")

    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("workloads: 2 to 8")
    check_names("workloads", doc["workloads"], {"name", "why"})
    for workload in doc["workloads"]:
        why = workload.get("why", "")
        if not (isinstance(why, str) and 0 < len(why) <= 200
                and "\n" not in why):
            problems.append(f"workloads: why of {workload.get('name')} must "
                            "be one line of at most 200 characters")
    if not 1 <= len(doc["end_to_end"]) <= 16:
        problems.append("end_to_end: 1 to 16")
    check_names("end_to_end", doc["end_to_end"],
                {"name", "unit", "better", "bound"})
    for metric in doc["end_to_end"]:
        bound = metric.get("bound")
        if not (isinstance(bound, (int, float)) and 0 < bound <= MAX_BOUND):
            problems.append(f"end_to_end: bound of {metric.get('name')} "
                            f"must be in (0, {MAX_BOUND}]")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s"
            and setup[0].get("better") == "lower"):
        problems.append("end_to_end: needs setup_s in s, lower is better")
    if not 1 <= len(doc["per_layer"]) <= 128:
        problems.append("per_layer: 1 to 128")
    check_names("per_layer", doc["per_layer"], {"name", "unit", "better"})
    return problems


def check_result(contract, result):
    problems = []
    for workload in contract["workloads"]:
        name = workload["name"]
        entry = result.get("workloads", {}).get(name)
        if entry is None:
            problems.append(f"{name}: missing")
            continue
        for metric in contract["end_to_end"]:
            summary = entry["end_to_end"].get(metric["name"])
            values = (summary or {}).get("values") or [None]
            if not all(_finite(v) for v in values):
                problems.append(f"{name}: {metric['name']} not finite "
                                f"in every run: {values}")
        for metric in contract["per_layer"]:
            reading = entry["per_layer"].get(metric["name"])
            if reading is None:
                problems.append(f"{name}: {metric['name']} missing")
            elif reading["value"] is not None and not _finite(
                    reading["value"]):
                problems.append(f"{name}: {metric['name']} not finite")
    return problems


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "rb") as fh:
        raw = fh.read()
    contract = json.loads(raw)
    problems = check_contract(contract, len(raw))
    for result_path in argv:
        with open(result_path, encoding="utf-8") as fh:
            problems += [f"{result_path}: {p}" for p in
                         check_result(contract, json.load(fh))]
    for problem in problems:
        print(problem)
    print(f"{'FAIL' if problems else 'ok'}: BENCHMARK.json"
          + "".join(f", {p}" for p in argv))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
