"""The commands run, say what the contract wants, and refuse a bare tree."""

import json
import os
import shutil
import subprocess
import sys

import check_schema
import compare
from conftest import BENCH, ROOT

RUN = [sys.executable, os.path.join(BENCH, "run.py")]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_contract_file_is_within_its_limits():
    assert check_schema.main([]) == 0
    broken = contract()
    broken["end_to_end"][0]["bound"] = 0.5
    broken["per_layer"].append(dict(broken["per_layer"][0]))
    problems = check_schema.check_contract(broken)
    assert any("bound" in p for p in problems)
    assert any("used twice" in p for p in problems)


def _quick(workload, trace):
    done = subprocess.run(
        RUN + ["--quick", "--workload", workload, "--seed", "2",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_quick_run_prints_every_end_to_end_metric():
    last = _quick("write50", 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] > 100
    declared = {m["name"]: m["unit"] for m in contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_quick_traced_run_prints_every_per_layer_metric():
    last = _quick("write50", 1)
    declared = {m["name"] for m in contract()["per_layer"]}
    assert set(last["metrics"]) == declared
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["core.rounds_per_read"] == 1.0
    assert metrics["core.rounds_per_write"] == 2.0
    assert metrics["gate.safety_violations"] == 0
    assert metrics["byzantine.forged_replies"] > 0
    assert os.path.exists(os.path.join(BENCH, "results",
                                       "trace-write50.jsonl"))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and bench/: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zipf90", "--seed",
         "1", "--seconds", "20", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _summary(values):
    import run
    return run.summarize(values, "ms")


def test_compare_verdicts():
    base = _summary([10.0, 10.2, 9.9, 10.1])
    assert compare.verdict(base, _summary([10.3, 10.1, 10.2, 10.4]),
                           "lower", 0.1)[0] == "same"
    assert compare.verdict(base, _summary([12.0, 12.2, 11.9, 12.1]),
                           "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, _summary([12.0, 12.2, 11.9, 12.1]),
                           "higher", 0.1)[0] == "better"
    # Every run of B under every run of A: better, even inside the bound.
    assert compare.verdict(base, _summary([9.5, 9.6, 9.4, 9.7]),
                           "lower", 0.1)[0] == "better"
    # Spread wider than the bound: the runs cannot tell.
    noisy = _summary([8.0, 12.0, 9.0, 11.5])
    assert compare.verdict(noisy, _summary([8.5, 12.5, 9.5, 11.0]),
                           "lower", 0.1)[0] == "unresolved"
