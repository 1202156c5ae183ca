"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.protocols import get_spec, register, registry


def test_algorithms_lists_all(capsys):
    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    for name in ("bsr", "bcsr", "rb", "abd", "bsr-history", "bsr-2round"):
        assert name in out


def test_protocol_registered_after_import_is_listed_and_selectable(capsys):
    """No algorithm list is frozen at import: a late plugin shows up."""
    register(dataclasses.replace(get_spec("bsr"), name="late-plugin"))
    try:
        assert main(["algorithms"]) == 0
        assert "late-plugin" in capsys.readouterr().out
        assert main(["demo", "--algorithm", "late-plugin"]) == 0
        assert "MWMR safety: OK" in capsys.readouterr().out
    finally:
        del registry._REGISTRY["late-plugin"]


def test_demo_runs_and_reports(capsys):
    assert main(["demo", "--algorithm", "bsr", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "read returned" in out
    assert "MWMR safety: OK" in out


def test_demo_all_algorithms(capsys):
    for algorithm in ("bcsr", "rb", "abd"):
        assert main(["demo", "--algorithm", algorithm]) == 0


def test_scenario_t3(capsys):
    assert main(["scenario", "t3"]) == 0
    out = capsys.readouterr().out
    assert "Theorem 3" in out
    assert "violation" in out  # regularity violations listed


def test_scenario_t3_regular_variant(capsys):
    assert main(["scenario", "t3", "--algorithm", "bsr-history"]) == 0
    out = capsys.readouterr().out
    assert "MWMR regularity: OK" in out


def test_scenario_t5_and_t6(capsys):
    assert main(["scenario", "t5"]) == 0
    assert "Theorem 5" in capsys.readouterr().out
    assert main(["scenario", "t6"]) == 0
    assert "Theorem 6" in capsys.readouterr().out


def test_workload_reports_table(capsys):
    code = main(["workload", "--algorithm", "bsr", "--ops", "60",
                 "--read-ratio", "0.8", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean(s)" in out and "read" in out and "write" in out


def test_workload_exit_code_reflects_safety(capsys):
    # A correct system under a correct workload must exit 0.
    assert main(["workload", "--ops", "30"]) == 0


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "--algorithm", "raft"])


def test_modelcheck_below_bound_finds_violations(capsys):
    assert main(["modelcheck", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATION FOUND" in out
    assert "12 of 16" in out


def test_chaos_runs_schedule_and_reports(capsys):
    assert main(["chaos", "--schedule", "crash-restart", "--ops", "8",
                 "--period", "0.3", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "crash s" in out and "restart s" in out
    assert "MWMR safety: OK" in out
    assert "reconnects" in out


def test_chaos_baseline_schedule_has_no_faults(capsys):
    assert main(["chaos", "--schedule", "none", "--ops", "6",
                 "--period", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "(no faults)" in out
    assert "MWMR safety: OK" in out


def test_chaos_rejects_unknown_schedule():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--schedule", "tornado"])


def test_chaos_procs_rejects_proxy_schedule():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        main(["chaos", "--schedule", "flaky-links", "--procs", "--ops", "4"])


def test_cluster_status_without_running_cluster(tmp_path, capsys):
    from repro.deploy import ClusterSpec
    from repro.errors import ConfigurationError

    spec_path = ClusterSpec(
        algorithm="bsr", f=1, snapshot_dir=str(tmp_path / "snaps"),
    ).save(str(tmp_path / "cluster.json"))
    with pytest.raises(ConfigurationError):
        main(["cluster", "status", "--spec", spec_path])


def test_cluster_kill_requires_node_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cluster", "kill", "--spec", "x.json"])


def test_node_serve_requires_spec_and_node():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["node", "serve", "--node", "s000"])


@pytest.mark.procs
def test_cluster_serve_for_duration(tmp_path, capsys):
    from repro.deploy import ClusterSpec

    spec_path = ClusterSpec(
        algorithm="bsr", f=1, snapshot_dir=str(tmp_path / "snaps"),
        secret="cli-serve",
    ).save(str(tmp_path / "cluster.json"))
    assert main(["cluster", "serve", "--spec", spec_path,
                 "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.count(" up ") == 5  # five nodes reported running
    assert "state file:" in out


@pytest.mark.procs
def test_chaos_procs_end_to_end(capsys):
    assert main(["chaos", "--schedule", "crash-restart", "--procs",
                 "--ops", "8", "--period", "0.5", "--seed", "2",
                 "--max-history", "6"]) == 0
    out = capsys.readouterr().out
    assert "OS processes" in out
    assert "crash s" in out and "restart s" in out
    assert "snapshots:" in out
    assert "MWMR safety: OK" in out


def test_modelcheck_accepts_exhaustive_flag(capsys):
    # Tiny state cap: outcome may be truncated, but the command must run.
    assert main(["modelcheck", "--n", "4", "--exhaustive",
                 "--max-states", "50"]) in (0, 1)
    out = capsys.readouterr().out
    assert "quorum pairs" in out


# -- keys (sharded keyspace inspection) ---------------------------------------

@pytest.fixture
def keyspace_spec(tmp_path):
    from repro.deploy import ClusterSpec

    return ClusterSpec(
        algorithm="bsr", f=1, n=9, secret="cli-keys",
        keyspace={"group_size": 5, "vnodes": 32, "seed": 7},
    ).save(str(tmp_path / "cluster.json"))


def test_keys_stats_reports_shares(keyspace_spec, capsys):
    assert main(["keys", "stats", "--spec", keyspace_spec,
                 "--sample", "200"]) == 0
    out = capsys.readouterr().out
    assert "group_size=5" in out
    assert "placement fingerprint:" in out
    for i in range(9):
        assert f"s{i:03d}" in out


def test_keys_locate_names_the_group(keyspace_spec, capsys):
    assert main(["keys", "locate", "key-0042",
                 "--spec", keyspace_spec]) == 0
    out = capsys.readouterr().out
    assert "primary:" in out
    assert "group:" in out
    assert "size 5" in out


def test_keys_locate_matches_spec_placement(keyspace_spec, capsys):
    from repro.deploy import ClusterSpec

    assert main(["keys", "locate", "key-0007",
                 "--spec", keyspace_spec]) == 0
    out = capsys.readouterr().out
    group = ClusterSpec.from_file(keyspace_spec).locate("key-0007")
    for node in group:
        assert str(node) in out


def test_keys_rebalance_dry_run(keyspace_spec, capsys):
    assert main(["keys", "rebalance", "--spec", keyspace_spec,
                 "--dry-run", "--add", "1", "--sample", "300"]) == 0
    out = capsys.readouterr().out
    assert "9 -> 10 nodes" in out
    assert "change groups" in out


def test_keys_rebalance_requires_dry_run(keyspace_spec, capsys):
    assert main(["keys", "rebalance", "--spec", keyspace_spec,
                 "--add", "1"]) == 1
    assert "--dry-run" in capsys.readouterr().err


def test_keys_refuses_unsharded_spec(tmp_path, capsys):
    from repro.deploy import ClusterSpec

    plain = ClusterSpec(algorithm="bsr", f=1, secret="plain").save(
        str(tmp_path / "plain.json"))
    assert main(["keys", "stats", "--spec", plain]) == 1
    assert "no [keyspace]" in capsys.readouterr().err


def test_chaos_keyed_workload(capsys):
    assert main(["chaos", "--schedule", "none", "--ops", "10",
                 "--keys", "8", "--zipf-s", "1.1", "--seed", "3",
                 "--period", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "per register" in out
