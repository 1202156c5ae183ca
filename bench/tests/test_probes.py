"""A layer probe whose entry point vanished reports null, nothing more."""

import pytest

import layers
from workloads import WORKLOADS


def test_every_probe_reports_a_number_on_every_workload_shape():
    for name in ("write50", "bcsr64k"):
        results = layers.run_replay(WORKLOADS[name], seed=3)
        declared = {m for _, names in layers.PROBES for m in names}
        assert set(results) == declared
        assert all(isinstance(v, float) for v in results.values()), results
    # Layers off the workload's path read 0, layers on it do not.
    assert results["sharding.route_us"] == 0.0
    assert results["erasure.encode_us"] > 0.0
    assert 2.6 < results["erasure.stored_bytes_per_value_byte"] < 2.7


def test_vanished_entry_point_reports_null_and_spares_the_rest(
        monkeypatch, capsys):
    import repro.transport.auth as auth
    monkeypatch.delattr(auth.Authenticator, "seal_frames")
    results = layers.run_replay(WORKLOADS["write50"], seed=3)
    for probe, names in layers.PROBES:
        if probe is layers.probe_frames:
            assert all(results[name] is None for name in names)
        else:
            assert all(results[name] is not None for name in names), probe
    assert "probe_frames reports null" in capsys.readouterr().err


def test_vanished_module_attribute_is_a_missing_probe(monkeypatch, capsys):
    import repro.sharding
    monkeypatch.delattr(repro.sharding, "KeyspaceConfig")
    results = layers.run_replay(WORKLOADS["write50"], seed=3,
                                probes=[p for p in layers.PROBES
                                        if p[0] is layers.probe_sharding])
    assert results["sharding.route_us"] is None
    assert "entry point vanished" in capsys.readouterr().err
    with pytest.raises(layers.ProbeMissing):
        layers.resolve("repro.no_such_module:thing", "repro.obs:nothing")


def test_resolve_falls_back_to_a_later_home():
    assembler = layers.resolve("repro.transport.codec2:FrameAssembler",
                               "repro.transport.codec:FrameAssembler")
    assert assembler.__name__ == "FrameAssembler"
