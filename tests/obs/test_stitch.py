"""Causal trace stitching: client spans joined with flight records."""

from repro.obs import format_timeline, slowest, stitch, stitch_op
from repro.obs.stitch import ALIGNMENT_SLACK


def _client_record(op_id=64, ts=100.010, latency=0.010, kind="write",
                   phases=None):
    if phases is None:
        phases = [
            {"phase": "get-tag", "duration": 0.006,
             "witness_wait": 0.002, "quorum_wait": 0.005,
             "replies": {"s000": 0.001, "s001": 0.002, "s002": 0.004,
                         "s003": 0.005}},
            {"phase": "put-data", "duration": 0.004,
             "witness_wait": 0.002, "quorum_wait": 0.003,
             "replies": {"s000": 0.001, "s001": 0.002, "s002": 0.0025,
                         "s003": 0.003}},
        ]
    return {"ts": ts, "client": "w000", "algorithm": "bsr", "kind": kind,
            "op_id": op_id, "outcome": "ok", "latency": latency,
            "throttles": 0, "resends": 0, "inflight": 1, "phases": phases}


def _flight(op_id=64, node="s000", phase="get-tag", recv=100.0005):
    return {"op_id": op_id, "node": node, "phase": phase, "recv": recv,
            "queue_wait": 0.0001, "service": 0.0002, "verdict": "served",
            "repeat": False}


def test_stitch_builds_absolute_phase_timeline():
    op = stitch_op(64, [_client_record()], [_flight()])
    assert op is not None
    assert op.started == 100.0
    assert op.finished == 100.010
    first, second = op.phases
    assert first["start"] == 100.0
    assert first["witness_at"] == 100.002   # f+1 witness instant
    assert first["quorum_at"] == 100.005    # n-f quorum instant
    assert second["start"] == 100.006       # phases are contiguous
    assert op.dominant_phase == "get-tag"


def test_events_order_witness_before_quorum():
    op = stitch_op(64, [_client_record()], [_flight()])
    texts = [text for _, _, text in op.events()]
    witness = texts.index("witness reached (f+1 replies)")
    quorum = texts.index("quorum reached (n-f replies)")
    assert witness < quorum
    assert texts[0].startswith("op start")
    assert texts[-1].startswith("op finish")
    offsets = [offset for offset, _, _ in op.events()]
    assert offsets == sorted(offsets)


def test_out_of_order_server_records_are_sorted():
    records = [_flight(node="s002", recv=100.004),
               _flight(node="s000", recv=100.0005),
               _flight(node="s001", recv=100.002)]
    op = stitch_op(64, [_client_record()], records)
    assert [r["node"] for r in op.servers] == ["s000", "s001", "s002"]
    assert op.aligned


def test_byzantine_withholding_leaves_a_visible_gap():
    """A node that answered the client but produced no flight record is
    named in ``missing_servers`` -- a gap, never an error."""
    records = [_flight(node="s000"), _flight(node="s001")]
    op = stitch_op(64, [_client_record()], records)
    assert op.missing_servers == ["s002", "s003"]
    assert "no server-side records from: s002, s003" in format_timeline(op)


def test_unaligned_clocks_fall_back_to_durations():
    far = _flight(recv=100.0 + ALIGNMENT_SLACK + 5.0)
    op = stitch_op(64, [_client_record()], [far])
    assert not op.aligned
    # No absolute server event on the timeline...
    assert all(actor == "client" for _, actor, _ in op.events())
    # ...but the record still renders with durations only.
    rendered = format_timeline(op)
    assert "server clocks not aligned" in rendered
    assert "queue 0.100ms" in rendered


def test_stitch_drops_unmatched_server_records():
    stitched = stitch([_client_record(op_id=64)],
                      [_flight(op_id=64), _flight(op_id=128)])
    assert len(stitched) == 1
    assert all(r["op_id"] == 64 for r in stitched[0].servers)


def test_stitch_op_returns_none_without_client_record():
    assert stitch_op(7, [_client_record(op_id=64)], [_flight(op_id=7)]) is None


def test_stitch_tolerates_wire_tuples():
    """TraceAck records decode as tuples of dicts; stitching accepts them."""
    op = stitch_op(64, [_client_record()], (_flight(),))
    assert op.servers


def test_slowest_ranks_by_latency():
    fast = _client_record(op_id=1, latency=0.001, ts=100.001)
    slow = _client_record(op_id=2, latency=0.050, ts=100.050)
    mid = _client_record(op_id=3, latency=0.010, ts=100.010)
    ranked = slowest(stitch([fast, slow, mid], []), top=2)
    assert [op.op_id for op in ranked] == [2, 3]


def test_timeline_renders_witness_and_quorum_instants():
    op = stitch_op(64, [_client_record()],
                   [_flight(node="s000", phase="get-tag"),
                    _flight(node="s001", phase="put-data", recv=100.007)])
    rendered = format_timeline(op)
    assert "witness reached (f+1 replies)" in rendered
    assert "quorum reached (n-f replies)" in rendered
    assert "recv get-tag" in rendered and "recv put-data" in rendered
    assert rendered.splitlines()[0].startswith("op 64 write by w000")


def test_throttle_line_and_repeat_marker():
    record = _client_record()
    record["throttles"] = 2
    shed = _flight()
    shed.update(verdict="throttled", repeat=True)
    rendered = format_timeline(stitch_op(64, [record], [shed]))
    assert "throttles=2" in rendered
    assert "[repeat]" in rendered and "throttled" in rendered


def _of(party, record):
    return dict(record, party=party)


def test_two_clients_with_one_op_id_stitch_apart():
    # Every party numbers its own operations: an operation is
    # (party, op_id), and a flight record joins the op of its party only.
    mine = _client_record()
    theirs = dict(_client_record(), client="w001")
    records = [_of("w000", _flight(node="s000")),
               _of("w001", _flight(node="s001", phase="put-data")),
               _of("w001", _flight(node="s002", phase="put-data"))]
    first, second = stitch([mine, theirs], records)
    assert [r["node"] for r in first.servers] == ["s000"]
    assert [r["node"] for r in second.servers] == ["s001", "s002"]
    assert [r["node"] for r in stitch_op(64, [mine], records).servers] == [
        "s000"]
    # A record that names no party (recorded before records named one)
    # cannot be told apart, and joins on op_id alone, as it did.
    legacy = stitch_op(64, [mine], records + [_flight(node="s003")])
    assert [r["node"] for r in legacy.servers] == ["s000", "s003"]


def test_trace_show_picks_the_records_of_its_client(tmp_path, monkeypatch,
                                                    capsys):
    import json

    from repro import cli

    spec = tmp_path / "cluster.json"
    spec.write_text(json.dumps({"algorithm": "bsr", "f": 1}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"nodes": {
        "s000": {"host": "127.0.0.1", "port": 1}}}))
    trace = tmp_path / "spans.jsonl"
    trace.write_text(json.dumps(_client_record()) + "\n")
    scraped = [_of("w000", _flight(node="s000")),
               _of("w001", dict(_flight(node="s001"), verdict="throttled"))]

    async def scrape(addresses, auth, timeout, target_op=-1):
        assert target_op == 64
        return scraped

    monkeypatch.setattr(cli, "_scrape_flights", scrape)
    assert cli.main(["trace", "show", "64", "--trace", str(trace),
                     "--spec", str(spec), "--state", str(state)]) == 0
    shown = capsys.readouterr().out
    assert "served" in shown and "throttled" not in shown
