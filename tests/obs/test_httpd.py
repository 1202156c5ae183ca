"""HTTP metrics exporter: endpoints, merging, error handling."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricRegistry
from repro.obs.httpd import MetricsExporter


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=5.0) as reply:
        return reply.status, reply.headers.get("Content-Type"), reply.read()


@pytest.fixture
def exporter():
    registry_a, registry_b = MetricRegistry(), MetricRegistry()
    registry_a.counter("node_frames_total", node="s000").inc(3)
    registry_b.counter("node_frames_total", node="s001").inc(4)

    def scrape():
        return [registry_a.snapshot(), registry_b.snapshot()]

    def lookup(op_id):
        if op_id == 64:
            return [{"op_id": 64, "node": "s000", "phase": "get-tag"}]
        return []

    with MetricsExporter(scrape, trace_lookup=lookup, port=0) as server:
        yield server


def test_metrics_merges_all_scraped_nodes(exporter):
    status, content_type, body = _get(exporter.port, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain; version=0.0.4")
    text = body.decode()
    assert 'repro_node_frames_total{node="s000"} 3' in text
    assert 'repro_node_frames_total{node="s001"} 4' in text


def test_metrics_json_round_trips(exporter):
    status, content_type, body = _get(exporter.port, "/metrics.json")
    assert status == 200 and content_type == "application/json"
    snapshot = json.loads(body)
    assert len(snapshot["counters"]) == 2


def test_healthz(exporter):
    status, _, body = _get(exporter.port, "/healthz")
    assert status == 200 and body == b"ok\n"


def test_trace_endpoint_serves_known_op(exporter):
    status, _, body = _get(exporter.port, "/traces/64")
    assert status == 200
    assert json.loads(body)[0]["node"] == "s000"


def test_trace_endpoint_404_on_unknown_op(exporter):
    with pytest.raises(urllib.error.HTTPError) as info:
        _get(exporter.port, "/traces/999")
    assert info.value.code == 404


def test_trace_endpoint_400_on_non_integer(exporter):
    with pytest.raises(urllib.error.HTTPError) as info:
        _get(exporter.port, "/traces/abc")
    assert info.value.code == 400


def test_unknown_path_404(exporter):
    with pytest.raises(urllib.error.HTTPError) as info:
        _get(exporter.port, "/nope")
    assert info.value.code == 404


def test_scrape_failure_becomes_500_not_a_crash():
    def broken():
        raise RuntimeError("node exploded")

    with MetricsExporter(broken, port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.port, "/metrics")
        assert info.value.code == 500
        # The server survives the failed request.
        status, _, _ = _get(server.port, "/healthz")
        assert status == 200


def test_trace_404_when_lookup_not_configured():
    with MetricsExporter(lambda: [], port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.port, "/traces/1")
        assert info.value.code == 404


def test_stop_is_idempotent_and_start_returns_address():
    exporter = MetricsExporter(lambda: [], port=0)
    host, port = exporter.start()
    assert host == "127.0.0.1" and port > 0
    assert exporter.start() == (host, port)  # second start is a no-op
    exporter.stop()
    exporter.stop()


def test_trace_endpoint_narrows_to_one_party():
    records = [{"op_id": 7, "party": "w000", "node": "s000"},
               {"op_id": 7, "party": "w001", "node": "s001"}]
    with MetricsExporter(lambda: [], trace_lookup=lambda op: records,
                         port=0) as server:
        _, _, body = _get(server.port, "/traces/7")
        assert json.loads(body) == records
        _, _, body = _get(server.port, "/traces/w001/7")
        assert json.loads(body) == records[1:]
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.port, "/traces/w002/7")
        assert info.value.code == 404
