"""Stdlib HTTP exporter: Prometheus text and stitched traces over HTTP.

:class:`MetricsExporter` binds a ``ThreadingHTTPServer`` on a
background daemon thread and serves four endpoints:

========================  ===================================================
``/metrics``              Prometheus text exposition, merged across every
                          snapshot the ``scrape`` callback returns.
``/metrics.json``         The same merged snapshot as plain JSON.
``/traces/<op_id>``       JSON flight/span records for one op_id via the
                          ``trace_lookup`` callback (404 when absent); each
                          names the ``party`` that sent it, and
                          ``/traces/<party>/<op_id>`` keeps only that
                          party's operation.
``/healthz``              ``ok`` once the server is up (a liveness probe for
                          the sidecar itself, not the cluster).
========================  ===================================================

The exporter knows nothing about nodes or wires: ``scrape`` is a
synchronous callable returning a list of registry-snapshot dicts (the
deploy layer wraps its StatsPing fan-out in ``asyncio.run``; a local
process just returns ``[registry.snapshot()]``), and ``trace_lookup``
maps an op_id to a JSON-serializable object or ``None``.  Handler
threads call them directly, so a slow scrape slows that one request,
never the cluster.

Like the rest of :mod:`repro.obs` this module imports nothing from the
rest of the repository.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional, Tuple

from repro.telemetry.registry import merge_snapshots, render_prometheus

__all__ = ["MetricsExporter"]

log = logging.getLogger(__name__)

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsExporter:
    """Background HTTP endpoint over pluggable scrape/trace callbacks.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the
    resolved ``(host, port)``.  :meth:`stop` shuts the server down and
    joins the thread -- safe to call more than once.
    """

    def __init__(self, scrape: Callable[[], List[dict]],
                 trace_lookup: Optional[Callable[[int], object]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 namespace: str = "repro") -> None:
        self.scrape = scrape
        self.trace_lookup = trace_lookup
        self.host = host
        self.port = port
        self.namespace = namespace
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns ``(host, port)``."""
        if self._server is not None:
            return self.host, self.port
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="metrics-exporter", daemon=True)
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- endpoint bodies (shared by the handler) ---------------------------
    def merged_snapshot(self) -> dict:
        snapshots = self.scrape() or []
        return merge_snapshots(snapshots, namespace=self.namespace)


def _make_handler(exporter: MetricsExporter):
    class Handler(BaseHTTPRequestHandler):
        # One exporter instance per handler class; closures keep the
        # stdlib's handler-per-request model out of the exporter API.

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            try:
                self._route()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-reply
            except Exception as exc:  # scrape/lookup failures -> 500
                log.debug("exporter request failed: %s", exc)
                try:
                    self._send(500, "text/plain; charset=utf-8",
                               f"error: {exc}\n".encode())
                except OSError:
                    pass

        def _route(self) -> None:
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                body = render_prometheus(exporter.merged_snapshot())
                self._send(200, PROMETHEUS_CONTENT_TYPE, body.encode())
            elif path == "/metrics.json":
                body = json.dumps(exporter.merged_snapshot(),
                                  separators=(",", ":"), sort_keys=True)
                self._send(200, "application/json", body.encode())
            elif path == "/healthz":
                self._send(200, "text/plain; charset=utf-8", b"ok\n")
            elif path.startswith("/traces/"):
                self._trace(path[len("/traces/"):])
            else:
                self._send(404, "text/plain; charset=utf-8",
                           b"not found\n")

        def _trace(self, raw: str) -> None:
            if exporter.trace_lookup is None:
                self._send(404, "text/plain; charset=utf-8",
                           b"trace lookup not configured\n")
                return
            # op_ids are numbered per party: /traces/<party>/<op_id>
            # names one operation, /traces/<op_id> every party's.
            party, _, raw = raw.rpartition("/")
            try:
                op_id = int(raw)
            except ValueError:
                self._send(400, "text/plain; charset=utf-8",
                           b"op_id must be an integer\n")
                return
            found = exporter.trace_lookup(op_id)
            if party and isinstance(found, list):
                found = [record for record in found
                         if isinstance(record, dict)
                         and record.get("party") == party]
            if not found:
                self._send(404, "text/plain; charset=utf-8",
                           f"no records for op {op_id}\n".encode())
                return
            body = json.dumps(found, separators=(",", ":"), sort_keys=True)
            self._send(200, "application/json", body.encode())

        def _send(self, status: int, content_type: str,
                  body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args) -> None:
            log.debug("exporter: " + fmt, *args)

    return Handler
