"""HTTP sidecar: the read-only endpoints named in :data:`ENDPOINTS`.

A :class:`MetricsHTTPServer` runs a stdlib ``ThreadingHTTPServer`` on a
daemon thread next to the TCP server and exposes read-only endpoints
over plain GET:

* ``/metrics`` -- the full registry in the Prometheus text exposition
  format (``text/plain; version=0.0.4``), scrapeable by any Prometheus;
* ``/health`` -- a JSON liveness/durability document (uptime, active
  sessions, WAL posture, the doctor verdict).  Answers 503 when the
  database needs crash recovery or the doctor found it unhealthy, 200
  otherwise, so a load balancer can eject an unhealthy server on status
  alone;
* ``/slow`` -- the slow-query ring as JSON, newest last, plus the
  per-fingerprint grouping of repeated offenders;
* ``/statements`` -- per-fingerprint statement statistics and the
  replication ledger;
* ``/cache`` -- the derived-result cache snapshot (entries, bytes,
  hit/miss/invalidation counters, hottest entries).

Scrapes must not perturb the engine: every handler reads counters, plain
attributes, or its own mutex-guarded ring -- no page I/O, no engine
latch.  The one bounded exception is /health's doctor verdict, which is
re-computed (under the engine latch) at most once per ``health_ttl``
seconds rather than per-scrape: running the doctor on every scrape would
drag pages through the buffer pool and change the physical I/O of
unrelated queries (``tests/test_observer_neutrality.py`` pins scrape
overhead to zero page I/O inside one TTL window).

Metric reads are snapshot-safe without locking: the registry's sample
iteration takes atomic ``sorted(dict)`` snapshots under CPython, and
metric keys are never removed while a server is live.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: every route the sidecar answers -- the 404 body and both servers'
#: ``--metrics-port`` help are built from this.
ENDPOINTS = ("/metrics", "/health", "/slow", "/statements", "/replication",
             "/cache")

#: the content type Prometheus expects from a text-format scrape.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _make_handler(server) -> type:
    """Build a request-handler class bound to one repro ``Server``."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
            pass  # scrape chatter does not belong on the server's stderr

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, document: dict) -> None:
            body = json.dumps(document, indent=2).encode("utf-8")
            self._send(status, "application/json; charset=utf-8", body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    text = server.db.telemetry.metrics.render_prometheus()
                    self._send(200, PROMETHEUS_CONTENT_TYPE,
                               text.encode("utf-8"))
                elif path == "/health":
                    health = server.health()
                    # "stale" is a replica past its staleness bound: a
                    # read-routing load balancer must eject it exactly
                    # like an unhealthy primary
                    status = (503 if health["status"] in ("needs_recovery",
                                                          "stale") else 200)
                    self._send_json(status, health)
                elif path == "/replication":
                    self._send_json(200, server._replication_status())
                elif path == "/slow":
                    slowlog = server.db.telemetry.slowlog
                    self._send_json(200, {
                        "threshold_ms": slowlog.threshold_ms,
                        "capacity": slowlog.capacity,
                        "total":
                            server.db.telemetry.metrics.value(
                                "slow_queries_total"),
                        "entries": slowlog.entries(),
                        "grouped": slowlog.grouped(),
                    })
                elif path == "/statements":
                    self._send_json(200, server.statement_stats())
                elif path == "/cache":
                    self._send_json(200, server.db.resultcache.snapshot())
                else:
                    self._send_json(404, {
                        "error": "not found",
                        "endpoints": list(ENDPOINTS),
                    })
            except BrokenPipeError:
                pass  # scraper went away mid-response

    return Handler


class MetricsHTTPServer:
    """The sidecar: a threaded HTTP server over one repro ``Server``."""

    def __init__(self, server, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(server))
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "MetricsHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-http", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
