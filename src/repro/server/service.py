"""The threaded TCP server.

One :class:`Server` serves one :class:`~repro.schema.database.Database`.
Each accepted connection gets a session and a thread of its own, which
reads the connection's frames, runs its statements and writes the
responses.  Statements of different connections meet only at the engine
mutex (:class:`~repro.server.admission.EngineGate`): one is inside at a
time, the others wait at its door (``admission_wait``).

Admission control is explicit: connections beyond ``max_connections``
are answered with a single ``server_busy`` error frame and closed, so
the connection limit bounds both the threads and the statements in
flight.

Shutdown is graceful on SIGTERM (see ``__main__``) and on a client's
``\\shutdown``: the listener closes, in-flight statements finish, then
every connection is closed.

Telemetry: ``server_connections_total``, ``server_active_sessions``,
``server_requests_total{kind=...}``, ``server_rejected_total{reason=...}``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

from repro.errors import ProtocolError, ReplicationLinkError, ReproError
from repro.server import protocol
from repro.server.session import SessionManager


class Server:
    """A multi-client TCP front end over one database."""

    def __init__(self, db=None, host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 32, lock_timeout: float = 10.0,
                 health_ttl: float = 30.0, sync_replicas: int = 0,
                 sync_timeout: float = 5.0, drain_timeout: float = 10.0,
                 hub=None) -> None:
        if db is None:
            from repro.schema.database import Database

            db = Database(wal=True)
        self.db = db
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.sessions = SessionManager(db, lock_timeout=lock_timeout)
        #: WAL shipping: a WAL-backed database gets a ReplicationHub; a
        #: wal-less database cannot ship and serves without one.  A
        #: follower passes its own passive ``hub`` in instead.
        self.drain_timeout = drain_timeout
        self.hub = hub
        if self.hub is None and db.recovery.wal is not None:
            from repro.server.replog import ReplicationHub

            self.hub = ReplicationHub(db, sync_replicas=sync_replicas,
                                      sync_timeout=sync_timeout)
        self.sessions.hub = self.hub
        self.sessions.replication_status = self._replication_status
        metrics = db.telemetry.metrics
        self._m_connections = metrics.counter(
            "server_connections_total", "accepted client connections")
        self._m_requests = metrics.counter(
            "server_requests_total", "requests received, by kind")
        self._m_rejected = metrics.counter(
            "server_rejected_total", "work refused by admission control")
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self.started_at = 0.0
        self._started_mono = 0.0
        #: the doctor verdict is cached and refreshed at most once per
        #: ``health_ttl`` seconds (<= 0: only ever at start).  /health must
        #: not run the doctor per-scrape -- its page reads would pollute
        #: the buffer pool and change later queries' physical I/O -- but a
        #: verdict frozen at start would also never notice a database that
        #: turns unhealthy mid-run, so staleness is bounded instead.
        self.health_ttl = health_ttl
        self._doctor_clean: bool | None = None
        self._doctor_findings = 0
        self._doctor_at = 0.0
        self._doctor_clean_at_start: bool | None = None
        self._doctor_findings_at_start = 0
        #: non-blocking: concurrent scrapes serve the stale verdict while
        #: one refreshes
        self._doctor_refresh = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._mutex = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._mutex)
        self._stopping = threading.Event()
        self._drained = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        self.started_at = time.time()
        self._started_mono = time.perf_counter()
        self._run_doctor()
        self._doctor_clean_at_start = self._doctor_clean
        self._doctor_findings_at_start = self._doctor_findings
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True)
        self._accept_thread.start()
        return self

    def _run_doctor(self) -> None:
        """Run the doctor against a quiesced engine and cache its verdict.

        ``sessions.latch`` is the engine mutex: holding it waits out the
        statement inside the engine and keeps the next one out, so the
        doctor reads a *consistent* snapshot of pages and session state --
        no 2PL locks are taken, so this can never deadlock (statements
        acquire all their locks before admission, never inside)."""
        with self.sessions.latch:
            try:
                report = self.db.doctor()
                self._doctor_clean = report.healthy
                self._doctor_findings = len(report.findings)
            except ReproError:
                self._doctor_clean = False
        self._doctor_at = time.perf_counter()

    def _refresh_doctor(self) -> None:
        """Re-run the doctor when the cached verdict outlived the TTL.

        Non-blocking: if another thread is already refreshing, the caller
        serves the stale verdict rather than queueing behind the latch.
        """
        if self.health_ttl <= 0 or not self._started_mono:
            return
        if time.perf_counter() - self._doctor_at < self.health_ttl:
            return
        if not self._doctor_refresh.acquire(blocking=False):
            return
        try:
            if time.perf_counter() - self._doctor_at < self.health_ttl:
                return
            self._run_doctor()
        finally:
            self._doctor_refresh.release()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully drained."""
        return self._drained.wait(timeout)

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight statements,
        close every connection."""
        if self._stopping.is_set():
            self._drained.wait(30.0)
            return
        self._stopping.set()
        if self._listener is not None:
            # shutdown() (not just close()) wakes a thread blocked in
            # accept(); otherwise the kernel keeps the port listening
            # until one more connection arrives
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # let statements that are already running finish
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0, timeout=30.0)
        # flush the WAL tail to every live follower before the sockets
        # close: a clean primary exit must not strand acknowledged
        # statements on dead air (a timeout is loud, never silent)
        if self.hub is not None and self.hub.attached:
            flushed, laggards = self.hub.drain(timeout=self.drain_timeout)
            if not flushed:
                names = ", ".join(
                    f"{f['name']}#{f['id']} lag {f['lag']}" for f in laggards)
                print(
                    f"repro-server: shutdown drain timed out after "
                    f"{self.drain_timeout:.1f}s; followers still lagging: "
                    f"{names}", file=sys.stderr, flush=True)
        self.sessions.shutdown()
        with self._mutex:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._drained.set()

    def die(self) -> None:
        """Abrupt death -- the failover harness's power cut.

        No drain, no WAL-tail flush, no goodbye frames: the listener and
        every connection just vanish mid-stream, exactly like a killed
        process.  Followers must notice via heartbeat timeout."""
        self._stopping.set()
        sockets: list[socket.socket] = []
        if self._listener is not None:
            sockets.append(self._listener)
        with self._mutex:
            sockets.extend(self._conns)
            self._conns.clear()
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._drained.set()

    # -- accept loop -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: drain in progress
            if self._stopping.is_set():
                sock.close()
                return
            with self._mutex:
                full = len(self._conns) >= self.max_connections
                if not full:
                    self._conns.add(sock)
            if full:
                self._m_rejected.inc(reason="connections")
                try:
                    protocol.write_frame(sock, protocol.error_response(
                        0, ReproError(
                            f"connection limit ({self.max_connections}) "
                            f"reached"), code="server_busy"))
                except OSError:
                    pass
                sock.close()
                continue
            self._m_connections.inc()
            threading.Thread(target=self._serve_connection,
                             args=(sock, addr),
                             name=f"repro-conn-{addr[1]}", daemon=True).start()

    # -- per-connection ----------------------------------------------------

    def _serve_connection(self, sock: socket.socket, addr) -> None:
        session = self.sessions.open_session(name=f"{addr[0]}:{addr[1]}")
        try:
            protocol.write_frame(sock, protocol.handshake(session.id))
            while True:
                try:
                    request = protocol.read_frame(sock)
                except ProtocolError as exc:
                    # a damaged frame poisons the stream: report and close
                    try:
                        protocol.write_frame(
                            sock, protocol.error_response(0, exc))
                    except OSError:
                        pass
                    return
                if not self._handle_request(sock, session, request):
                    return
        except (ConnectionResetError, OSError):
            pass  # client went away (or drain closed the socket)
        finally:
            self.sessions.close_session(session)
            with self._mutex:
                self._conns.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _handle_request(self, sock, session, request: dict) -> bool:
        """Dispatch one request; False ends the connection."""
        request_id = request.get("id", 0)
        kind = request.get("kind", "")
        self._m_requests.inc(kind=kind or "unknown")
        if kind == "ping":
            protocol.write_frame(sock, protocol.ok_response(
                request_id, {"kind": "pong"}))
            return True
        if kind == "close":
            protocol.write_frame(sock, protocol.ok_response(
                request_id, {"kind": "ok", "detail": "bye"}))
            return False
        if kind == "stats":
            protocol.write_frame(sock, protocol.ok_response(
                request_id, {"kind": "stats", "stats": self.server_stats()}))
            return True
        if kind == "statements":
            protocol.write_frame(sock, protocol.ok_response(
                request_id, {"kind": "statements",
                             "statements": self.statement_stats()}))
            return True
        if kind == "cache":
            protocol.write_frame(sock, protocol.ok_response(
                request_id,
                {"kind": "cache", "cache": self.db.resultcache.snapshot()}))
            return True
        if kind == "shutdown":
            protocol.write_frame(sock, protocol.ok_response(
                request_id, {"kind": "text", "text": "server draining"}))
            threading.Thread(target=self.shutdown, daemon=True).start()
            return False
        if kind in ("repl_subscribe", "repl_fetch", "repl_status"):
            return self._handle_replication(sock, request_id, kind, request)
        if kind == "promote":
            return self._handle_promote(sock, request_id)
        if kind in ("statement", "meta"):
            self._run_on_session(sock, session, request_id, kind, request)
            return True
        protocol.write_frame(sock, protocol.error_response(
            request_id, ProtocolError(f"unknown request kind {kind!r}")))
        return True

    def _handle_replication(self, sock, request_id: int, kind: str,
                            request: dict) -> bool:
        """Serve a replication verb on the connection thread itself.

        These never touch engine state (the hub is its own lock domain),
        so they never take the engine mutex: a ``repl_fetch`` long-poll
        holds its own connection's thread and nothing else."""
        try:
            if self.hub is None:
                raise ReplicationLinkError(
                    "replication is not enabled on this server "
                    "(start it with a WAL-backed database)")
            if kind == "repl_subscribe":
                result = self.hub.subscribe(
                    str(request.get("follower", "") or ""),
                    int(request.get("after_lsn", 0)))
            elif kind == "repl_fetch":
                result = self.hub.fetch(
                    int(request.get("follower_id", 0)),
                    int(request.get("after_lsn", 0)),
                    int(request.get("applied_lsn", 0)),
                    max_entries=max(
                        1, min(int(request.get("max_entries", 256)), 1024)),
                    wait_s=max(0.0, min(
                        float(request.get("wait_s", 0.0) or 0.0), 30.0)))
            else:
                result = {"kind": "repl_status",
                          "replication": self._replication_status()}
        except (TypeError, ValueError) as exc:
            protocol.write_frame(sock, protocol.error_response(
                request_id, ProtocolError(f"bad replication request: {exc}")))
        except ReproError as exc:
            protocol.write_frame(
                sock, protocol.error_response(request_id, exc))
        else:
            protocol.write_frame(
                sock, protocol.ok_response(request_id, result))
        return True

    def _handle_promote(self, sock, request_id: int) -> bool:
        """Base servers are primaries already; ReplicaServer overrides."""
        protocol.write_frame(sock, protocol.error_response(
            request_id, ReplicationLinkError(
                "this server is not a replica; promote targets followers")))
        return True

    def _run_on_session(self, sock, session, request_id: int, kind: str,
                        request: dict) -> None:
        """Run a ``statement`` / ``meta`` request on this connection
        thread; the engine mutex inside the session is its only wait."""
        if self._stopping.is_set():
            protocol.write_frame(sock, protocol.error_response(
                request_id, ReproError("server is draining"),
                code="server_shutdown"))
            return
        with self._idle:
            self._inflight += 1
        try:
            try:
                if kind == "statement":
                    trace_id = request.get("trace_id")
                    if trace_id is not None and not isinstance(trace_id, str):
                        trace_id = str(trace_id)
                    result = session.run_statement(
                        request.get("statement", ""), trace_id=trace_id)
                else:
                    result = session.run_meta(
                        request.get("command", ""),
                        [str(a) for a in request.get("args") or []])
            except Exception as exc:  # ReproError, or an engine bug: report
                protocol.write_frame(
                    sock, protocol.error_response(request_id, exc))
            else:
                protocol.write_frame(
                    sock, protocol.ok_response(request_id, result))
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    # -- introspection -----------------------------------------------------

    def server_stats(self) -> dict:
        """One wire-safe snapshot for the ``stats`` verb and ``\\top``.

        Reads counters and plain attributes only -- no page I/O, no engine
        latch -- so a 1 Hz dashboard never perturbs query performance.
        """
        db = self.db
        metrics = db.telemetry.metrics
        telemetry = db.telemetry
        stats = db.stats
        with self._mutex:
            connections = len(self._conns)
        sessions = self.sessions.sessions()
        logical = stats.logical_reads
        hit_rate = (stats.buffer_hits / logical) if logical else 0.0
        wal = db.recovery.wal
        return {
            "address": list(self.address),
            "uptime_seconds": round(
                time.perf_counter() - self._started_mono, 3)
                if self._started_mono else 0.0,
            "started_at": round(self.started_at, 3),
            "connections": connections,
            "max_connections": self.max_connections,
            "active_sessions": metrics.value("server_active_sessions"),
            "connections_total": metrics.value("server_connections_total"),
            "requests_total": self._m_requests.total(),
            "statements_total": metrics.value(
                "server_requests_total", kind="statement"),
            "rejected_total": self._m_rejected.total(),
            "lock_waits_total": metrics.value("lock_waits_total"),
            "deadlocks_total": metrics.value("deadlocks_total"),
            "lock_timeouts_total": metrics.value("lock_timeouts_total"),
            "sets": len(db.catalog.sets),
            "io": {
                "physical_reads": stats.physical_reads,
                "physical_writes": stats.physical_writes,
                "logical_reads": logical,
                "buffer_hits": stats.buffer_hits,
                "hit_rate": round(hit_rate, 4),
                "evictions": stats.evictions,
            },
            "locks": {
                "waits_total": metrics.value("lock_waits_total"),
                "wait_seconds_total": round(
                    metrics.histogram("lock_wait_seconds").sum(), 6),
                "deadlocks_total": metrics.value("deadlocks_total"),
                "timeouts_total": metrics.value("lock_timeouts_total"),
                "hottest": self.sessions.locks.contention.top(5),
            },
            "wal": {
                "enabled": wal is not None,
                "needs_recovery": bool(wal is not None
                                       and wal.needs_recovery),
                "records": len(wal.records) if wal is not None else 0,
                "flushes": metrics.value("wal_flushes_total"),
            },
            "slow": {
                "total": metrics.value("slow_queries_total"),
                "threshold_ms": telemetry.slowlog.threshold_ms,
                "tail": telemetry.slowlog.tail(5),
                "grouped": telemetry.slowlog.grouped()[:5],
            },
            "statements": {
                "distinct": len(telemetry.statements),
                "evicted": telemetry.statements.evicted,
                "top": telemetry.statements.top(5, order_by="calls"),
            },
            "cache": db.resultcache.snapshot(),
            "ledger": db.monitor.ledger(),
            "replication": self._replication_status(),
            "waits": {
                **telemetry.waits.snapshot(),
                "admission_wait_seconds": round(metrics.histogram(
                    "admission_wait_seconds").sum(), 6),
                "admission_hold_seconds": round(metrics.value(
                    "admission_hold_seconds_total"), 6),
            },
            "sessions_detail": [s.info() for s in sessions],
        }

    def _replication_status(self) -> dict:
        """Topology snapshot for stats / ``\\replication`` / ``/replication``
        (ReplicaServer overrides with follower-side lag and link state)."""
        if self.hub is None:
            return {"role": "none"}
        return self.hub.status()

    def statement_stats(self) -> dict:
        """The ``statements`` verb / HTTP ``/statements`` document.

        Like :meth:`server_stats` this reads in-memory aggregates only --
        no page I/O, no engine latch.
        """
        return {
            "fingerprints": self.db.telemetry.statements.snapshot(),
            "ledger": self.db.monitor.ledger(),
        }

    def health(self) -> dict:
        """The /health document: liveness plus durability posture.

        The doctor verdict is cached and refreshed at most once per
        ``health_ttl`` seconds (so a database that becomes unhealthy
        mid-run flips to ``needs_recovery`` within one TTL), never
        per-scrape -- a scrape storm must not become a doctor storm.
        """
        self._refresh_doctor()
        wal = self.db.recovery.wal
        needs_recovery = bool(wal is not None and wal.needs_recovery)
        status = "ok"
        if needs_recovery or self._doctor_clean is False:
            status = "needs_recovery"
        elif self._stopping.is_set():
            status = "draining"
        return {
            "status": status,
            "uptime_seconds": round(
                time.perf_counter() - self._started_mono, 3)
                if self._started_mono else 0.0,
            "active_sessions":
                self.db.telemetry.metrics.value("server_active_sessions"),
            "wal": {
                "enabled": wal is not None,
                "needs_recovery": needs_recovery,
            },
            "doctor_clean": self._doctor_clean,
            "doctor_findings": self._doctor_findings,
            "doctor_age_seconds": round(
                time.perf_counter() - self._doctor_at, 3)
                if self._doctor_at else None,
            "health_ttl_seconds": self.health_ttl,
            "doctor_clean_at_start": self._doctor_clean_at_start,
            "doctor_findings_at_start": self._doctor_findings_at_start,
            "replication": self._replication_status(),
        }
