"""Per-connection sessions.

A :class:`Session` is one client's state: its lock owner, its pending
transaction, its per-session trace log and statement statistics.  Its
statements run on the connection thread that read their frames; the
engine mutex below is the one place they wait for each other.

A session does not have a statement path of its own.  ``run_statement``
hands the text to the one lifecycle in :mod:`repro.query.runner` --
whose epilogue is the only place a statement is recorded -- and passes
*itself* as the isolation object: what an embedded caller leaves empty
(``control``, ``acquire``, ``admitted``, ``release``, ``commit_lsn``,
``await_quorum``) is what this module supplies, layered the way a real
DBMS layers it:

* **locks** (long-term, logical): the whole footprint of a statement is
  acquired before it runs -- shared schema lock first, so the catalog is
  stable while the plan-derived footprint is computed, then the data-set
  locks.  Autocommit statements release at statement end, whatever the
  statement raised; between ``begin`` and ``commit`` the session holds
  everything it touched (strict two-phase locking), which is what makes
  deadlock possible and the detector necessary;
* **admission** (short-term, physical): a statement whose footprint has
  been fully granted enters the engine mutex
  (:class:`~repro.server.admission.EngineGate`) and executes alone; the
  next granted statement waits for it to leave.  Maintenance (doctor
  refresh, replica apply, failover, test harnesses) takes the same
  mutex, so exactly one thread is ever inside the engine.

Tracing is **per statement, per session**: a traced statement gets its
own fresh :class:`~repro.telemetry.tracing.Tracer` (seeded with the
client-minted ``trace_id`` when one came over the wire), installed as a
*thread-local* engine tracer for the duration of the statement, so
concurrent sessions never share tracer state.  The span tree travels
back to the client in the result object.

Transactions group *isolation*, not durability: each statement commits
its own WAL scope, so ``commit`` releases locks while ``abort`` releases
them without undoing already-applied statements (documented limitation).

A served engine keeps its log bounded: after a statement, still inside
the engine mutex, the session checkpoints once the log holds
:data:`CHECKPOINT_LOG_MULTIPLE` times the database's data bytes (an
embedded database checkpoints only on DDL, snapshot save and recovery).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ParseError,
    ReproError,
)
from repro.query.analyze import render_analyze_report
from repro.query.executor import QueryResult
from repro.query.language import Delete, Replace
from repro.query.runner import (
    SCHEMA_SHARED,
    Statement,
    explain_text,
    run_statement,
    wire_io,
)
from repro.schema.parser import (
    _DDL_STARTERS,
    execute_ddl,
    strip_explain_analyze,
)
from repro.server.locks import (
    LockManager,
    ddl_footprint,
    maintenance_footprint,
)
from repro.server.admission import EngineGate
from repro.server.protocol import json_safe
from repro.telemetry.tracing import Tracer
from repro.telemetry.waitevents import NULL_WAITS, REPL_ACK

_QUERY_STARTERS = ("retrieve", "replace", "delete")

#: spans kept per session for ``\trace dump`` (oldest dropped first).
_TRACE_LOG_SPANS = 2000

#: a served engine checkpoints once its log holds this many times the
#: database's data bytes.  Each page's image is logged at most once
#: between two checkpoints, so the images are at most the data bytes --
#: no more than a quarter of the log at the trigger; the rest is redo
#: spans.  A larger multiple checkpoints less often and holds more log.
CHECKPOINT_LOG_MULTIPLE = 4


# ---------------------------------------------------------------------------
# meta commands that need only the database
# ---------------------------------------------------------------------------


def meta_text(db, command: str, args: list[str]) -> str | None:
    """The text of one database-level meta command -- the same for a
    served session and the embedded shell.  None for a command that is
    not one of these; the caller owns locking and the error wording."""
    if command == "describe":
        from repro.schema.describe import describe_database

        return describe_database(db) or "(empty schema)"
    if command == "stats":
        if args and args[0] == "prom":
            return db.telemetry.metrics.render_prometheus().rstrip("\n")
        stats = db.stats
        return "\n".join([
            f"physical reads {stats.physical_reads}, writes "
            f"{stats.physical_writes}, logical reads {stats.logical_reads}, "
            f"buffer hits {stats.buffer_hits}",
            f"evictions {stats.evictions}, "
            f"dirty writebacks {stats.dirty_writebacks}",
            db.telemetry.metrics.render_text(),
        ])
    if command == "monitor":
        return db.monitor.report()
    if command == "fingerprints":
        return db.telemetry.statements.render_text(
            cache_rates=db.resultcache.fingerprint_rates())
    if command == "cache":
        if args and args[0] == "clear":
            dropped = db.resultcache.invalidate_all(reason="all")
            return f"result cache cleared ({dropped} entries dropped)"
        return db.resultcache.render_text()
    if command == "ledger":
        return db.monitor.render_ledger()
    if command == "waits":
        return db.telemetry.waits.render_text()
    if command == "verify":
        db.verify()
        return "all replication invariants hold"
    if command == "doctor":
        report = db.doctor(repair=bool(args) and args[0] == "repair")
        return report.render()
    if command == "recover":
        if not db.recovery.needs_recovery:
            return "nothing to recover (no crash since the last recovery)"
        return str(db.recover())
    if command == "cold":
        db.cold_cache()
        return "buffer pool flushed and emptied"
    return None


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

#: value types a wire row carries as they are; anything else (an OID,
#: a tuple that JSON would send as an array) goes through ``json_safe``
_JSON_NATIVE = frozenset({str, int, float, bool, type(None)})


def serialize_result(result) -> dict:
    """A QueryResult as a wire-safe ``rows`` result object."""
    doc = {
        "kind": "rows",
        "columns": list(result.columns),
        "rows": [[v if type(v) in _JSON_NATIVE else json_safe(v)
                  for v in row] for row in result.rows],
        "plan": result.plan,
        "io": wire_io(result.io),
    }
    if result.cache is not None:
        doc["cache"] = result.cache
    return doc


class Session:
    """One client's server-side state, and the isolation object its
    statements pass to :func:`repro.query.runner.run_statement`."""

    root_span = "statement"

    def __init__(self, session_id: int, manager: "SessionManager",
                 name: str = "") -> None:
        self.id = session_id
        self.name = name or f"session-{session_id}"
        self.manager = manager
        self.db = manager.db
        self.owner = manager.locks.owner(self.name)
        #: trace every statement even without a client-minted trace_id
        self.trace = False
        #: per-session result-cache override; None means the served
        #: database's default applies (``\set cache on|off|default``)
        self.cache: bool | None = None
        self.in_txn = False
        #: read-your-writes guard: True once this open transaction has
        #: written (replace/delete/DDL) -- cached results predate those
        #: writes, so the cache neither serves nor fills until commit
        self._txn_wrote = False
        self.closed = False
        #: cumulative statement count / errors / last statement (for `stats`)
        self.statements = 0
        self.errors = 0
        self.last_statement = ""
        self.last_duration_ms = 0.0
        #: span dicts from this session's traced statements (``\trace dump``)
        self._trace_log: list[dict] = []
        #: cumulative per-event wait seconds across this session's life
        self.wait_totals: dict[str, float] = {}
        #: cumulative admission wait / execution occupancy seconds
        self.admission_wait_s = 0.0
        self.admission_hold_s = 0.0
        #: serializes this session's own statements: a served session's
        #: arrive on its one connection thread, but a caller sharing the
        #: object across threads must not run two under one lock owner
        self._mutex = threading.Lock()

    # -- statements ----------------------------------------------------------

    def run_statement(self, text: str, trace_id: str | None = None) -> dict:
        """Execute one statement; returns a wire result object.

        ``trace_id`` is the client-minted trace id from the request frame:
        when present (or when this session toggled ``\\trace on``) the
        statement runs under a fresh per-statement :class:`Tracer`,
        installed as this thread's engine tracer for the duration, and
        the result carries the span tree under ``result["trace"]``.
        ``explain analyze <query>`` is ``<query>`` run with per-operator
        accounting: same lifecycle, same cache entry, same fingerprint.
        A served retrieve writes no result file T: its rows leave in the
        wire frame, so it runs with ``materialize=False`` (the embedded
        default keeps T, the paper's C_generate/T term).

        Raises whatever the statement raised; the service maps ReproError
        subclasses to structured error frames.  Deadlock / lock-timeout
        errors abort the pending transaction (locks released) before
        propagating.
        """
        with self._mutex:
            body = text.strip().rstrip(";").strip()
            if not body:
                raise ParseError("empty statement")
            query, analyze = strip_explain_analyze(body)
            tracer = None
            if trace_id is not None or self.trace:
                tracer = Tracer(stats=self.db.stats, enabled=True,
                                trace_id=trace_id, session_id=self.id)
            # read-your-writes: inside an explicit transaction that has
            # written, every cached result predates this session's writes
            ctx = Statement(
                query, use_cache=self._cache_enabled(),
                bypass="txn_write" if self.in_txn and self._txn_wrote else "")
            try:
                with self.db.telemetry.tracer_scope(tracer):
                    result = run_statement(self.db, ctx, self,
                                           materialize=False,
                                           analyze=analyze)
                if self.in_txn and isinstance(ctx.stmt, (Replace, Delete)):
                    self._txn_wrote = True
            finally:
                self.statements += 1
                if ctx.outcome != "ok":
                    self.errors += 1
                self.last_statement = body
                self.last_duration_ms = ctx.duration_ms
                for event, seconds in ctx.waits.items():
                    self.wait_totals[event] = (
                        self.wait_totals.get(event, 0.0) + seconds)
                if tracer is not None:
                    self._trace_log.extend(s.to_dict() for s in tracer.spans)
                    del self._trace_log[:-_TRACE_LOG_SPANS]
            if isinstance(result, QueryResult) and analyze:
                result = {"kind": "text",
                          "text": render_analyze_report(result)}
            elif isinstance(result, QueryResult):
                result = serialize_result(result)
            if tracer is not None:
                root = tracer.spans[-1]
                root.set("kind", result.get("kind", ""))
                result = dict(result)
                result["trace"] = {"trace_id": root.trace_id,
                                   "spans": [s.to_dict() for s in tracer.spans]}
            return result

    def _cache_enabled(self) -> bool:
        """The effective cache switch: session override, else db default."""
        if self.cache is not None:
            return self.cache
        return self.db.resultcache.enabled

    # -- the isolation a served statement runs under -----------------------
    # (what repro.query.runner.NoIsolation leaves empty)

    def control(self, ctx: Statement) -> dict | None:
        """Transaction control, DDL and ``explain``; None for a query."""
        first = ctx.text.split(None, 1)[0].lower()
        guard = self.manager.access_guard
        if guard is not None:
            # a read replica admits reads (subject to its staleness bound)
            # and refuses writes with a stable error code the client can
            # route on; transaction control is isolation-only, so it passes
            if first in ("replace", "delete") or first in _DDL_STARTERS:
                guard("write")
            elif first in ("retrieve", "explain"):
                guard("read")
        if first in _QUERY_STARTERS:
            return None
        if first == "begin":
            if self.in_txn:
                raise ReproError("already in a transaction")
            self.in_txn = True
            return {"kind": "ok", "detail": "begin"}
        if first in ("commit", "abort", "rollback"):
            if not self.in_txn:
                raise ReproError("no transaction in progress")
            self._end_txn()
            return {"kind": "ok", "detail": "commit" if first == "commit" else
                    "abort (locks released; statements already applied "
                    "remain durable)"}
        if first == "explain":
            with self._isolated(ctx, SCHEMA_SHARED):
                return {"kind": "text", "text": explain_text(
                    self.db, ctx.source[len("explain"):].strip())}
        if first in _DDL_STARTERS:
            return self._ddl(ctx)
        raise ParseError(f"unrecognised statement: {ctx.source!r}")

    def acquire(self, ctx: Statement, footprint=None) -> None:
        """Acquire a footprint (default: the one ``ctx`` declares from
        its plan), recording a ``lock_acquire`` span when tracing and the
        per-resource wait shares for the slow log.  A deadlock or
        timeout victim ends its transaction: it must let go or the cycle
        never breaks."""
        if footprint is None:
            footprint = ctx.declare(self.db)
        tracer = self.db.telemetry.tracer
        try:
            with tracer.span("lock_acquire") as span:
                info = self.manager.locks.acquire(self.owner, footprint)
                if tracer.enabled:
                    span.set("resources", footprint.describe())
                    span.set("waited_ms", round(info.waited * 1000.0, 3))
                    if info.contended:
                        span.set("contended", info.wait_breakdown())
        except (DeadlockError, LockTimeoutError):
            self._end_txn()
            raise
        if info.waited:
            ctx.lock_waits.extend(info.wait_breakdown())

    @contextmanager
    def admitted(self):
        """Execute inside the engine mutex, alone.

        The footprint is already granted; admission waits only for
        whoever is inside the engine now (another statement, or a
        maintenance pass).  The wait feeds the ``admission_wait`` event
        and this session's ``admission_wait_s``; the time inside feeds
        ``admission_hold_s`` and the global counter.  The
        ``statement_admitted`` / ``statement_finishing`` fault-injector
        probes fire inside the mutex, so tests can observe
        deterministically that no two statements are ever inside at once.
        """
        waits = self.db.telemetry.waits
        gate = self.manager.latch
        started = time.perf_counter()
        gate.enter_shared()
        held_from = time.perf_counter()
        waited = held_from - started
        waits.admission_granted(waited)
        self.admission_wait_s += waited
        faults = self.db.faults
        try:
            # every page transfer inside the mutex is this statement's,
            # the due checkpoint's too: it is this statement's wall-clock
            with waits.buffer_io_share():
                faults.probe("statement_admitted")
                try:
                    yield
                finally:
                    faults.probe("statement_finishing")
                # between statements: this one is done, none other is inside
                self.manager.checkpoint_if_due()
        finally:
            gate.exit_shared()
            held = time.perf_counter() - held_from
            self.admission_hold_s += held
            waits.admission_released(held)

    def release(self) -> None:
        """Autocommit statements release at statement end; a transaction
        holds everything it touched until ``commit`` / ``abort``."""
        if not self.in_txn:
            self.manager.locks.release_all(self.owner)

    @contextmanager
    def _isolated(self, ctx: Statement, footprint):
        """acquire -> admit -> (the body) -> release, whatever the body
        raises: what a statement that is not a query runs under."""
        try:
            self.acquire(ctx, footprint)
            with self.admitted():
                yield
        finally:
            self.release()

    def commit_lsn(self) -> int:
        """The replication log's head LSN (0 without a hub).  Read inside
        the engine mutex, so the head is this statement's own entry."""
        hub = self.manager.hub
        return hub.log.last_lsn if hub is not None else 0

    def await_quorum(self, lsn: int) -> None:
        """Semi-synchronous commit: with ``sync_replicas=K`` the statement
        is only acknowledged once K followers have applied ``lsn``.

        Called after lock release -- a slow follower must never extend
        lock hold times, only the writer's own latency."""
        hub = self.manager.hub
        if hub is not None and lsn > 0 and hub.sync_replicas > 0:
            with self.db.telemetry.waits.wait(REPL_ACK):
                hub.wait_for_sync(lsn)

    # -- transactions and DDL ----------------------------------------------

    def _end_txn(self) -> None:
        self.in_txn = False
        self._txn_wrote = False
        self.manager.locks.release_all(self.owner)

    def _ddl(self, ctx: Statement) -> dict:
        metrics = self.db.telemetry.metrics
        # the exclusive schema lock quiesces every other statement, so
        # the global before/after deltas below are exact
        with self._isolated(ctx, ddl_footprint()):
            lsn_before = self.commit_lsn()
            wal_before = metrics.value("wal_bytes_total")
            try:
                execute_ddl(self.db, ctx.source)
            finally:
                ctx.wal_bytes = metrics.value("wal_bytes_total") - wal_before
            lsn = self.commit_lsn()
            if self.in_txn:
                self._txn_wrote = True
        self.await_quorum(lsn if lsn > lsn_before else 0)
        return {"kind": "ok", "detail": "ddl"}

    # -- meta commands -----------------------------------------------------

    def run_meta(self, command: str, args: list[str]) -> dict:
        """Server-side meta commands; returns a ``text`` result object."""
        with self._mutex:
            if command == "trace":
                text = self._meta_trace(args)
            elif command == "set":
                text = self._meta_set(args)
            elif command == "waits":
                # counters under the collector's own mutex -- no locks,
                # no admission, no page I/O
                text = self.db.telemetry.waits.render_text()
            else:
                guard = self.manager.access_guard
                if (guard is not None and command == "doctor"
                        and args[:1] == ["repair"]):
                    # the one meta that rewrites replicated pages: a
                    # follower's pages are the primary's WAL stream
                    guard("write")
                footprint = (maintenance_footprint() if command in
                             ("verify", "doctor", "recover", "cold")
                             else SCHEMA_SHARED)
                with self._isolated(Statement("\\" + command), footprint):
                    text = self._meta_text(command, args)
            return {"kind": "text", "text": text}

    def _meta_text(self, command: str, args: list[str]) -> str:
        if command == "replication":
            status_fn = self.manager.replication_status
            if status_fn is None:
                return "(replication not enabled: no server hub)"
            from repro.server.replog import render_status

            return render_status(status_fn())
        text = meta_text(self.db, command, args)
        if text is None:
            raise ReproError(f"unknown meta-command \\{command}")
        return text

    def _meta_trace(self, args: list[str]) -> str:
        """Per-session tracing: the dump shows only this session's spans."""
        import json

        mode = args[0] if args else "dump"
        if mode == "on":
            self.trace = True
            return "tracing on"
        if mode == "off":
            self.trace = False
            return "tracing off"
        if mode == "clear":
            self._trace_log.clear()
            return "trace cleared"
        if mode == "dump":
            if not self._trace_log:
                return "(no spans recorded)"
            return "\n".join(json.dumps(span) for span in self._trace_log)
        raise ReproError(f"unknown \\trace mode {mode!r} (on|off|clear|dump)")

    def _meta_set(self, args: list[str]) -> str:
        """``\\set cache on|off|default`` -- per-session cache override."""
        if not args or args[0] != "cache":
            raise ReproError("usage: \\set cache on|off|default")

        def _describe() -> str:
            effective = "on" if self._cache_enabled() else "off"
            source = ("session" if self.cache is not None
                      else "server default")
            return f"result cache {effective} ({source})"

        if len(args) < 2:
            return _describe()
        value = args[1]
        if value == "default":
            self.cache = None
        elif value in ("on", "off"):
            self.cache = value == "on"
        else:
            raise ReproError(
                f"cache must be 'on', 'off' or 'default', not {value!r}")
        return _describe()

    # -- introspection -----------------------------------------------------

    def info(self) -> dict:
        """One wire-safe row for the ``stats`` verb / ``\\top``."""
        top_wait, top_wait_s = "", 0.0
        # snapshot: a statement finishing concurrently mutates the dict
        for event, seconds in dict(self.wait_totals).items():
            if seconds > top_wait_s:
                top_wait, top_wait_s = event, seconds
        return {
            "id": self.id,
            "name": self.name,
            "in_txn": self.in_txn,
            "tracing": self.trace,
            "cache": "on" if self._cache_enabled() else "off",
            "statements": self.statements,
            "errors": self.errors,
            "last_statement": self.last_statement[:120],
            "last_duration_ms": round(self.last_duration_ms, 3),
            "top_wait": top_wait,
            "top_wait_ms": round(top_wait_s * 1000.0, 3),
            "admission_wait_ms": round(self.admission_wait_s * 1000.0, 3),
            "admission_hold_ms": round(self.admission_hold_s * 1000.0, 3),
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.in_txn = False
        self.manager.locks.forget(self.owner)


class SessionManager:
    """Owns the lock manager, the engine mutex and the set of live
    sessions of one served database."""

    def __init__(self, db, lock_timeout: float = 10.0) -> None:
        self.db = db
        metrics = db.telemetry.metrics
        waits = getattr(db.telemetry, "waits", NULL_WAITS)
        self.locks = LockManager(timeout=lock_timeout, metrics=metrics,
                                 waits=waits)
        #: the engine mutex: every statement runs inside it, one at a
        #: time; ``with sessions.latch:`` takes it for maintenance
        self.latch = EngineGate()
        #: the server's ReplicationHub (None when replication is off);
        #: sessions bracket statements with its log head for semi-sync acks
        self.hub = None
        #: callable(kind) raising on refused access -- a read replica
        #: installs one that rejects writes and stale reads
        self.access_guard = None
        #: callable() -> dict for the ``\replication`` meta command
        self.replication_status = None
        self._sessions: dict[int, Session] = {}
        self._ids = itertools.count(1)
        self._mutex = threading.Lock()
        self._m_active = metrics.gauge(
            "server_active_sessions", "currently open sessions")

    def open_session(self, name: str = "") -> Session:
        with self._mutex:
            session = Session(next(self._ids), self, name)
            self._sessions[session.id] = session
            self._m_active.inc()
            return session

    def close_session(self, session: Session) -> None:
        with self._mutex:
            if self._sessions.pop(session.id, None) is None:
                return
            self._m_active.inc(-1)
        session.close()

    def sessions(self) -> list[Session]:
        with self._mutex:
            return list(self._sessions.values())

    def checkpoint_if_due(self) -> None:
        """Checkpoint once the log holds more than
        :data:`CHECKPOINT_LOG_MULTIPLE` times the data bytes.  Called
        inside the engine mutex with no statement in flight."""
        wal = self.db.recovery.wal
        if (wal is not None and not wal.needs_recovery
                and not wal.in_statement and wal.log_bytes
                > CHECKPOINT_LOG_MULTIPLE * self.db.storage.disk.data_bytes()):
            self.db.checkpoint()

    def shutdown(self) -> None:
        """Close every session."""
        for session in self.sessions():
            self.close_session(session)
