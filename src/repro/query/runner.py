"""The statement lifecycle: one path from text to recorded result.

Every statement -- ``db.execute`` in a script or the shell, a served
session's ``run_statement``, a replica's read, a failover-harness step --
runs :func:`run_statement`, once, top to bottom: begin, control, cache
probe, parse, schema lock, plan, footprint, data locks, admit, execute,
cache fill, release, quorum wait, epilogue (``docs/ARCHITECTURE.md``
section 6 has the list; the reasons for the order sit beside the lines).
The plan the footprint is derived from is the plan that executes, and
the epilogue is the only place the wait ledger is closed, the
fingerprint statistics are fed and the slow-query log is written -- so a
statement is recorded exactly once, whatever path it took and however it
ended.

What differs between deployments is the *isolation object* the caller
passes: a :class:`NoIsolation` (embedded) has nobody to be isolated
from (no lock manager, no gate, no hub) and a served
:class:`~repro.server.session.Session` passes itself.  The lifecycle
never asks which one it got.

When the active tracer is enabled the root span (``query`` embedded,
``statement`` served) gets ``parse``, ``plan`` and ``execute`` children,
and the executed plan's per-operator statistics (tracing forces
``analyze=True``) are attached as operator spans under ``execute``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.query.analyze import OperatorStats
from repro.query.executor import (
    QueryResult,
    execute_delete,
    execute_retrieve,
    execute_update,
)
from repro.query.footprint import (
    SCHEMA_RESOURCE,
    LockFootprint,
    footprint_for_plan,
)
from repro.query.language import Delete, Replace, Retrieve, parse_statement
from repro.query.planner import plan_delete, plan_replace, plan_retrieve
from repro.schema.database import Database
from repro.storage.stats import IOSnapshot

SCHEMA_SHARED = LockFootprint(shared=frozenset({SCHEMA_RESOURCE}))
_NOTHING = nullcontext()


class Statement:
    """What one statement carries through :func:`run_statement`."""

    def __init__(self, source: str, use_cache: bool = False,
                 bypass: str = "") -> None:
        #: the text as written (what the parser sees) and collapsed to
        #: single spaces (the cache key, and what every recorder shows)
        self.source = source
        self.text = " ".join(source.split())
        #: whether a retrieve may be served from / fill the result cache,
        #: and the reason it must not although the cache is on
        self.use_cache = use_cache
        self.bypass = bypass
        self.stmt = None
        self.plan = None
        #: the declared footprint (None until someone asks for it)
        self.footprint: LockFootprint | None = None
        self.read_only = False
        self.wal_bytes = 0
        #: per-resource shares of the lock waits this statement sat out
        self.lock_waits: list[dict] = []
        self.outcome = "ok"
        #: a QueryResult, or the isolation object's reply to a control
        #: statement
        self.result = None
        self.duration_ms = 0.0
        #: the closed wait ledger: event -> seconds
        self.waits: dict[str, float] = {}

    def declare(self, db: Database) -> LockFootprint:
        """The statement's footprint, derived once from its plan."""
        if self.footprint is None:
            self.footprint = footprint_for_plan(db, self.plan)
        return self.footprint


class NoIsolation:
    """The isolation object of embedded execution: one caller, nobody to
    be isolated from, nobody to replicate to."""

    name = "embedded"
    root_span = "query"

    def __init__(self, waits) -> None:
        self._waits = waits

    def control(self, ctx: Statement):
        """Answer a statement only a session understands; None hands
        ``ctx`` to the query path (whose parser rejects the rest)."""
        return None

    def acquire(self, ctx: Statement, footprint=None) -> None:
        """Hold ``footprint`` (default: the one ``ctx`` declares)."""

    def admitted(self):
        """Context manager around the statement's use of the engine: its
        page transfers are its own."""
        return self._waits.buffer_io_share()

    def release(self) -> None:
        """Let go of what :meth:`acquire` took, unless a transaction
        keeps it."""

    def commit_lsn(self) -> int:
        """Where the replication log stands after a committed write."""
        return 0

    def await_quorum(self, lsn: int) -> None:
        """Block until enough followers have applied ``lsn``."""


def plan_statement(db: Database, stmt, materialize: bool = True):
    """Return ``(plan, executor_fn)`` for a parsed statement."""
    if isinstance(stmt, Retrieve):
        return plan_retrieve(db, stmt, materialize=materialize), execute_retrieve
    if isinstance(stmt, Replace):
        return plan_replace(db, stmt), execute_update
    if isinstance(stmt, Delete):
        return plan_delete(db, stmt), execute_delete
    raise TypeError(f"not a statement: {stmt!r}")


def execute_plan(db: Database, stmt, plan, run, analyze: bool = False,
                 read_only: bool = False) -> QueryResult:
    """Run a planned statement (``plan, run = plan_statement(db, stmt)``).

    The whole statement runs in one WAL statement scope, so a multi-row
    ``replace`` or ``delete`` is atomic as a unit (a replace's one
    ``db.update_many``, or each row's ``db.delete``, joins the enclosing
    scope); pure retrieves leave no trace in the log.

    ``read_only=True`` (a retrieve whose footprint is purely shared, i.e.
    provably WAL-free) skips the WAL statement scope entirely: no BEGIN
    append, no commit, no log mutex traffic -- reads scale without
    touching the log tail.  The crash-readiness check still applies.
    """
    tracer = db.telemetry.tracer
    traced = tracer.enabled
    if read_only:
        db.recovery.check_ready()
        scope = _NOTHING
    else:
        scope = db.recovery.statement(type(stmt).__name__.lower())
    with scope, tracer.span("execute") as span:
        result = run(db, plan, analyze=analyze or traced)
        if traced:
            span.set("plan", plan.explain())
            span.set("rows", len(result.rows))
            _emit_operator_spans(tracer, result.operators, span)
    metrics = db.telemetry.metrics
    metrics.observe("query_io_pages", result.io.total_io)
    metrics.observe("query_rows", len(result.rows))
    return result


def execute_statement(db: Database, stmt, materialize: bool = True,
                      analyze: bool = False) -> QueryResult:
    """Plan and run an already-parsed statement, unrecorded (no cache,
    no wait ledger, no statistics): the engine under the lifecycle."""
    with db.telemetry.tracer.span("plan"):
        plan, run = plan_statement(db, stmt, materialize)
    return execute_plan(db, stmt, plan, run, analyze=analyze)


def _emit_operator_spans(tracer, operators, parent) -> None:
    """Attach executed-operator statistics as retrospective spans."""
    if not operators:
        return
    for op in operators:
        span = tracer.record(
            op.name, {"detail": op.detail, "rows": op.rows}, op.io_dict(),
            parent=parent,
        )
        _emit_operator_spans(tracer, op.children, span)


def wire_io(io) -> dict:
    """An I/O snapshot as the wire / slow-log ``io`` object."""
    return {"reads": io.physical_reads, "writes": io.physical_writes,
            "total": io.total_io}


def serve_cached(entry, analyze: bool = False) -> QueryResult:
    """A :class:`QueryResult` from a live cache entry: the stored rows,
    a zero I/O snapshot (nothing moved), and -- under ANALYZE -- a single
    synthetic ``cache_hit`` operator instead of an executed tree."""
    operators = None
    if analyze:
        operators = (OperatorStats("cache_hit", f"[{entry.fingerprint}]",
                                   rows=len(entry.rows)),)
    return QueryResult(columns=entry.columns, rows=list(entry.rows),
                       io=IOSnapshot(), plan=entry.plan,
                       operators=operators, cache="hit")


def run_statement(db: Database, ctx: Statement, iso=None,
                  materialize: bool = True, analyze: bool = False):
    """Run ``ctx`` through the lifecycle and return its result (a
    ``QueryResult``, or ``iso``'s reply to a control statement); ``ctx``
    keeps what was measured on the way.  No ``iso`` runs it embedded."""
    telemetry = db.telemetry
    waits = telemetry.waits
    if iso is None:
        iso = NoIsolation(waits)
    tracer = telemetry.tracer
    cache = db.resultcache
    ledger = waits.begin_statement()
    started = time.perf_counter()
    try:
        with tracer.span(iso.root_span, statement=ctx.text) as root:
            # transaction control, DDL and plain ``explain`` exist only
            # where there are sessions: the isolation object answers them
            ctx.result = iso.control(ctx)
            if ctx.result is not None:
                return ctx.result
            cached = ctx.use_cache and ctx.text.startswith("retrieve ")
            entry = tag = None
            if cached and ctx.bypass:
                cache.bypass(ctx.bypass)
                cached, tag = False, "bypass"
            elif cached:
                entry = cache.get(ctx.text)  # lock-free probe
            lsn = 0
            try:
                if entry is not None:
                    # serve under full isolation: the entry's stored
                    # footprint (what planning would lock) is re-acquired
                    # shared and the entry revalidated *after* the grant --
                    # a writer that invalidated it since the probe flipped
                    # ``alive`` while holding its X-locks.  A dead entry
                    # falls through, keeping the shared locks.
                    iso.acquire(ctx, SCHEMA_SHARED)
                    iso.acquire(ctx, LockFootprint(shared=entry.footprint))
                    with iso.admitted():
                        if cache.hit(entry) is not None:
                            ctx.result = serve_cached(entry, analyze=analyze)
                if ctx.result is None:
                    with tracer.span("parse"):
                        ctx.stmt = parse_statement(ctx.source)
                    # schema lock first: the catalog is stable while the
                    # statement is planned and its footprint derived, and
                    # stays stable through execution
                    iso.acquire(ctx, SCHEMA_SHARED)
                    with tracer.span("plan"):
                        ctx.plan, run = plan_statement(db, ctx.stmt,
                                                       materialize)
                    # the footprint is declared when someone consumes it:
                    # the lock manager, or the cache
                    iso.acquire(ctx)
                    if cached:
                        ctx.declare(db)
                    # read_only is decided here and nowhere else: a
                    # retrieve whose declared footprint is purely shared
                    # cannot touch the WAL (a lazy refresh would be
                    # exclusive); an undeclared statement keeps its scope
                    ctx.read_only = (isinstance(ctx.stmt, Retrieve)
                                     and ctx.footprint is not None
                                     and not ctx.footprint.exclusive)
                    with iso.admitted():
                        try:
                            ctx.result = execute_plan(
                                db, ctx.stmt, ctx.plan, run, analyze=analyze,
                                read_only=ctx.read_only)
                        finally:
                            # the bytes of this thread's last WAL scope:
                            # this statement's, read inside the engine
                            if not ctx.read_only:
                                ctx.wal_bytes = (
                                    db.recovery.last_statement_wal_bytes())
                        # fill while the shared locks are still held: no
                        # writer can race the stored rows.  A read that
                        # drained a lazy path's queue wrote; serving it
                        # later would skip that.
                        if cached and ctx.footprint.exclusive:
                            cache.bypass("lazy_refresh")
                            tag = "bypass"
                        elif cached:
                            cache.miss(ctx.text)
                            cache.fill(ctx.text, ctx.result.columns,
                                       ctx.result.rows, ctx.result.plan,
                                       ctx.footprint.shared)
                            tag = "miss"
                        ctx.result.cache = tag
                        if (not ctx.read_only
                                and db.recovery.last_statement_lsn() > 0):
                            lsn = iso.commit_lsn()
            finally:
                iso.release()
            # after release: a slow follower extends the writer's latency,
            # never a lock hold time
            iso.await_quorum(lsn)
            root.set("plan", ctx.result.plan)
            root.set("rows", len(ctx.result.rows))
            return ctx.result
    except BaseException as exc:
        ctx.outcome = type(exc).__name__
        raise
    finally:
        ctx.duration_ms = (time.perf_counter() - started) * 1000.0
        ctx.waits = waits.finish_statement(ledger, ctx.duration_ms / 1000.0)
        plan, io, rows, tag = "", None, None, ""
        if isinstance(ctx.result, QueryResult):
            done = ctx.result
            plan, io, rows = done.plan, done.io, len(done.rows)
            tag = done.cache or ""
        lock_wait_ms = sum(w["waited_ms"] for w in ctx.lock_waits)
        fp = telemetry.statements.observe(
            ctx.text, ctx.duration_ms, io=io, rows=rows,
            lock_wait_ms=lock_wait_ms, wal_bytes=ctx.wal_bytes,
            outcome=ctx.outcome, waits=ctx.waits)
        slowlog = telemetry.slowlog
        if ctx.duration_ms >= slowlog.threshold_ms:
            slowlog.observe(
                statement=ctx.text, duration_ms=ctx.duration_ms, plan=plan,
                io=wire_io(io) if io is not None else {},
                lock_wait_ms=lock_wait_ms, lock_waits=ctx.lock_waits,
                session=iso.name, outcome=ctx.outcome, rows=rows,
                fingerprint=fp or "", cache=tag, waits=ctx.waits)


def execute_text(db: Database, text: str, materialize: bool = True,
                 analyze: bool = False) -> QueryResult:
    """Parse and run one statement of query-language text, embedded.

    When the database's result cache is enabled, a retrieve whose exact
    (whitespace-collapsed) text has a live entry is served straight from
    it -- no parse, no plan, no page I/O; executed retrieves fill the
    cache with their footprint so later writes can invalidate precisely.
    """
    ctx = Statement(text, use_cache=db.resultcache.enabled)
    return run_statement(db, ctx, materialize=materialize, analyze=analyze)


def explain_text(db: Database, text: str) -> str:
    """Plan (but do not run) a statement; returns the plan description."""
    return plan_statement(db, parse_statement(text))[0].explain()
