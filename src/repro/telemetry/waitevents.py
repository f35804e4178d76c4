"""Wait-event accounting: where statements spend their time.

Every second of a statement's wall-clock time is attributed to
exactly one *wait event* -- the Oracle / Postgres ``pg_stat_activity``
taxonomy adapted to this engine's actual blocking points:

* ``admission_wait``   -- waiting for the engine mutex: the statement
  (or maintenance pass) inside the engine to finish;
* ``lock:<resource>``  -- waiting in the 2PL lock manager, attributed
  per contended resource (a multi-resource wait splits its time evenly
  across the resources that actually blocked it);
* ``buffer_io``        -- a buffer-pool miss, read-ahead or dirty
  write-back moving a page between the pool and the (simulated) disk;
* ``wal_flush``        -- forcing the write-ahead log;
* ``repl_ack``         -- a semi-synchronous writer waiting for its
  follower quorum;
* ``cpu``              -- the residual: statement wall time not covered
  by any measured wait.  Per statement ``cpu`` is computed as
  ``execution wall - sum(measured waits)``, so the breakdown always
  sums to the statement's wall-clock time -- attribution is complete by
  construction.  A served statement runs on the connection thread that
  read its frame, so no queue sits between the frame and the ledger.

The :class:`WaitEventCollector` is the cheap enter/exit layer the
engine is threaded with.  Accumulation has two independent sinks:

* **global counters** -- ``wait_seconds_total{event=...}`` and
  ``wait_events_total{event=...}`` in the shared metrics registry, plus
  the ``admission_wait_seconds`` histogram; always fed, even for
  engine work outside any statement (embedded execution, recovery);
* **the active statement context** -- a ``threading.local`` slot the
  statement lifecycle installs around every statement, embedded or
  served; engine code deep in the stack (buffer pool, WAL, lock manager)
  records into it without any plumbing, and the lifecycle's epilogue
  folds the finished breakdown into the per-fingerprint statement
  statistics and the slow-query log (a session adds it to its own
  totals).

``buffer_io`` is the exception to the enter/exit layer: a page transfer
is a few microseconds of simulated disk, so the buffer pool times it
with two clock reads into a tally of its own (``io_seconds`` /
``io_transfers``) and records nothing per transfer.  The global sinks
read that tally when they are read (:meth:`WaitEventCollector.attach_buffer_io`),
and a statement's ledger gets the transfers made while it held the
engine (:meth:`WaitEventCollector.buffer_io_share`); transfers made
while the collector is disabled are left out of both.

Everything is observer-neutral: recording is perf_counter arithmetic
and dict updates -- no page I/O, no engine latch -- and the collector
can be disabled wholesale (``enabled = False``) for overhead A/B runs.
Components constructed standalone default to :data:`NULL_WAITS`, a
no-op with the same surface.
"""

from __future__ import annotations

import threading
import time

from repro.telemetry.metrics import NULL_METRICS

ADMISSION_WAIT = "admission_wait"
BUFFER_IO = "buffer_io"
WAL_FLUSH = "wal_flush"
REPL_ACK = "repl_ack"
CPU = "cpu"
#: lock waits are per-resource: ``lock:Emp1``, ``lock:__schema``, ...
LOCK_PREFIX = "lock:"

#: admission wait histogram bounds (seconds): admission is normally
#: uncontended (microseconds), but behind a long statement or a doctor
#: pass waits reach tens of milliseconds -- the buckets must resolve both.
LATCH_WAIT_BUCKETS = (0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01,
                      0.05, 0.1, 0.5, 1.0)


def base_event(event: str) -> str:
    """Collapse ``lock:<resource>`` to ``lock``; other events pass through."""
    return "lock" if event.startswith(LOCK_PREFIX) else event


class StatementWaitContext:
    """The wait ledger of one in-flight statement."""

    __slots__ = ("waits",)

    def __init__(self) -> None:
        #: event -> [seconds, count]
        self.waits: dict[str, list] = {}

    def add(self, event: str, seconds: float, count: int = 1) -> None:
        slot = self.waits.get(event)
        if slot is None:
            self.waits[event] = [seconds, count]
        else:
            slot[0] += seconds
            slot[1] += count


class _Waiting:
    """``with collector.wait(event):`` -- time a blocking call and record
    it."""

    __slots__ = ("_collector", "_event", "_started")

    def __init__(self, collector: "WaitEventCollector", event: str) -> None:
        self._collector = collector
        self._event = event

    def __enter__(self) -> "_Waiting":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._collector.record(self._event,
                               time.perf_counter() - self._started)


class _BufferIOShare:
    """``with collector.buffer_io_share():`` -- add the buffer pool's
    transfers inside the block to one statement ledger."""

    __slots__ = ("_ctx", "_pool", "_seconds", "_transfers")

    def __init__(self, ctx: StatementWaitContext, pool) -> None:
        self._ctx = ctx
        self._pool = pool

    def __enter__(self) -> "_BufferIOShare":
        self._seconds = self._pool.io_seconds
        self._transfers = self._pool.io_transfers
        return self

    def __exit__(self, *exc) -> None:
        transfers = self._pool.io_transfers - self._transfers
        if transfers:
            self._ctx.add(BUFFER_IO, self._pool.io_seconds - self._seconds,
                          transfers)


class _NullWaiting:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_WAITING = _NullWaiting()


class WaitEventCollector:
    """Per-process wait accounting: global totals + per-statement ledger."""

    def __init__(self, metrics=None) -> None:
        metrics = metrics if metrics is not None else NULL_METRICS
        self._enabled = True
        self._local = threading.local()
        self._mutex = threading.Lock()
        #: event -> [seconds, count] (global, survives statement ends)
        self._totals: dict[str, list] = {}
        #: statement wall-clock accounted so far: the denominator of
        #: every attribution share.
        self.statement_seconds = 0.0
        self.statements_finished = 0
        self._m_wait_seconds = metrics.counter(
            "wait_seconds_total", "time waited, by wait event")
        self._m_wait_events = metrics.counter(
            "wait_events_total", "wait occurrences, by wait event")
        #: event -> that event's (seconds, occurrences) series of the two
        #: counters above, resolved on the event's first wait
        self._series: dict[str, tuple] = {}
        #: the buffer pool whose transfer tally is ``buffer_io``
        self._pool = None
        #: (paused, skipped): the tally when the collector was disabled
        #: (None while enabled), and the (seconds, transfers) made while
        #: it was -- one tuple, so a lock-free reader sees both at once
        self._pool_state: tuple = (None, (0.0, 0))
        #: :meth:`_pool_io` at the last reset
        self._pool_base = (0.0, 0)
        self._m_latch_wait = metrics.histogram(
            "admission_wait_seconds",
            "time spent waiting for statement admission",
            buckets=LATCH_WAIT_BUCKETS)
        self._m_latch_hold = metrics.counter(
            "admission_hold_seconds_total",
            "time statements spent admitted (holding an execution slot)")

    @property
    def enabled(self) -> bool:
        """Flipping this off makes every hook a near-no-op (A/B benches);
        the pool's transfers made while it is off are not counted."""
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        with self._mutex:
            pool = self._pool
            if pool is not None and on != self._enabled:
                paused, skipped = self._pool_state
                if on:
                    self._pool_state = (None, (
                        skipped[0] + pool.io_seconds - paused[0],
                        skipped[1] + pool.io_transfers - paused[1]))
                else:
                    self._pool_state = (
                        (pool.io_seconds, pool.io_transfers), skipped)
            self._enabled = on

    # -- statement scope ---------------------------------------------------

    def begin_statement(self) -> StatementWaitContext | None:
        """Install a wait ledger for the statement this thread is about
        to run; returns None when the collector is disabled."""
        if not self.enabled:
            return None
        ctx = self._local.ctx = StatementWaitContext()
        return ctx

    def finish_statement(self, ctx: StatementWaitContext | None,
                         duration_s: float) -> dict[str, float]:
        """Close the ledger; returns the per-event breakdown in seconds.

        ``duration_s`` is the statement's execution wall time; the
        ``cpu`` residual tops the breakdown up so it sums to that wall.
        """
        if ctx is None:
            return {}
        self._local.ctx = None
        breakdown = {event: slot[0] for event, slot in ctx.waits.items()}
        cpu = max(0.0, duration_s - sum(breakdown.values()))
        breakdown[CPU] = cpu
        self._count(CPU, cpu, 1)
        with self._mutex:
            self.statement_seconds += duration_s
            self.statements_finished += 1
        return breakdown

    def _active_ctx(self) -> StatementWaitContext | None:
        return getattr(self._local, "ctx", None)

    def attach_buffer_io(self, pool) -> None:
        """Take ``buffer_io`` from ``pool``'s transfer tally: the two
        ``wait_*_total{event="buffer_io"}`` series and :meth:`totals`
        read it when they are read, on top of anything :meth:`record`
        adds."""
        with self._mutex:
            # what the pool moved before it was attached is not ours
            now = (pool.io_seconds, pool.io_transfers)
            self._pool = pool
            self._pool_state = (None if self._enabled else now, now)
            self._pool_base = (0.0, 0)
        self._m_wait_seconds.read_through(lambda: self._pool_io()[0],
                                          event=BUFFER_IO)
        self._m_wait_events.read_through(lambda: self._pool_io()[1],
                                         event=BUFFER_IO)

    def _pool_io(self) -> tuple[float, int]:
        """The attached pool's (seconds, transfers) made while the
        collector was enabled."""
        pool = self._pool
        if pool is None:
            return 0.0, 0
        paused, skipped = self._pool_state
        seconds, transfers = paused or (pool.io_seconds, pool.io_transfers)
        return seconds - skipped[0], transfers - skipped[1]

    def buffer_io_share(self):
        """Context manager around a statement's use of the engine (inside
        the engine mutex, where no other statement's transfers happen):
        the pool transfers made inside it go to this thread's statement
        ledger.  Transfers outside every share -- an explicit checkpoint,
        the doctor, a follower applying the stream -- reach the global
        totals only."""
        ctx = self._active_ctx()
        if ctx is None or self._pool is None or not self._enabled:
            return _NULL_WAITING
        return _BufferIOShare(ctx, self._pool)

    # -- recording ---------------------------------------------------------

    def record(self, event: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of wait to ``event``: global counters
        always, plus this thread's active statement ledger if any."""
        if not self.enabled:
            return
        self._count(event, seconds, count)
        ctx = self._active_ctx()
        if ctx is not None:
            ctx.add(event, seconds, count)

    def wait(self, event: str):
        """Context manager timing a blocking call as one wait event."""
        if not self.enabled:
            return _NULL_WAITING
        return _Waiting(self, event)

    def admission_granted(self, waited_s: float) -> None:
        """One statement admitted: histogram + wait attribution."""
        if not self.enabled:
            return
        self._m_latch_wait.observe(waited_s)
        self.record(ADMISSION_WAIT, waited_s)

    def admission_released(self, held_s: float) -> None:
        """One statement left the engine: cumulative occupancy counter."""
        if self.enabled:
            self._m_latch_hold.inc(held_s)

    def _count(self, event: str, seconds: float, count: int) -> None:
        """Add to the global sinks: the totals table and the two metric
        series of ``event``."""
        with self._mutex:
            slot = self._totals.get(event)
            if slot is None:
                self._totals[event] = [seconds, count]
            else:
                slot[0] += seconds
                slot[1] += count
        series = self._series.get(event)
        if series is None:
            # two threads may both get here: labels() hands both the same
            # children, so either assignment is the right one
            series = self._series[event] = (
                self._m_wait_seconds.labels(event=event),
                self._m_wait_events.labels(event=event))
        series[0].inc(seconds)
        series[1].inc(count)

    # -- reading -----------------------------------------------------------

    def _slots(self) -> dict[str, list]:
        """event -> [seconds, count]: what was recorded, plus the pool's
        transfers since the last reset (call under the mutex)."""
        seconds, transfers = self._pool_io()
        transfers -= self._pool_base[1]
        if not transfers:
            return self._totals
        slots = dict(self._totals)
        recorded = slots.get(BUFFER_IO, (0.0, 0))
        slots[BUFFER_IO] = [recorded[0] + seconds - self._pool_base[0],
                            recorded[1] + transfers]
        return slots

    def totals(self) -> list[dict]:
        """Cumulative per-event totals, largest first, with shares of the
        accounted statement wall-clock."""
        with self._mutex:
            rows = [{"event": event, "seconds": round(slot[0], 6),
                     "count": slot[1]}
                    for event, slot in self._slots().items()]
            accounted = self.statement_seconds
        rows.sort(key=lambda r: (-r["seconds"], r["event"]))
        for row in rows:
            row["share"] = round(row["seconds"] / accounted, 4) \
                if accounted else 0.0
        return rows

    def total_for(self, event: str) -> float:
        with self._mutex:
            slot = self._slots().get(event)
            return slot[0] if slot is not None else 0.0

    def lock_wait_seconds(self) -> float:
        """Cumulative seconds across every ``lock:<resource>`` event."""
        with self._mutex:
            return sum(slot[0] for event, slot in self._totals.items()
                       if event.startswith(LOCK_PREFIX))

    def snapshot(self) -> dict:
        """The wire/HTTP document: totals plus attribution coverage."""
        rows = self.totals()
        attributed = sum(r["seconds"] for r in rows)
        with self._mutex:
            accounted = self.statement_seconds
            finished = self.statements_finished
        return {
            "enabled": self.enabled,
            "statement_seconds": round(accounted, 6),
            "statements": finished,
            "attributed_seconds": round(attributed, 6),
            "coverage": round(attributed / accounted, 4) if accounted else 0.0,
            "events": rows,
        }

    def render_text(self) -> str:
        """The ``\\waits`` table: event, share, total, count."""
        rows = self.totals()
        if not rows:
            return "(no waits recorded)"
        lines = [f"{'share':>7} {'seconds':>12} {'count':>9}  event"]
        for r in rows:
            lines.append(f"{r['share'] * 100:6.1f}% {r['seconds']:12.6f} "
                         f"{r['count']:9d}  {r['event']}")
        with self._mutex:
            accounted = self.statement_seconds
            finished = self.statements_finished
        lines.append(f"(accounted statement wall-clock "
                     f"{accounted:.6f}s over {finished} statement(s))")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._mutex:
            self._totals.clear()
            self.statement_seconds = 0.0
            self.statements_finished = 0
            self._pool_base = self._pool_io()


class NullWaitCollector:
    """Collector stand-in for components built without telemetry."""

    __slots__ = ()

    enabled = False

    def begin_statement(self):
        return None

    def finish_statement(self, ctx, duration_s) -> dict:
        return {}

    def record(self, event, seconds, count=1) -> None:
        pass

    def wait(self, event):
        return _NULL_WAITING

    def buffer_io_share(self):
        return _NULL_WAITING

    def admission_granted(self, waited_s) -> None:
        pass

    def admission_released(self, held_s) -> None:
        pass

    def totals(self) -> list:
        return []

    def total_for(self, event) -> float:
        return 0.0

    def lock_wait_seconds(self) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"enabled": False, "statement_seconds": 0.0, "statements": 0,
                "attributed_seconds": 0.0, "coverage": 0.0, "events": []}

    def render_text(self) -> str:
        return "(wait events not collected)"

    def reset(self) -> None:
        pass


NULL_WAITS = NullWaitCollector()
