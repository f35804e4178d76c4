"""repro.telemetry: tracing, metrics, statement analytics and wait events.

One :class:`Telemetry` object per database bundles the observability
surfaces:

* :class:`~repro.telemetry.tracing.Tracer` -- structured per-query spans
  with I/O attribution, exported as JSONL;
* :class:`~repro.telemetry.metrics.MetricsRegistry` -- counters, gauges,
  and histograms fed by the buffer pool, disk, replication manager, and
  indexes, rendered plain or Prometheus-style;
* :class:`~repro.telemetry.slowlog.SlowQueryLog` -- a bounded ring of
  statements that crossed the latency threshold, with their plan, I/O,
  lock-wait breakdown, and outcome;
* :class:`~repro.telemetry.statstats.StatementStats` -- per-fingerprint
  statement aggregates (calls, rows, I/O, lock waits, WAL bytes, and a
  streaming latency histogram);
* :class:`~repro.telemetry.waitevents.WaitEventCollector` -- wait-event
  accounting (engine latch, locks, buffer I/O, WAL flush, quorum acks,
  cpu residual) attributing every second of statement wall-clock
  to a named wait.

Everything is off-or-cheap by default: tracing is opt-in and metric
increments are plain dict updates.  What each replication path served
and propagated is counted by the workload monitor (:mod:`repro.monitor`),
and model-vs-actual drift by the Section 6 workload simulator
(:mod:`repro.workloads.drift`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.statstats import StatementStats
from repro.telemetry.tracing import Span, Tracer
from repro.telemetry.waitevents import (
    NULL_WAITS,
    NullWaitCollector,
    WaitEventCollector,
)


class Telemetry:
    """The per-database observability bundle."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.waits = WaitEventCollector(metrics=self.metrics)
        self._tracer = Tracer()
        self._tracer_local = threading.local()
        self.slowlog = SlowQueryLog(metrics=self.metrics)
        self.statements = StatementStats(metrics=self.metrics)
        # Pre-register the query histograms so their help text is set
        # before the runner's get-or-create observe() calls.
        self.metrics.histogram("query_io_pages",
                               "physical page I/O per executed statement")
        self.metrics.histogram("query_rows",
                               "rows returned per executed statement")

    @property
    def tracer(self) -> Tracer:
        """The active tracer: a thread-local override when a served
        statement is executing under :meth:`tracer_scope`, else the
        database-wide tracer.  Statements on different connection
        threads therefore trace into private span lists with no
        cross-talk."""
        override = getattr(self._tracer_local, "tracer", None)
        return override if override is not None else self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer

    @contextmanager
    def tracer_scope(self, tracer: Tracer):
        """Route this thread's spans into ``tracer`` for the duration."""
        previous = getattr(self._tracer_local, "tracer", None)
        self._tracer_local.tracer = tracer
        try:
            yield tracer
        finally:
            self._tracer_local.tracer = previous

    def attach_stats(self, stats) -> None:
        """Bind the engine's shared IOStatistics (for span I/O deltas)."""
        self._tracer.stats = stats

    def reset(self) -> None:
        """Forget everything recorded so far (tracing stays on/off as is)."""
        self.metrics.reset()
        self.tracer.clear()
        self.slowlog.clear()
        self.statements.clear()
        self.waits.reset()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_WAITS",
    "NullMetricsRegistry",
    "NullWaitCollector",
    "SlowQueryLog",
    "StatementStats",
    "Span",
    "Telemetry",
    "Tracer",
    "WaitEventCollector",
]
