"""Structured per-query tracing with I/O attribution.

A :class:`Tracer` records a tree of :class:`Span` objects per traced
query: ``query -> parse / plan / execute -> scan / functional_join /
replica_read / ... `` plus engine-side spans (``update_propagation``,
``link_maintenance``).  Every span carries the physical/logical I/O that
happened while it was open, read straight off the engine's shared
:class:`~repro.storage.stats.IOStatistics`, so a trace decomposes a
query's cost exactly the way the paper's cost terms do -- but measured,
not modelled.

Tracing is off by default; disabled, :meth:`Tracer.span` hands every
caller the same do-nothing :data:`NULL_SPAN`, so call sites are written
once -- ``with tracer.span(...) as span:`` -- and not once per
traced/untraced.  Enabled, spans are kept in memory in completion order
and exported as JSON-lines via :meth:`Tracer.to_jsonl` /
:meth:`Tracer.export`.

Two kinds of spans exist:

* **live spans** (:meth:`Tracer.span`): a context manager that measures
  wall-clock time and I/O between enter and exit;
* **recorded spans** (:meth:`Tracer.record`): pre-aggregated operator
  statistics (from EXPLAIN ANALYZE's meter) attached retroactively under
  the currently open span, so per-row operators do not pay per-row span
  overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_IO_FIELDS = (
    "physical_reads",
    "physical_writes",
    "logical_reads",
    "buffer_hits",
    "evictions",
    "dirty_writebacks",
)


@dataclass
class Span:
    """One timed, I/O-attributed region of work."""

    trace_id: int | str
    span_id: int
    parent_id: int | None
    name: str
    attrs: dict = field(default_factory=dict)
    duration_ms: float = 0.0
    #: wall-clock open time (epoch seconds) -- ``duration_ms`` stays on
    #: ``perf_counter``, but spans from different processes need a shared
    #: clock to be ordered into one tree.
    start_ts: float = 0.0
    io: dict = field(default_factory=dict)
    #: I/O charged to child spans; ``self_io()`` subtracts it.
    child_io: dict = field(default_factory=dict)

    def set(self, key: str, value) -> None:
        """Attach an attribute to the span."""
        self.attrs[key] = value

    @property
    def total_io(self) -> int:
        return self.io.get("physical_reads", 0) + self.io.get("physical_writes", 0)

    def self_io(self) -> dict:
        """This span's I/O minus what its children already account for."""
        return {
            name: self.io.get(name, 0) - self.child_io.get(name, 0)
            for name in _IO_FIELDS
        }

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start_ts": round(self.start_ts, 6),
            "duration_ms": round(self.duration_ms, 3),
            "io": self.io,
            "self_io": self.self_io(),
        }


class _NullSpan:
    """What a disabled tracer's ``span()`` returns: it measures nothing
    and ``set`` drops its argument."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one database instance (or one server session).

    ``trace_id`` pins every root span to an externally minted id (the
    client's, in cross-process propagation) instead of the local counter;
    ``session_id`` is stamped into every span's attributes so spans from
    concurrent sessions remain attributable after they are merged.
    """

    def __init__(self, stats=None, enabled: bool = False,
                 trace_id: int | str | None = None,
                 session_id: int | None = None) -> None:
        #: the engine's shared IOStatistics (bound by Telemetry).
        self.stats = stats
        self.enabled = enabled
        self.trace_id = trace_id
        self.session_id = session_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all finished spans (open spans keep recording)."""
        self.spans.clear()

    # -- span creation -------------------------------------------------------

    def _read_io(self) -> dict:
        stats = self.stats
        if stats is None:
            return dict.fromkeys(_IO_FIELDS, 0)
        return {name: getattr(stats, name) for name in _IO_FIELDS}

    def span(self, name: str, **attrs):
        """Open a live span (a context manager yielding it for attribute
        updates); :data:`NULL_SPAN` when tracing is off."""
        if not self.enabled:
            return NULL_SPAN
        return self._live_span(name, attrs)

    @contextmanager
    def _live_span(self, name: str, attrs: dict):
        if self._stack:
            trace_id = self._stack[-1].trace_id
        elif self.trace_id is not None:
            trace_id = self.trace_id
        else:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
        if self.session_id is not None:
            attrs.setdefault("session_id", self.session_id)
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            attrs=attrs,
            start_ts=time.time(),
        )
        self._next_span_id += 1
        before = self._read_io()
        started = time.perf_counter()
        self._stack.append(span)
        try:
            yield span
        finally:
            span.duration_ms = (time.perf_counter() - started) * 1000.0
            after = self._read_io()
            span.io = {key: after[key] - before[key] for key in _IO_FIELDS}
            self._stack.pop()
            if self._stack:
                parent = self._stack[-1]
                for key, value in span.io.items():
                    parent.child_io[key] = parent.child_io.get(key, 0) + value
            self.spans.append(span)

    def record(self, name: str, attrs: dict | None = None,
               io: dict | None = None, parent: Span | None = None,
               duration_ms: float = 0.0,
               start_ts: float | None = None) -> Span:
        """Attach a pre-aggregated span (e.g. one EXPLAIN ANALYZE operator).

        The span is parented under ``parent`` (default: the innermost open
        span) and its I/O is *not* rolled into the parent's ``child_io`` --
        recorded operators describe work the enclosing live span already
        measured.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            trace_id = parent.trace_id
        elif self.trace_id is not None:
            trace_id = self.trace_id
        else:
            trace_id = self._next_trace_id
        attrs = dict(attrs or {})
        if self.session_id is not None:
            attrs.setdefault("session_id", self.session_id)
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            attrs=attrs,
            duration_ms=duration_ms,
            # retrospective spans are recorded at their *end*: back-date
            start_ts=(time.time() - duration_ms / 1000.0)
            if start_ts is None else start_ts,
            io={key: (io or {}).get(key, 0) for key in _IO_FIELDS},
        )
        self._next_span_id += 1
        if parent is None and self.trace_id is None:
            self._next_trace_id += 1
        self.spans.append(span)
        return span

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All finished spans, one JSON object per line."""
        return "\n".join(json.dumps(span.to_dict()) for span in self.spans)

    def export(self, path) -> int:
        """Write the JSONL trace to ``path``; returns spans written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return len(self.spans)

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name, in completion order."""
        return [span for span in self.spans if span.name == name]
