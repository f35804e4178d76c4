"""A small metrics registry: counters, gauges, and histograms.

Every engine component that does physically interesting work publishes
into one shared :class:`MetricsRegistry` (owned by the database's
:class:`~repro.telemetry.Telemetry`):

* the buffer pool: hits, misses, evictions, dirty write-backs;
* the simulated disk: physical reads/writes, page allocations;
* the replication manager: propagations, fan-out, link-object touches;
* the secondary (B+-tree / path) indexes: lookups, range scans, entry
  maintenance;
* the query runner: per-query I/O and row-count histograms.

Metrics support flat label sets (``counter.inc(kind="read")``) and render
both as a plain-text table (:meth:`MetricsRegistry.render_text`) and in
the Prometheus exposition format (:meth:`MetricsRegistry.render_prometheus`),
so a scrape endpoint or a test can consume the same numbers.

Components that can be constructed standalone (a bare ``BufferPool`` in a
unit test) default to :data:`NULL_METRICS`, a no-op registry with the same
surface.

Every metric carries its own small mutex: counters are bumped from the
statement inside the engine, from the lock manager and the connection
threads at once, and scraped meanwhile, so no increment may be lost.
The locks are leaves in the engine's lock hierarchy -- no metric
callback takes any other lock.

A component that already keeps a count as a plain field of its own --
the buffer pool and the simulated disk, whose fields change only on the
one thread inside the engine -- publishes it with :meth:`Counter.read_through`
/ :meth:`Gauge.read_through` instead: the series reads the field when it
is scraped, so the event itself pays no metric lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    if not labels:
        return ()  # the hot path: engine counters are bumped without labels
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition spec:
    backslash, double-quote, and newline must be backslash-escaped."""
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in key)
    return "{" + inner + "}"


class _BoundCounter:
    """One series of a :class:`Counter`, its label key resolved once.

    Holds no value of its own: ``inc`` adds into the parent's table under
    the parent's lock, so the series is the one ``inc(**labels)`` feeds.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: _LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: int | float = 1) -> None:
        values = self._counter._values
        with self._counter._lock:
            values[self._key] = values.get(self._key, 0) + amount


@dataclass
class _Family:
    """What counters and gauges share: a value per label set, some of
    them read at scrape time from their owner's own field."""

    name: str
    help: str = ""
    _values: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    #: label key -> [read, base]: a series rendered as ``read() - base``
    #: on top of whatever was added to it
    _reads: dict = field(default_factory=dict, repr=False, compare=False)

    def read_through(self, read, **labels) -> None:
        """Render the series for ``labels`` as ``read()``, called at
        scrape time, plus anything added to the series directly.  The
        owner keeps the count in a plain field and pays no metric lock
        per event; ``read`` must take no lock of its own.  One reader per
        series: a later call replaces the earlier one."""
        with self._lock:
            self._reads[_label_key(labels)] = [read, 0]

    def value(self, **labels) -> int | float:
        key = _label_key(labels)
        value = self._values.get(key, 0)
        source = self._reads.get(key)
        return value if source is None else value + source[0]() - source[1]

    def _current(self) -> dict:
        """Label key -> value, read-through series included (call under
        the lock)."""
        if not self._reads:
            return self._values
        values = dict(self._values)
        for key, (read, base) in self._reads.items():
            values[key] = values.get(key, 0) + read() - base
        return values

    def samples(self):
        with self._lock:
            items = sorted(self._current().items())
        for key, value in items:
            yield self.name + _render_labels(key), value


@dataclass
class Counter(_Family):
    """A monotonically increasing value, optionally split by labels."""

    _children: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def labels(self, **labels) -> _BoundCounter:
        """The series for one fixed label set, for callers that bump it
        often: ``labels(event="cpu").inc()`` is ``inc(event="cpu")``
        without building and sorting the label key on every call.  One
        child per label set, created on first request; the series itself
        appears in the output only once it has been incremented."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _BoundCounter(self, key)
        return child

    def total(self) -> int | float:
        """The sum across every label combination."""
        with self._lock:
            return sum(self._current().values())

    def reset(self) -> None:
        """Start again from zero.  Bound series stay bound, and a
        read-through series counts from what its reader returns now."""
        with self._lock:
            self._values.clear()
            for source in self._reads.values():
                source[1] = source[0]()


@dataclass
class Gauge(_Family):
    """A value that goes up and down (resident frames, live pages, ...)."""

    kind = "gauge"

    def set(self, value: int | float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: int | float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def set_max(self, value: int | float, **labels) -> None:
        """Ratchet: keep the largest value ever set (high-water marks)."""
        key = _label_key(labels)
        with self._lock:
            if value > self._values.get(key, 0):
                self._values[key] = value

    def reset(self) -> None:
        """Nothing to forget: a gauge is a level, not a record of events,
        and keeps it."""


#: bucket bounds suited to per-query page-I/O counts.
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


@dataclass
class Histogram:
    """A cumulative-bucket histogram in the Prometheus style."""

    name: str
    help: str = ""
    buckets: tuple = DEFAULT_BUCKETS
    _counts: dict = field(default_factory=dict)
    _sums: dict = field(default_factory=dict)
    _totals: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    kind = "histogram"

    def observe(self, value: int | float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.setdefault(key,
                                             [0] * (len(self.buckets) + 1))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            counts[-1] += 1  # the +Inf bucket
            self._sums[key] = self._sums.get(key, 0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels) -> int | float:
        return self._sums.get(_label_key(labels), 0)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()

    def samples(self):
        with self._lock:
            snap = [(key, list(self._counts[key]), self._sums[key],
                     self._totals[key]) for key in sorted(self._counts)]
        for key, counts, total_sum, total_count in snap:
            for bound, cumulative in zip(self.buckets, counts):
                labels = key + (("le", str(bound)),)
                yield f"{self.name}_bucket" + _render_labels(labels), cumulative
            yield (
                f"{self.name}_bucket" + _render_labels(key + (("le", "+Inf"),)),
                counts[-1],
            )
            yield f"{self.name}_sum" + _render_labels(key), total_sum
            yield f"{self.name}_count" + _render_labels(key), total_count


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, help_: str):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory(name, help_)
                    self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_: str = "") -> Counter:
        return self._get(name, Counter, help_)

    def gauge(self, name: str, help_: str = "") -> Gauge:
        return self._get(name, Gauge, help_)

    def histogram(self, name: str, help_: str = "",
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = Histogram(name, help_, buckets)
                    self._metrics[name] = metric
        return metric

    # -- convenience ---------------------------------------------------------

    def inc(self, name: str, amount: int | float = 1, **labels) -> None:
        self.counter(name).inc(amount, **labels)

    def observe(self, name: str, value: int | float, **labels) -> None:
        self.histogram(name).observe(value, **labels)

    def value(self, name: str, **labels) -> int | float:
        metric = self._metrics.get(name)
        return metric.value(**labels) if metric is not None else 0

    def metrics(self):
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every counter and histogram in place (a gauge keeps its
        level).  Registrations stay: components hold their metrics and
        bound series for life, so a registry that dropped them would
        never render their later counts."""
        for metric in self.metrics():
            metric.reset()

    # -- rendering -----------------------------------------------------------

    def render_text(self) -> str:
        """A plain fixed-width dump, one sample per line."""
        lines = []
        for metric in self.metrics():
            for sample_name, value in metric.samples():
                rendered = f"{value:.3f}".rstrip("0").rstrip(".") \
                    if isinstance(value, float) else str(value)
                lines.append(f"{sample_name:55s} {rendered}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


class _NullMetric:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()

    def inc(self, amount=1, **labels) -> None:
        pass

    def labels(self, **labels) -> "_NullMetric":
        return self

    def read_through(self, read, **labels) -> None:
        pass

    def set(self, value, **labels) -> None:
        pass

    def set_max(self, value, **labels) -> None:
        pass

    def observe(self, value, **labels) -> None:
        pass

    def value(self, **labels) -> int:
        return 0

    def total(self) -> int:
        return 0


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """Registry stand-in for components built without telemetry."""

    __slots__ = ()

    def counter(self, name: str, help_: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help_: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help_: str = "", buckets=DEFAULT_BUCKETS) -> _NullMetric:
        return _NULL_METRIC

    def inc(self, name: str, amount=1, **labels) -> None:
        pass

    def observe(self, name: str, value, **labels) -> None:
        pass

    def value(self, name: str, **labels) -> int:
        return 0

    def metrics(self) -> list:
        return []

    def reset(self) -> None:
        pass

    def render_text(self) -> str:
        return "(no metrics recorded)"

    def render_prometheus(self) -> str:
        return ""


NULL_METRICS = NullMetricsRegistry()
