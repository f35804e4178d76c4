"""Prometheus text-exposition conformance for ``render_prometheus``.

The scrape endpoint is only useful if real Prometheus ingests it, so the
format rules are pinned here: cumulative ``_bucket`` series ending in a
``+Inf`` bucket equal to ``_count``, a ``_sum``/``_count`` pair per label
set, ``# HELP`` before ``# TYPE`` before the samples of each metric, and
backslash-escaped label values.
"""

import math
import re

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.statstats import LATENCY_BUCKETS_MS, StatementStats

_SAMPLE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                        r"(?:\{(?P<labels>.*)\})? (?P<value>\S+)$")
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
                       r'"(?P<value>(?:[^"\\]|\\.)*)"(?:,|$)')


def parse_exposition(text: str):
    """Parse the text format into (samples, helps, types, lines).

    samples: list of (metric name, {label: unescaped value}, float value).
    """
    samples, helps, types = [], {}, {}
    lines = text.splitlines()
    for line in lines:
        if not line:
            continue
        if line.startswith("# HELP "):
            name, help_text = line[len("# HELP "):].split(" ", 1)
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ", 1)
            types[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        labels = {}
        raw = match.group("labels")
        if raw:
            consumed = sum(len(m.group(0)) for m in _LABEL_RE.finditer(raw))
            assert consumed == len(raw), f"unparseable label set: {raw!r}"
            for m in _LABEL_RE.finditer(raw):
                value = (m.group("value")
                         .replace("\\n", "\n")
                         .replace('\\"', '"')
                         .replace("\\\\", "\\"))
                labels[m.group("key")] = value
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        samples.append((match.group("name"), labels, value))
    return samples, helps, types, lines


def _bucket_series(samples, name, labels):
    """(le, value) pairs of one histogram's bucket series, in emit order."""
    out = []
    for sample_name, sample_labels, value in samples:
        if sample_name != name + "_bucket":
            continue
        rest = {k: v for k, v in sample_labels.items() if k != "le"}
        if rest != labels:
            continue
        le = sample_labels["le"]
        out.append((math.inf if le == "+Inf" else float(le), value))
    return out


def _one(samples, name, labels):
    matches = [v for n, ls, v in samples if n == name and ls == labels]
    assert len(matches) == 1, f"expected exactly one {name}{labels}"
    return matches[0]


def _approx(value: float):
    import pytest

    return pytest.approx(value, rel=1e-6)


def test_histogram_buckets_are_cumulative_and_end_at_inf():
    registry = MetricsRegistry()
    hist = registry.histogram("req_ms", "latency", buckets=(1, 5, 25))
    for value in (0.5, 0.5, 3, 30, 100):
        hist.observe(value)
    samples, __, __, __ = parse_exposition(registry.render_prometheus())
    series = _bucket_series(samples, "req_ms", {})
    # ordered by bound, non-decreasing, +Inf last
    assert [le for le, __ in series] == [1.0, 5.0, 25.0, math.inf]
    values = [v for __, v in series]
    assert values == sorted(values)
    assert values == [2, 3, 3, 5]
    # the +Inf bucket equals _count (every observation lands somewhere)
    assert values[-1] == _one(samples, "req_ms_count", {})


def test_histogram_sum_count_pairing_per_label_set():
    registry = MetricsRegistry()
    hist = registry.histogram("q_ms", "", buckets=(10,))
    hist.observe(4, kind="read")
    hist.observe(6, kind="read")
    hist.observe(100, kind="write")
    samples, __, __, __ = parse_exposition(registry.render_prometheus())
    for labels, total, count in (({"kind": "read"}, 10, 2),
                                 ({"kind": "write"}, 100, 1)):
        assert _one(samples, "q_ms_sum", labels) == total
        assert _one(samples, "q_ms_count", labels) == count
        buckets = _bucket_series(samples, "q_ms", labels)
        assert buckets[-1] == (math.inf, count)


def test_help_precedes_type_precedes_samples():
    registry = MetricsRegistry()
    registry.counter("with_help", "documented").inc(3)
    registry.counter("no_help").inc(1)
    registry.histogram("h_ms", "a histogram", buckets=(1,)).observe(0.5)
    samples, helps, types, lines = parse_exposition(
        registry.render_prometheus())
    # every metric has a TYPE; HELP only where help text was given
    assert types == {"h_ms": "histogram", "no_help": "counter",
                     "with_help": "counter"}
    assert set(helps) == {"h_ms", "with_help"}
    # per metric: HELP line (if any) immediately before TYPE, both before
    # the metric's first sample
    for name in types:
        type_at = lines.index(f"# TYPE {name} {types[name]}")
        if name in helps:
            assert lines[type_at - 1] == f"# HELP {name} {helps[name]}"
        first_sample = min(i for i, line in enumerate(lines)
                           if not line.startswith("#")
                           and line.startswith(name))
        assert type_at < first_sample


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    nasty = 'a"b\\c\nd'
    registry.counter("evil_total", "").inc(1, path=nasty)
    text = registry.render_prometheus()
    # the raw newline must not produce a second physical line
    assert [line for line in text.splitlines()
            if not line.startswith("#")] == \
        ['evil_total{path="a\\"b\\\\c\\nd"} 1']
    samples, __, __, __ = parse_exposition(text)
    assert _one(samples, "evil_total", {"path": nasty}) == 1


def test_result_cache_metrics_conform():
    """The result cache's counters and gauges render as well-formed
    exposition: pre-registered zero counters, labelled invalidation and
    bypass reasons, and gauges that track fills and flushes."""
    from repro.cache import ResultCache

    registry = MetricsRegistry()
    cache = ResultCache(capacity_bytes=10_000, enabled=True,
                        metrics=registry)
    # zero-valued counters are present before any traffic (rate() safety)
    samples, __, types, __ = parse_exposition(registry.render_prometheus())
    for name in ("result_cache_hits_total", "result_cache_misses_total",
                 "result_cache_evictions_total"):
        assert types[name] == "counter"
        assert _one(samples, name, {}) == 0
    cache.miss("retrieve (Emp1.name)")
    cache.fill("retrieve (Emp1.name)", ["Emp1.name"], [["a"]],
               "FileScan(Emp1)", {"__schema", "Emp1"})
    entry = cache.get("retrieve (Emp1.name)")
    assert cache.hit(entry) is not None
    cache.bypass("lazy_refresh")
    cache.invalidate({"Emp1"}, reason="write")
    samples, helps, types, __ = parse_exposition(registry.render_prometheus())
    assert _one(samples, "result_cache_hits_total", {}) == 1
    assert _one(samples, "result_cache_misses_total", {}) == 1
    assert _one(samples, "result_cache_bypass_total",
                {"reason": "lazy_refresh"}) == 1
    assert _one(samples, "result_cache_invalidations_total",
                {"reason": "write"}) == 1
    assert types["result_cache_bytes"] == "gauge"
    assert types["result_cache_entries"] == "gauge"
    assert _one(samples, "result_cache_entries", {}) == 0  # invalidated
    assert _one(samples, "result_cache_bytes", {}) == 0
    assert "result_cache_hits_total" in helps


def test_statement_latency_histogram_conforms():
    """The new per-fingerprint latency histogram obeys all of the above
    through the shared registry."""
    registry = MetricsRegistry()
    stats = StatementStats(metrics=registry)
    fp1 = stats.observe("retrieve (Emp1.name) where Emp1.age > 30", 3.0)
    stats.observe("retrieve (Emp1.name) where Emp1.age > 99", 1.0)
    fp2 = stats.observe('replace (Dept.name = "x")', 0.04, outcome="boom")
    assert fp1 != fp2
    samples, helps, types, __ = parse_exposition(registry.render_prometheus())
    assert types["statement_latency_ms"] == "histogram"
    assert "statement_latency_ms" in helps
    for fp, count in ((fp1, 2), (fp2, 1)):
        labels = {"fingerprint": fp}
        series = _bucket_series(samples, "statement_latency_ms", labels)
        assert [le for le, __ in series] == \
            [float(b) for b in LATENCY_BUCKETS_MS] + [math.inf]
        values = [v for __, v in series]
        assert values == sorted(values)
        assert values[-1] == count
        assert _one(samples, "statement_latency_ms_count", labels) == count
        assert _one(samples, "statement_calls_total", labels) == count
    assert _one(samples, "statement_errors_total", {"fingerprint": fp2}) == 1


def test_wait_event_series_conform():
    """Wait-event counters and the engine-latch histogram render as
    well-formed exposition through the shared registry: labelled
    ``wait_seconds_total`` / ``wait_events_total`` pairs per event, and
    cumulative latch-wait buckets ending at +Inf == _count."""
    from repro.telemetry.waitevents import (
        LATCH_WAIT_BUCKETS,
        WaitEventCollector,
    )

    registry = MetricsRegistry()
    collector = WaitEventCollector(metrics=registry)
    ctx = collector.begin_statement()
    collector.record("buffer_io", 0.004, count=2)
    collector.record("lock:Emp1", 0.010)
    collector.admission_granted(0.0002)
    collector.admission_granted(0.02)
    collector.admission_released(0.001)
    collector.finish_statement(ctx, duration_s=0.05)
    samples, helps, types, __ = parse_exposition(registry.render_prometheus())
    assert types["wait_seconds_total"] == "counter"
    assert types["wait_events_total"] == "counter"
    assert "wait_seconds_total" in helps
    assert _one(samples, "wait_seconds_total",
                {"event": "buffer_io"}) == _approx(0.004)
    assert _one(samples, "wait_events_total", {"event": "buffer_io"}) == 2
    assert _one(samples, "wait_seconds_total",
                {"event": "lock:Emp1"}) == _approx(0.010)
    # the cpu residual is a first-class event in the same family
    assert _one(samples, "wait_events_total", {"event": "cpu"}) == 1
    # the admission histogram: ordered cumulative buckets, +Inf == _count
    assert types["admission_wait_seconds"] == "histogram"
    series = _bucket_series(samples, "admission_wait_seconds", {})
    assert [le for le, __ in series] == \
        [float(b) for b in LATCH_WAIT_BUCKETS] + [math.inf]
    values = [v for __, v in series]
    assert values == sorted(values)
    assert values[-1] == 2
    assert _one(samples, "admission_wait_seconds_count", {}) == 2
    assert _one(samples, "admission_wait_seconds_sum", {}) == \
        _approx(0.0202)
    assert types["admission_hold_seconds_total"] == "counter"
    assert _one(samples, "admission_hold_seconds_total", {}) == \
        _approx(0.001)


def test_bound_child_and_labelled_inc_feed_one_series():
    """``counter.labels(...)`` resolves a label set once; what its ``inc``
    adds and what ``inc(**labels)`` adds is the same series -- one sample
    line, the summed value -- and there is one child per label set."""
    registry = MetricsRegistry()
    counter = registry.counter("waits_total", "waits, by event")
    child = counter.labels(event="buffer_io")
    assert counter.labels(event="buffer_io") is child
    assert counter.labels(event="cpu") is not child
    assert counter.labels(b="2", a=1) is counter.labels(a="1", b=2)
    # asking for a child does not create the series
    assert "waits_total{" not in registry.render_prometheus()
    child.inc()
    counter.inc(2, event="buffer_io")
    child.inc(0.5)
    assert counter.value(event="buffer_io") == 3.5
    assert counter.total() == 3.5
    lines = [line for line in registry.render_prometheus().splitlines()
             if line.startswith("waits_total")]
    assert lines == ['waits_total{event="buffer_io"} 3.5']


def test_wait_event_series_render_as_labelled_incs_would():
    """The collector feeds ``wait_seconds_total`` / ``wait_events_total``
    through bound children; the exposition is byte for byte what
    ``inc(amount, event=...)`` per wait produces."""
    from repro.telemetry.waitevents import WaitEventCollector

    waits = [("buffer_io", 0.004, 2), ("lock:Emp1", 0.010, 1),
             ("buffer_io", 0.0007, 1), ("wal_flush", 0.002, 1),
             ('lock:odd"name', 0.001, 1), ("admission_wait", 0.0002, 1)]
    registry = MetricsRegistry()
    collector = WaitEventCollector(metrics=registry)
    ctx = collector.begin_statement()
    for event, seconds, count in waits:
        collector.record(event, seconds, count)
    cpu = collector.finish_statement(ctx, duration_s=0.05)["cpu"]

    reference = MetricsRegistry()
    seconds_total = reference.counter(
        "wait_seconds_total", "time waited, by wait event")
    events_total = reference.counter(
        "wait_events_total", "wait occurrences, by wait event")
    for event, seconds, count in waits + [("cpu", cpu, 1)]:
        seconds_total.inc(seconds, event=event)
        events_total.inc(count, event=event)

    def wait_lines(text):
        return [line for line in text.splitlines() if "wait_seconds_total"
                in line or "wait_events_total" in line]

    assert wait_lines(registry.render_prometheus()) == \
        wait_lines(reference.render_prometheus())
    assert len(wait_lines(reference.render_prometheus())) == 2 * (2 + 6)
