"""Tests for the telemetry subsystem: tracing, metrics, drift."""

import json

from repro import Database
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.workloads.drift import DriftMonitor
from repro.telemetry.metrics import NULL_METRICS


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("c", "a counter").inc()
    reg.counter("c").inc(4)
    assert reg.value("c") == 5
    reg.gauge("g").set(7)
    reg.gauge("g").inc(-2)
    assert reg.value("g") == 5
    hist = reg.histogram("h")
    for v in (1, 3, 30, 3000):
        hist.observe(v)
    assert hist.count() == 4
    assert hist.sum() == 3034
    assert hist.mean() == 3034 / 4


def test_counter_labels_are_separate_series():
    reg = MetricsRegistry()
    c = reg.counter("index_ops")
    c.inc(index="a")
    c.inc(2, index="b")
    assert c.value(index="a") == 1
    assert c.value(index="b") == 2
    assert c.value() == 0


def test_render_text_and_prometheus():
    reg = MetricsRegistry()
    reg.counter("reads_total", "pages read").inc(3)
    reg.gauge("frames").set(9)
    text = reg.render_text()
    assert "reads_total" in text and "3" in text
    prom = reg.render_prometheus()
    assert "# HELP reads_total pages read" in prom
    assert "# TYPE reads_total counter" in prom
    assert "# TYPE frames gauge" in prom
    assert "reads_total 3" in prom


def test_empty_registry_renders_placeholder():
    assert MetricsRegistry().render_text() == "(no metrics recorded)"


def test_null_metrics_accept_everything():
    c = NULL_METRICS.counter("x")
    c.inc()
    c.inc(5, label="y")
    assert c.value() == 0
    assert NULL_METRICS.render_text() == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# engine metric feeds
# ---------------------------------------------------------------------------


def test_database_feeds_buffer_and_disk_metrics(company):
    db = company["db"]
    db.cold_cache()
    db.execute("retrieve (Emp1.name)", materialize=False)
    metrics = db.telemetry.metrics
    assert metrics.value("disk_reads_total") == db.stats.physical_reads
    assert metrics.value("disk_writes_total") == db.stats.physical_writes
    assert metrics.value("bufferpool_misses_total") > 0
    hits = metrics.value("bufferpool_hits_total")
    assert hits == db.stats.buffer_hits


def test_replication_metrics_count_propagation(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    metrics = db.telemetry.metrics
    assert metrics.value("replication_link_touches_total") > 0
    before = metrics.value("replication_propagations_total")
    db.update("Dept", company["depts"]["toys"], {"name": "bricks"})
    assert metrics.value("replication_propagations_total") == before + 1
    # toys has two employees (alice, bob): fan-out of 2
    assert metrics.value("replication_fanout_total") >= 2


def test_index_metrics_count_probes(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    metrics = db.telemetry.metrics
    assert metrics.value("index_inserts_total", index="idx1_Emp1_salary") == 6
    db.execute("retrieve (Emp1.name) where Emp1.salary = 50000")
    assert metrics.value("index_lookups_total", index="idx1_Emp1_salary") == 1
    db.execute("retrieve (Emp1.name) where Emp1.salary >= 60000")
    assert metrics.value("index_range_scans_total", index="idx1_Emp1_salary") == 1


def test_query_histograms_observe_every_statement(company):
    db = company["db"]
    db.execute("retrieve (Emp1.name)", materialize=False)
    db.execute("retrieve (Emp1.name) where Emp1.age >= 33", materialize=False)
    hist = db.telemetry.metrics.histogram("query_rows")
    assert hist.count() == 2
    assert hist.sum() == 6 + 3


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_disabled_by_default_records_nothing(company):
    db = company["db"]
    db.execute("retrieve (Emp1.name)", materialize=False)
    assert db.telemetry.tracer.spans == []


def test_traced_query_produces_span_tree(company):
    db = company["db"]
    tracer = db.telemetry.tracer
    tracer.enable()
    db.cold_cache()
    db.execute("retrieve (Emp1.name, Emp1.dept.name)", materialize=False)
    tracer.disable()
    names = [s.name for s in tracer.spans]
    assert "query" in names and "parse" in names
    assert "plan" in names and "execute" in names
    assert "scan" in names and "functional_join" in names
    (query,) = tracer.spans_named("query")
    assert query.parent_id is None
    (execute,) = tracer.spans_named("execute")
    assert execute.parent_id == query.span_id
    # the query span saw all the I/O the statement did
    assert query.io["physical_reads"] > 0
    assert query.attrs["rows"] == 6


def test_trace_io_attribution_sums_to_query(company):
    db = company["db"]
    tracer = db.telemetry.tracer
    tracer.enable()
    db.cold_cache()
    db.execute("retrieve (Emp1.name, Emp1.dept.name)", materialize=False)
    (query,) = tracer.spans_named("query")
    (execute,) = tracer.spans_named("execute")
    # operator spans recorded under execute cover its physical reads
    operators = [
        s for s in tracer.spans
        if s.parent_id == execute.span_id
    ]
    top = [s for s in operators if not s.name.startswith("hop ")]
    assert sum(s.io["physical_reads"] for s in top) == \
        execute.io["physical_reads"]
    assert execute.io["physical_reads"] == query.io["physical_reads"]


def test_update_propagation_and_link_spans(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    tracer = db.telemetry.tracer
    tracer.enable()
    db.update("Dept", company["depts"]["toys"], {"name": "bricks"})
    tracer.disable()
    (prop,) = tracer.spans_named("update_propagation")
    assert prop.attrs["fanout"] == 2
    assert prop.attrs["path"] == "Emp1.dept.name"
    # the paper's update model: f referencers, visited a page at a time
    toys = company["depts"]["toys"]
    link = db.catalog.get_link(
        db.catalog.get_path("Emp1.dept.name").link_sequence[0])
    closure = db.replication.inverted.closure_to_source(link, toys)
    assert prop.attrs["pages"] == len({(t.file_id, t.page_no)
                                       for t in closure})
    assert prop.attrs["pages"] <= prop.attrs["fanout"] == len(closure)


def test_trace_jsonl_roundtrip(company, tmp_path):
    db = company["db"]
    tracer = db.telemetry.tracer
    tracer.enable()
    db.execute("retrieve (Emp1.name)", materialize=False)
    tracer.disable()
    out = tmp_path / "trace.jsonl"
    written = tracer.export(out)
    lines = out.read_text().strip().splitlines()
    assert written == len(lines) == len(tracer.spans)
    decoded = [json.loads(line) for line in lines]
    assert {d["name"] for d in decoded} >= {"query", "parse", "plan", "execute"}
    for d in decoded:
        assert set(d) == {"trace_id", "span_id", "parent_id", "name", "attrs",
                          "start_ts", "duration_ms", "io", "self_io"}
        assert d["start_ts"] > 0


def test_tracer_standalone_without_stats():
    tracer = Tracer(enabled=True)
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    assert outer.io["physical_reads"] == 0
    assert len(tracer.spans) == 2


# ---------------------------------------------------------------------------
# drift monitor
# ---------------------------------------------------------------------------


def test_drift_records_and_errors():
    drift = DriftMonitor()
    drift.record("read", "inplace", 10.0, 12.0)
    drift.record("read", "inplace", 10.0, 9.0)
    drift.record("update", "inplace", 4.0, 4.0)
    assert len(drift.select(kind="read")) == 2
    # mean observed 10.5 vs mean predicted 10.0 -> 5%
    assert abs(drift.mean_rel_error("read", "inplace") - 0.05) < 1e-9
    assert drift.max_rel_error("read") == 0.2
    assert drift.groups() == [("inplace", "read"), ("inplace", "update")]
    report = drift.report()
    assert "inplace" in report and "read" in report


def test_drift_zero_prediction_uses_absolute_observation():
    drift = DriftMonitor()
    rec = drift.record("read", "none", 0.0, 3.0)
    assert rec.rel_error == 3.0


def test_telemetry_reset_clears_all_three():
    telemetry = Telemetry()
    telemetry.metrics.inc("x")
    telemetry.tracer.enable()
    with telemetry.tracer.span("s"):
        pass
    telemetry.reset()
    assert telemetry.metrics.value("x") == 0
    assert telemetry.tracer.spans == []
    assert telemetry.tracer.enabled  # reset keeps the on/off state


def test_each_database_has_private_telemetry():
    db1, db2 = Database(), Database()
    assert db1.telemetry is not db2.telemetry
    db1.telemetry.metrics.inc("only_here")
    assert db2.telemetry.metrics.value("only_here") == 0
