"""Wait-event accounting: attribution completeness, the admission-wait
instrumentation, per-resource lock waits, and the wait columns riding on the slow-query log and the
per-fingerprint statement statistics."""

import threading
import time

import pytest

from repro.server import connect
from repro.server.service import Server
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.statstats import StatementStats
from repro.telemetry.waitevents import (
    ADMISSION_WAIT,
    BUFFER_IO,
    CPU,
    LOCK_PREFIX,
    NULL_WAITS,
    WAL_FLUSH,
    WaitEventCollector,
    base_event,
)


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=5.0).start()
    yield srv
    srv.shutdown()


# ---------------------------------------------------------------------------
# the collector: complete attribution by construction
# ---------------------------------------------------------------------------


def test_breakdown_sums_to_statement_wall_clock():
    collector = WaitEventCollector()
    ctx = collector.begin_statement()
    collector.record(BUFFER_IO, 0.020)
    collector.record(WAL_FLUSH, 0.010)
    breakdown = collector.finish_statement(ctx, duration_s=0.100)
    # wall = execution (0.100); cpu is what is left after the measured
    # waits (0.020 + 0.010) are taken out
    assert breakdown[WAL_FLUSH] == pytest.approx(0.010)
    assert breakdown[CPU] == pytest.approx(0.070)
    assert sum(breakdown.values()) == pytest.approx(0.100)
    snap = collector.snapshot()
    assert snap["statements"] == 1
    assert snap["statement_seconds"] == pytest.approx(0.100)
    # every accounted second is attributed: coverage 1.0 by construction
    assert snap["coverage"] == pytest.approx(1.0, abs=0.01)


def test_cpu_residual_clamps_at_zero():
    collector = WaitEventCollector()
    ctx = collector.begin_statement()
    collector.record(BUFFER_IO, 0.500)  # measured waits exceed the wall
    breakdown = collector.finish_statement(ctx, duration_s=0.100)
    assert breakdown[CPU] == 0.0


def test_disabled_collector_is_a_noop():
    collector = WaitEventCollector()
    collector.enabled = False
    assert collector.begin_statement() is None
    collector.record(BUFFER_IO, 1.0)
    with collector.wait(BUFFER_IO):
        pass
    collector.admission_granted(1.0)
    assert collector.finish_statement(None, 1.0) == {}
    assert collector.totals() == []
    assert collector.snapshot()["statements"] == 0


def test_disabled_collector_takes_no_pool_transfers():
    """The pool keeps its ``buffer_io`` tally whatever the collector
    says; the collector leaves out what it moved while disabled."""
    metrics = MetricsRegistry()
    collector = WaitEventCollector(metrics)

    class Pool:
        io_seconds, io_transfers = 0.5, 2   # before attaching: not counted

    def moved(seconds, transfers):
        Pool.io_seconds += seconds
        Pool.io_transfers += transfers

    collector.attach_buffer_io(Pool)
    collector.enabled = False
    moved(1.0, 4)
    ctx = collector.begin_statement()
    with collector.buffer_io_share():
        moved(1.0, 4)
    assert ctx is None and collector.totals() == []
    assert metrics.value("wait_events_total", event=BUFFER_IO) == 0

    collector.enabled = True
    moved(0.25, 1)
    collector.enabled = False
    moved(1.0, 4)
    [row] = collector.totals()
    assert (row["event"], row["seconds"], row["count"]) == (BUFFER_IO, 0.25, 1)
    assert metrics.value("wait_seconds_total", event=BUFFER_IO) == 0.25
    assert metrics.value("wait_events_total", event=BUFFER_IO) == 1


def test_totals_shares_and_lock_rollup():
    collector = WaitEventCollector()
    ctx = collector.begin_statement()
    collector.record(LOCK_PREFIX + "Emp1", 0.03)
    collector.record(LOCK_PREFIX + "Dept", 0.01)
    collector.finish_statement(ctx, 0.06)
    assert collector.lock_wait_seconds() == pytest.approx(0.04)
    rows = collector.totals()
    assert rows[0]["seconds"] >= rows[-1]["seconds"]  # largest first
    assert abs(sum(r["share"] for r in rows) - 1.0) < 0.01
    assert base_event(LOCK_PREFIX + "Emp1") == "lock"
    assert base_event(CPU) == CPU


def test_latch_instrumentation_feeds_histogram_and_hold_counter():
    registry = MetricsRegistry()
    collector = WaitEventCollector(metrics=registry)
    collector.admission_granted(0.002)
    collector.admission_released(0.004)
    assert registry.histogram("admission_wait_seconds").count() == 1
    assert registry.histogram("admission_wait_seconds").sum() == \
        pytest.approx(0.002)
    assert registry.value("admission_hold_seconds_total") == \
        pytest.approx(0.004)
    assert collector.total_for(ADMISSION_WAIT) == pytest.approx(0.002)
    collector.admission_granted(0.001)
    collector.admission_released(0.001)
    assert registry.histogram("admission_wait_seconds").count() == 2


def test_null_collector_surface_matches():
    assert NULL_WAITS.begin_statement() is None
    assert NULL_WAITS.finish_statement(None, 1.0) == {}
    with NULL_WAITS.wait(BUFFER_IO):
        pass
    assert NULL_WAITS.snapshot()["enabled"] is False
    assert "not collected" in NULL_WAITS.render_text()


# ---------------------------------------------------------------------------
# served statements: latch + lock attribution end to end
# ---------------------------------------------------------------------------


def test_served_statements_attribute_latch_and_cpu(server):
    with connect(*server.address) as client:
        for __ in range(5):
            client.execute("retrieve (Emp1.name, Emp1.dept.name)")
    waits = server.db.telemetry.waits
    events = {r["event"] for r in waits.totals()}
    assert CPU in events
    assert ADMISSION_WAIT in events
    snap = waits.snapshot()
    assert snap["statements"] >= 5
    assert snap["coverage"] >= 0.95  # the acceptance bar, by construction
    metrics = server.db.telemetry.metrics
    assert metrics.histogram("admission_wait_seconds").count() >= 5
    assert metrics.value("admission_hold_seconds_total") > 0.0


def test_lock_contention_attributed_to_the_contended_resource(server):
    with connect(*server.address) as holder:
        holder.begin()
        holder.execute("replace (Emp1.salary = 1)")  # X(Emp1), held

        def blocked():
            with connect(*server.address) as client:
                client.execute("replace (Emp1.salary = 2)")  # must wait

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.3)  # let the waiter park on the lock
        holder.commit()
        thread.join(timeout=30.0)
    waits = server.db.telemetry.waits
    lock_events = [r["event"] for r in waits.totals()
                   if r["event"].startswith(LOCK_PREFIX)]
    assert any("Emp1" in e for e in lock_events)
    assert waits.lock_wait_seconds() > 0.1


def test_session_info_and_wait_totals_accumulate(server):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
        detail = client.stats()["sessions_detail"]
    assert detail, "session detail must list the live session"
    row = detail[0]
    assert row["top_wait"] != ""
    assert row["top_wait_ms"] >= 0.0
    assert row["admission_hold_ms"] >= 0.0


def test_stats_verb_carries_waits_and_no_sampling_documents(server):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
        stats = client.stats()
    assert stats["waits"]["statements"] >= 1
    assert stats["waits"]["coverage"] >= 0.95
    assert {"admission_wait_seconds", "admission_hold_seconds"} <= \
        set(stats["waits"])
    assert "ash" not in stats and "alerts" not in stats


def test_waits_meta_renders_the_share_table(server):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
        text = client.meta("waits")
    assert "event" in text and CPU in text
    assert "accounted statement wall-clock" in text


# ---------------------------------------------------------------------------
# the wait columns on statstats and the slow-query log
# ---------------------------------------------------------------------------


def test_statstats_accumulates_wait_breakdown_per_fingerprint():
    stats = StatementStats()
    fp = stats.observe("retrieve (Emp1.name)", 10.0,
                       waits={CPU: 0.004, LOCK_PREFIX + "Emp1": 0.006})
    doc = stats.get(fp)
    assert doc["waits"]["lock"] == pytest.approx(6.0)  # milliseconds
    assert doc["waits"][CPU] == pytest.approx(4.0)
    assert doc["dominant_wait"] == "lock"
    assert "top wait" in stats.render_text()


def test_slowlog_records_wait_breakdown_and_dominant_class():
    log = SlowQueryLog(threshold_ms=0.0)
    log.observe("replace (Emp1.salary = 1)", 12.0, fingerprint="aa",
                waits={LOCK_PREFIX + "Emp1": 0.008, CPU: 0.004})
    [entry] = log.entries()
    assert entry["waits"] == {"lock": 8.0, "cpu": 4.0}
    assert entry["dominant_wait"] == "lock"
    assert "wait:lock" in log.render_text()


def test_slowlog_grouped_ranks_by_dominant_wait_class():
    log = SlowQueryLog(threshold_ms=0.0)
    # group "bb" burned more total time, but purely on cpu; "aa" is the
    # lock-dominated group an operator can actually fix -- it ranks first
    log.observe("replace (Emp1.salary = 1)", 10.0, fingerprint="aa",
                waits={LOCK_PREFIX + "Emp1": 0.008, CPU: 0.002})
    log.observe("retrieve (Emp2.name)", 11.0, fingerprint="bb",
                waits={CPU: 0.005})
    groups = log.grouped()
    assert groups[0]["fingerprint"] == "aa"
    assert groups[0]["dominant_wait"] == "lock"
    assert groups[0]["dominant_wait_ms"] == pytest.approx(8.0)
    assert groups[1]["dominant_wait"] == "cpu"


def test_embedded_execution_attributes_waits_too(db):
    db.execute("retrieve (Emp1.name)")
    snap = db.telemetry.waits.snapshot()
    assert snap["statements"] >= 1
    assert snap["coverage"] >= 0.95
