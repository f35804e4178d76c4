"""Cross-process observability: trace propagation, the HTTP sidecar,
slow-query / lock-contention profiles, and the ``\\top`` dashboard."""

import io
import json
import threading
import urllib.error
from urllib.request import urlopen

import pytest

from repro.server import connect
from repro.server.httpexpo import MetricsHTTPServer
from repro.server.locks import ContentionProfiler, LockFootprint, LockManager
from repro.server.service import Server
from repro.server.session import SessionManager
from repro.server.top import render_top, run_top
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slowlog import SlowQueryLog


@pytest.fixture()
def manager(company):
    mgr = SessionManager(company["db"], lock_timeout=2.0)
    yield mgr
    mgr.shutdown()


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=2.0).start()
    yield srv
    srv.shutdown()


@pytest.fixture()
def sidecar(server):
    http = MetricsHTTPServer(server).start()
    yield http
    http.shutdown()


def _get(base: str, path: str):
    with urlopen(base + path, timeout=10.0) as response:
        return response.status, response.headers.get("Content-Type", ""), \
            response.read().decode("utf-8")


def parse_prometheus(text: str) -> dict:
    """A deliberately tiny text-exposition parser: sample name -> value."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


# ---------------------------------------------------------------------------
# trace propagation: client-minted ids, per-statement tracers
# ---------------------------------------------------------------------------


def test_client_minted_trace_id_returns_full_span_tree(server):
    server.db.cold_cache()
    with connect(*server.address) as client:
        client.trace_enabled = True
        result = client.execute("retrieve (Emp1.name, Emp1.dept.name)")
        assert result.trace is not None
        trace = result.trace
        spans = trace["spans"]
        assert len({s["trace_id"] for s in spans}) == 1
        assert spans[0]["name"] == "client_request"
        assert spans[0]["span_id"] == 0 and spans[0]["parent_id"] is None
        names = {s["name"] for s in spans}
        assert {"client_request", "statement", "parse", "lock_acquire",
                "execute"} <= names
        # the server root is re-parented under the client root
        (statement,) = [s for s in spans if s["name"] == "statement"]
        assert statement["parent_id"] == 0
        # inclusive I/O is consistent: the statement span saw at least the
        # execute span's physical reads, and matches the wire I/O block
        (execute,) = [s for s in spans if s["name"] == "execute"]
        assert statement["io"]["physical_reads"] >= \
            execute["io"]["physical_reads"]
        assert statement["io"]["physical_reads"] == result.io.physical_reads
        assert statement["io"]["physical_writes"] == result.io.physical_writes
        assert result.io.physical_reads > 0
        # wall-clock stamps exist everywhere; the client root opened first
        assert all(s["start_ts"] > 0 for s in spans)
        assert spans[0]["start_ts"] <= statement["start_ts"] + 1e-6
        # session_id is stamped into server spans
        assert statement["attrs"]["session_id"] == client.session_id
        assert client.last_trace is trace


def test_untraced_statement_carries_no_trace(server):
    with connect(*server.address) as client:
        result = client.execute("retrieve (Emp1.name)")
        assert result.trace is None
        assert client.traces == client.traces.__class__([], maxlen=64) \
            or len(client.traces) == 0


def test_concurrent_traced_sessions_never_share_spans(manager):
    """Regression for the shared-tracer race: with the old global
    enable/disable toggle, one session's ``finally: disable()`` could
    silently untrace the other mid-statement, or interleave both
    sessions' spans into one dump.  Per-statement tracers make every
    traced statement produce its own complete tree."""
    s1 = manager.open_session("a")
    s2 = manager.open_session("b")
    rounds = 12
    results = {1: [], 2: []}
    errors = []

    def run(session, key, statement):
        try:
            for i in range(rounds):
                result = session.run_statement(
                    statement, trace_id=f"s{key}-{i}")
                results[key].append(result["trace"])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    t1 = threading.Thread(target=run,
                          args=(s1, 1, "retrieve (Emp1.name)"))
    t2 = threading.Thread(target=run,
                          args=(s2, 2, "retrieve (Dept.name)"))
    t1.start()
    t2.start()
    t1.join(timeout=30.0)
    t2.join(timeout=30.0)
    assert errors == []
    assert len(results[1]) == len(results[2]) == rounds
    for key, traces in results.items():
        session_id = s1.id if key == 1 else s2.id
        for i, trace in enumerate(traces):
            assert trace["trace_id"] == f"s{key}-{i}"
            spans = trace["spans"]
            # no silent untracing: the engine work is always present
            assert "execute" in {s["name"] for s in spans}
            # no interleaving: every span belongs to this session
            for span in spans:
                assert span["attrs"]["session_id"] == session_id
                assert span["trace_id"] == f"s{key}-{i}"


def test_session_trace_toggle_without_client_id_still_traces(manager):
    session = manager.open_session("t")
    session.run_meta("trace", ["on"])
    result = session.run_statement("retrieve (Emp1.name)")
    assert "trace" in result
    names = {s["name"] for s in result["trace"]["spans"]}
    assert {"statement", "lock_acquire", "execute"} <= names


def test_lock_acquire_span_reports_contended_wait(company):
    """A statement that blocks on another session's lock reports the
    wait, per resource, in its ``lock_acquire`` span."""
    mgr = SessionManager(company["db"], lock_timeout=10.0)
    try:
        holder = mgr.open_session("holder")
        waiter = mgr.open_session("waiter")
        holder.run_statement("begin")
        holder.run_statement("replace (Emp1.salary = 1)")  # X(Emp1), held

        def release_soon():
            import time

            time.sleep(0.3)
            holder.run_statement("commit")

        thread = threading.Thread(target=release_soon)
        thread.start()
        result = waiter.run_statement("retrieve (Emp1.name)",
                                      trace_id="wait-test")
        thread.join(timeout=10.0)
        (lock_span,) = [s for s in result["trace"]["spans"]
                        if s["name"] == "lock_acquire"
                        and s["attrs"].get("contended")]
        assert lock_span["attrs"]["waited_ms"] > 0
        contended = lock_span["attrs"]["contended"]
        assert any(c["resource"] == "Emp1" and c["mode"] == "S"
                   for c in contended)
        # ... and the contention profiler saw the same wait
        top = mgr.locks.contention.top()
        assert any(t["resource"] == "Emp1" and t["waits"] >= 1 for t in top)
    finally:
        mgr.shutdown()


def test_wal_flush_span_appears_in_traced_write():
    from repro import Database
    from tests.conftest import define_employee_schema

    db = Database(wal=True)
    define_employee_schema(db)
    dept = db.insert("Dept", {"name": "toys", "budget": 1, "org": None})
    db.insert("Emp1", {"name": "zed", "age": 1, "salary": 1, "dept": dept})
    db.telemetry.tracer.enable()
    db.execute("replace (Emp1.salary = 2)")
    db.telemetry.tracer.disable()
    flushes = db.telemetry.tracer.spans_named("wal_flush")
    assert flushes and all(f.attrs["records"] > 0 for f in flushes)
    # the WAL lives on its own accounted device: no page I/O in the span
    assert all(f.io["physical_reads"] == 0 and f.io["physical_writes"] == 0
               for f in flushes)


# ---------------------------------------------------------------------------
# the stats verb
# ---------------------------------------------------------------------------


def test_stats_verb_reports_server_health_blocks(server):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
        stats = client.stats()
        assert stats["uptime_seconds"] > 0
        assert stats["statements_total"] >= 1
        assert stats["requests_total"] >= stats["statements_total"]
        assert 0.0 <= stats["io"]["hit_rate"] <= 1.0
        assert stats["io"]["logical_reads"] >= stats["io"]["buffer_hits"]
        assert stats["locks"]["wait_seconds_total"] >= 0.0
        assert isinstance(stats["locks"]["hottest"], list)
        assert stats["wal"]["enabled"] is False  # company db has no WAL
        assert stats["slow"]["threshold_ms"] > 0
        assert isinstance(stats["slow"]["tail"], list)
        (detail,) = stats["sessions_detail"]
        assert detail["statements"] >= 1
        assert "retrieve" in detail["last_statement"]
        # kept for older dashboards / the soak test
        assert stats["connections_total"] >= 1


def test_stats_statements_total_increments(server):
    with connect(*server.address) as client:
        before = client.stats()["statements_total"]
        client.execute("retrieve (Emp1.name)")
        client.execute("retrieve (Dept.name)")
        assert client.stats()["statements_total"] == before + 2


# ---------------------------------------------------------------------------
# the HTTP sidecar
# ---------------------------------------------------------------------------


def test_metrics_endpoint_serves_parseable_prometheus_text(server, sidecar):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
    status, content_type, body = _get(
        f"http://{sidecar.host}:{sidecar.port}", "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    samples = parse_prometheus(body)
    assert samples, "no samples parsed"
    # the acceptance names: lock-wait histogram and the slow-query counter
    assert "# TYPE lock_wait_seconds histogram" in body
    assert samples["slow_queries_total"] >= 0
    assert samples['server_requests_total{kind="statement"}'] >= 1
    assert samples["server_connections_total"] >= 1


def test_health_endpoint_reports_ok_and_wal_posture(server, sidecar):
    status, content_type, body = _get(
        f"http://{sidecar.host}:{sidecar.port}", "/health")
    assert status == 200
    assert content_type.startswith("application/json")
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["uptime_seconds"] > 0
    assert health["wal"] == {"enabled": False, "needs_recovery": False}
    assert health["doctor_clean_at_start"] is True


def test_slow_endpoint_returns_recorded_entries(server, sidecar):
    server.db.telemetry.slowlog.configure(threshold_ms=0.0)
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
    status, content_type, body = _get(
        f"http://{sidecar.host}:{sidecar.port}", "/slow")
    assert status == 200 and content_type.startswith("application/json")
    document = json.loads(body)
    assert document["threshold_ms"] == 0.0
    assert document["total"] >= 1
    entry = document["entries"][-1]
    assert "retrieve" in entry["statement"]
    assert entry["outcome"] == "ok"
    assert entry["duration_ms"] >= 0 and "io" in entry


def test_unknown_path_is_404(sidecar):
    with pytest.raises(urllib.error.HTTPError) as info:
        urlopen(f"http://{sidecar.host}:{sidecar.port}/nope", timeout=10.0)
    assert info.value.code == 404


def test_scraping_never_charges_engine_page_io(server, sidecar):
    """A scrape of all three endpoints moves zero pages: observability
    reads counters, not the database."""
    stats = server.db.stats
    before = (stats.physical_reads, stats.physical_writes,
              stats.logical_reads)
    base = f"http://{sidecar.host}:{sidecar.port}"
    for __ in range(5):
        for path in ("/metrics", "/health", "/slow"):
            assert _get(base, path)[0] == 200
    assert (stats.physical_reads, stats.physical_writes,
            stats.logical_reads) == before


# ---------------------------------------------------------------------------
# profiles: slow-query log and lock contention
# ---------------------------------------------------------------------------


def test_slowlog_threshold_and_ring_capacity():
    metrics = MetricsRegistry()
    log = SlowQueryLog(capacity=3, threshold_ms=10.0, metrics=metrics)
    assert "slow_queries_total 0" in metrics.render_prometheus()
    assert log.observe("fast", duration_ms=9.9) is False
    assert len(log) == 0
    for i in range(5):
        assert log.observe(f"slow {i}", duration_ms=10.0 + i) is True
    assert len(log) == 3  # ring wrapped: newest three kept
    assert [e["statement"] for e in log.entries()] == \
        ["slow 2", "slow 3", "slow 4"]
    # the counter keeps the true total even after the wrap
    assert metrics.value("slow_queries_total") == 5
    assert [e["statement"] for e in log.tail(2)] == ["slow 3", "slow 4"]
    assert "slow 4" in log.render_text()
    log.configure(threshold_ms=100.0, capacity=8)
    assert log.observe("now fast", duration_ms=50.0) is False
    assert log.capacity == 8 and len(log) == 3


def test_slowlog_records_outcome_and_lock_breakdown():
    log = SlowQueryLog(threshold_ms=0.0)
    log.observe("replace (Emp1.salary = 1)", duration_ms=12.5,
                plan="scan(Emp1)", io={"reads": 3, "writes": 1, "total": 4},
                lock_wait_ms=7.0,
                lock_waits=[{"resource": "Emp1", "mode": "X",
                             "waited_ms": 7.0}],
                session="s1", outcome="DeadlockError", rows=0)
    (entry,) = log.entries()
    assert entry["outcome"] == "DeadlockError"
    assert entry["lock_wait_ms"] == 7.0
    assert entry["lock_waits"][0]["resource"] == "Emp1"
    assert entry["io"]["total"] == 4 and entry["plan"] == "scan(Emp1)"


def test_served_slow_statement_lands_in_slowlog_with_plan(server):
    server.db.telemetry.slowlog.configure(threshold_ms=0.0)
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name, Emp1.dept.name)")
    entry = server.db.telemetry.slowlog.entries()[-1]
    assert entry["statement"] == "retrieve (Emp1.name, Emp1.dept.name)"
    assert entry["plan"] and entry["rows"] == 6
    assert entry["session"]  # attributed to the serving session


def test_embedded_slow_statement_lands_in_slowlog(company):
    db = company["db"]
    db.telemetry.slowlog.configure(threshold_ms=0.0)
    db.execute("retrieve (Emp1.name)")
    entry = db.telemetry.slowlog.entries()[-1]
    assert entry["statement"] == "retrieve (Emp1.name)"
    assert entry["rows"] == 6 and entry["outcome"] == "ok"


def test_contention_profiler_top_and_histogram():
    profiler = ContentionProfiler()
    for waited in (0.05, 0.2, 0.9):
        profiler.record("Emp1", "X", waited)
    profiler.record("Dept", "S", 0.4)
    top = profiler.top(k=2)
    assert [t["resource"] for t in top] == ["Emp1", "Dept"]
    assert top[0]["waits"] == 3
    assert top[0]["total_wait_s"] == pytest.approx(1.15)
    assert top[0]["by_mode"] == {"X": 3}
    histogram = profiler.histogram("Emp1")
    assert sum(histogram) == 3
    assert profiler.histogram("Nope") is None
    snapshot = profiler.snapshot()
    assert snapshot["Dept"]["max_s"] == pytest.approx(0.4)


def test_acquire_info_reports_waited_and_contended():
    locks = LockManager(timeout=10.0)
    a = locks.owner("a")
    b = locks.owner("b")
    footprint = LockFootprint(exclusive=frozenset({"Emp1"}))
    info = locks.acquire(a, footprint)
    assert info.waited == 0.0 and info.contended == ()
    grabbed = {}

    def contender():
        grabbed["info"] = locks.acquire(b, footprint)

    thread = threading.Thread(target=contender)
    thread.start()
    import time

    time.sleep(0.2)
    locks.release_all(a)
    thread.join(timeout=10.0)
    info = grabbed["info"]
    assert info.waited > 0
    assert ("Emp1", "X") in info.contended
    assert info.wait_breakdown()[0]["resource"] == "Emp1"
    assert locks.contention.top()[0]["resource"] == "Emp1"


# ---------------------------------------------------------------------------
# label escaping (Prometheus exposition)
# ---------------------------------------------------------------------------


def test_prometheus_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("odd_total", "labels with hostile values").inc(
        3, kind='say "hi"\nback\\slash')
    text = registry.render_prometheus()
    assert 'odd_total{kind="say \\"hi\\"\\nback\\\\slash"} 3' in text
    # every sample still occupies exactly one line
    sample_lines = [line for line in text.splitlines()
                    if line and not line.startswith("#")]
    assert len(sample_lines) == 1
    assert parse_prometheus(text) == \
        {'odd_total{kind="say \\"hi\\"\\nback\\\\slash"}': 3.0}


# ---------------------------------------------------------------------------
# the \top dashboard
# ---------------------------------------------------------------------------


def test_render_top_formats_a_stats_snapshot(server):
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name)")
        stats = client.stats()
    frame = render_top(stats)
    assert "repro top" in frame
    assert "hit rate" in frame and "locks" in frame and "wal" in frame
    assert "sessions:" in frame  # the stats connection itself is listed
    # rates need a previous frame; totals are monotone so the delta is 0+
    later = dict(stats)
    later["statements_total"] = stats["statements_total"] + 5
    frame2 = render_top(later, prev=stats, elapsed=2.0)
    assert "(2.5/s)" in frame2


def test_run_top_polls_requested_frames(server):
    with connect(*server.address) as client:
        out = io.StringIO()
        frames = run_top(client, iterations=2, interval=0.01, out=out)
    assert frames == 2
    assert out.getvalue().count("repro top") == 2


def test_shell_top_meta_command(server):
    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(client=connect(*server.address), out=out)
    try:
        shell.run_meta("\\top 1 0")
        assert "repro top" in out.getvalue()
        assert shell.errors == 0
    finally:
        shell.close()


def test_shell_top_requires_connection():
    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(out=out)
    shell.run_meta("\\top")
    assert shell.errors == 1
    assert "needs a connected server" in out.getvalue()


def test_connected_shell_trace_dump_shows_cross_process_tree(server):
    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(client=connect(*server.address), out=out)
    try:
        shell.run_block("\\trace on\nretrieve (Emp1.name);\n\\trace dump")
        text = out.getvalue()
        assert "tracing on" in text
        assert "client_request" in text
        assert "statement" in text and "lock_acquire" in text
        shell.run_block("\\trace clear\n\\trace off\n\\trace dump")
        text = out.getvalue()
        assert "trace cleared" in text and "tracing off" in text
        assert "(no spans recorded)" in text
        assert shell.errors == 0
    finally:
        shell.close()


def test_connected_shell_trace_dump_to_file(server, tmp_path):
    from repro.cli import Shell

    out = io.StringIO()
    target = tmp_path / "wire-trace.jsonl"
    shell = Shell(client=connect(*server.address), out=out)
    try:
        shell.run_block(
            f"\\trace on\nretrieve (Emp1.name);\n\\trace dump {target}")
        lines = target.read_text().strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert {"client_request", "statement"} <= {s["name"] for s in spans}
        assert f"wrote {len(spans)} span(s)" in out.getvalue()
    finally:
        shell.close()


# ---------------------------------------------------------------------------
# /health doctor TTL
# ---------------------------------------------------------------------------


def _unhealthy_report():
    from types import SimpleNamespace

    return SimpleNamespace(healthy=False, findings=["page checksum bad"])


def test_health_doctor_verdict_refreshes_after_ttl(company, sidecar, server):
    import time as _time

    server.health_ttl = 0.05
    base = f"http://{sidecar.host}:{sidecar.port}"
    status, __, body = _get(base, "/health")
    assert status == 200
    health = json.loads(body)
    assert health["doctor_clean"] is True
    assert health["health_ttl_seconds"] == 0.05
    # the database goes bad mid-run
    company["db"].doctor = _unhealthy_report
    status = 200
    deadline = _time.time() + 5.0
    while _time.time() < deadline:
        _time.sleep(0.06)
        try:
            status, __, body = _get(base, "/health")
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read().decode("utf-8")
        if status == 503:
            break
    health = json.loads(body)
    assert status == 503
    assert health["status"] == "needs_recovery"
    assert health["doctor_clean"] is False
    assert health["doctor_findings"] == 1
    # the start-of-run snapshot is immutable history
    assert health["doctor_clean_at_start"] is True


def test_health_ttl_zero_means_start_only(company, server):
    server.health_ttl = 0.0
    company["db"].doctor = _unhealthy_report
    health = server.health()
    assert health["status"] == "ok"
    assert health["doctor_clean"] is True


def test_health_ttl_caches_within_window(company, server):
    calls = [0]
    real_doctor = company["db"].doctor

    def counting_doctor():
        calls[0] += 1
        return real_doctor()

    server.health_ttl = 3600.0
    company["db"].doctor = counting_doctor
    for __ in range(5):
        assert server.health()["status"] == "ok"
    assert calls[0] == 0  # the start-of-run verdict is still fresh
