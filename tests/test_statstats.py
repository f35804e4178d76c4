"""Statement fingerprint analytics: normalization, the streaming
histogram, aggregation and eviction, and the embedded + served recording
paths (``\\fingerprints``, the ``statements`` verb, ``/statements``)."""

import json
import urllib.error
from urllib.request import urlopen

import pytest

from repro.server import connect
from repro.server.httpexpo import MetricsHTTPServer
from repro.server.service import Server
from repro.server.top import render_top
from repro.telemetry.statstats import (
    LogBucketHistogram,
    StatementStats,
    fingerprint,
    normalize_statement,
)


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=2.0).start()
    yield srv
    srv.shutdown()


# ---------------------------------------------------------------------------
# normalization and fingerprints
# ---------------------------------------------------------------------------


def test_normalization_strips_literals_keeps_identifiers():
    assert normalize_statement(
        'replace (Dept.name = "toys dept") where Dept.budget = 100'
    ) == "replace (Dept.name = ?) where Dept.budget = ?"
    # identifiers with digits and dotted paths survive; numbers do not
    assert normalize_statement(
        "retrieve (Emp1.dept.name) where Emp1.salary > 10.5"
    ) == "retrieve (Emp1.dept.name) where Emp1.salary > ?"
    # whitespace collapses, case is preserved (identifiers are case-
    # sensitive in the query language)
    assert normalize_statement("retrieve   (Emp1.name)\n") == \
        "retrieve (Emp1.name)"
    # escaped quotes and negative numbers inside strings stay one literal
    assert normalize_statement(r'replace (Dept.name = "a \" -5 b")') == \
        "replace (Dept.name = ?)"


def test_fingerprint_groups_shapes_not_literals():
    fp_a, norm_a = fingerprint('replace (Dept.name = "x") where Dept.budget = 100')
    fp_b, norm_b = fingerprint('replace (Dept.name = "y") where Dept.budget = 999')
    assert fp_a == fp_b and norm_a == norm_b
    # which fields a statement touches IS its shape
    fp_c, __ = fingerprint("retrieve (Emp1.name)")
    fp_d, __ = fingerprint("retrieve (Emp1.salary)")
    assert fp_c != fp_d
    assert len(fp_a) == 12


# ---------------------------------------------------------------------------
# the streaming log-bucket histogram
# ---------------------------------------------------------------------------


def test_log_bucket_histogram_quantiles_without_samples():
    hist = LogBucketHistogram()
    for __ in range(100):
        hist.observe(1.0)
    # all mass in the bucket (0.8, 1.6]: every quantile interpolates there
    assert 0.8 <= hist.quantile(0.5) <= 1.6
    assert 0.8 <= hist.quantile(0.99) <= 1.6
    assert hist.mean() == pytest.approx(1.0)
    assert hist.total == 100


def test_log_bucket_histogram_separates_fast_and_slow_mass():
    hist = LogBucketHistogram()
    for __ in range(90):
        hist.observe(0.1)
    for __ in range(10):
        hist.observe(400.0)
    assert hist.quantile(0.5) < 1.0
    assert hist.quantile(0.95) > 100.0


def test_log_bucket_histogram_saturates_and_handles_empty():
    hist = LogBucketHistogram()
    assert hist.quantile(0.5) == 0.0
    hist.observe(10_000_000.0)  # beyond the last bound: the +Inf slot
    assert hist.counts[-1] == 1
    assert hist.quantile(0.99) == hist.bounds[-1]


# ---------------------------------------------------------------------------
# aggregation, eviction, enable switch
# ---------------------------------------------------------------------------


class _FakeIO:
    def __init__(self, reads, writes):
        self.physical_reads = reads
        self.physical_writes = writes


def test_aggregation_accumulates_per_fingerprint():
    stats = StatementStats()
    for i in range(3):
        stats.observe(f'replace (Dept.name = "v{i}")', 2.0,
                      io=_FakeIO(4, 2), rows=1, lock_wait_ms=1.5,
                      wal_bytes=100)
    stats.observe('replace (Dept.name = "x")', 8.0, outcome="LockTimeoutError")
    (entry,) = stats.entries()
    assert entry["calls"] == 4 and entry["errors"] == 1
    assert entry["rows"] == 3
    assert entry["physical_reads"] == 12 and entry["physical_writes"] == 6
    assert entry["io_pages"] == 18
    assert entry["lock_wait_ms"] == pytest.approx(4.5)
    assert entry["wal_bytes"] == 300
    assert entry["p99_ms"] >= entry["p50_ms"] > 0
    # wire-dict I/O shapes (the served path) also work
    stats.observe("retrieve (Emp1.name)", 1.0, io={"reads": 7, "writes": 0})
    assert stats.get(fingerprint("retrieve (Emp1.name)")[0])[
        "physical_reads"] == 7


def test_capacity_eviction_drops_least_called():
    stats = StatementStats(capacity=2)
    for __ in range(5):
        stats.observe("retrieve (Emp1.name)", 1.0)
    stats.observe("retrieve (Emp1.salary)", 1.0)
    stats.observe("retrieve (Emp1.age)", 1.0)  # evicts the least-called
    assert stats.evicted == 1
    kept = {e["statement"] for e in stats.entries()}
    assert "retrieve (Emp1.name)" in kept
    assert "retrieve (Emp1.salary)" not in kept
    assert stats.snapshot()["evicted"] == 1


def test_disabled_aggregator_is_a_noop():
    stats = StatementStats()
    stats.enabled = False
    assert stats.observe("retrieve (Emp1.name)", 1.0) is None
    assert len(stats) == 0


# ---------------------------------------------------------------------------
# embedded recording (execute_text)
# ---------------------------------------------------------------------------


def test_embedded_statements_are_fingerprinted(company):
    db = company["db"]
    db.execute('retrieve (Emp1.name) where Emp1.salary > 60000')
    db.execute('retrieve (Emp1.name) where Emp1.salary > 99999')
    db.execute('replace (Dept.budget = 7) where Dept.name = "toys"')
    entries = db.telemetry.statements.entries()
    by_stmt = {e["statement"]: e for e in entries}
    retrieve = by_stmt["retrieve (Emp1.name) where Emp1.salary > ?"]
    assert retrieve["calls"] == 2
    assert retrieve["rows"] == 5  # 4 + 1 matching employees
    replace = by_stmt["replace (Dept.budget = ?) where Dept.name = ?"]
    assert replace["calls"] == 1
    # registry metrics carry the same counts, labelled by fingerprint
    assert db.telemetry.metrics.value(
        "statement_calls_total", fingerprint=retrieve["fingerprint"]) == 2


def test_embedded_errors_are_counted(company):
    db = company["db"]
    with pytest.raises(Exception):
        db.execute("retrieve (Emp1.nosuchfield)")
    (entry,) = db.telemetry.statements.entries()
    assert entry["errors"] == 1


def test_embedded_wal_bytes_are_attributed():
    from repro import Database, TypeDefinition, char_field, int_field

    db = Database(wal=True)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20),
                                           int_field("budget")]))
    db.create_set("Dept", "DEPT")
    db.insert("Dept", {"name": "toys", "budget": 1})
    db.execute('replace (Dept.budget = 9) where Dept.name = "toys"')
    db.execute("retrieve (Dept.name)")
    by_stmt = {e["statement"]: e for e in db.telemetry.statements.entries()}
    replace_wal = by_stmt["replace (Dept.budget = ?) where Dept.name = ?"][
        "wal_bytes"]
    # the replace logs page images; the retrieve at most a boundary record
    assert replace_wal > by_stmt["retrieve (Dept.name)"]["wal_bytes"] > 0


def test_slowlog_records_carry_fingerprint_and_group(company):
    db = company["db"]
    db.telemetry.slowlog.configure(threshold_ms=0.0)
    db.execute("retrieve (Emp1.name) where Emp1.age > 30")
    db.execute("retrieve (Emp1.name) where Emp1.age > 99")
    db.execute("retrieve (Dept.name)")
    entries = db.telemetry.slowlog.entries()
    assert all(e["fingerprint"] for e in entries)
    grouped = db.telemetry.slowlog.grouped()
    assert len(grouped) == 2  # 3 records, 2 shapes
    counts = sorted(g["count"] for g in grouped)
    assert counts == [1, 2]  # the two age retrieves share one fingerprint


# ---------------------------------------------------------------------------
# served recording (session layer, wire verb, HTTP, \top)
# ---------------------------------------------------------------------------


def test_served_statements_fingerprint_once_and_serve_verb(server):
    db = server.db
    with connect(*server.address) as client:
        client.execute("retrieve (Emp1.name) where Emp1.salary > 60000")
        client.execute("retrieve (Emp1.name) where Emp1.salary > 99999")
        doc = client.statements()
    fingerprints = doc["fingerprints"]
    assert "ledger" in doc
    by_stmt = {e["statement"]: e for e in fingerprints["entries"]}
    entry = by_stmt["retrieve (Emp1.name) where Emp1.salary > ?"]
    # recorded exactly once per execution (session layer only, never also
    # in execute_text)
    assert entry["calls"] == 2
    assert entry["rows"] == 5
    assert fingerprints["calls"] == sum(
        e["calls"] for e in fingerprints["entries"])
    # the meta command renders the same table
    with connect(*server.address) as client:
        text = client.meta("fingerprints")
    assert "retrieve (Emp1.name) where Emp1.salary > ?" in text
    assert db.telemetry.statements.get(entry["fingerprint"])["calls"] == 2


def test_served_statements_wal_bytes_attributed_under_latch():
    from repro import Database, TypeDefinition, char_field, int_field

    db = Database(wal=True)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20),
                                           int_field("budget")]))
    db.create_set("Dept", "DEPT")
    db.insert("Dept", {"name": "toys", "budget": 1})
    srv = Server(db, max_connections=4, lock_timeout=2.0).start()
    try:
        with connect(*srv.address) as client:
            client.execute('replace (Dept.budget = 9) where Dept.name = "x"')
            doc = client.statements()
    finally:
        srv.shutdown()
    by_stmt = {e["statement"]: e
               for e in doc["fingerprints"]["entries"]}
    assert by_stmt["replace (Dept.budget = ?) where Dept.name = ?"][
        "wal_bytes"] > 0


def test_statements_endpoint_and_top_panes(server):
    server.db.telemetry.slowlog.configure(threshold_ms=0.0)
    sidecar = MetricsHTTPServer(server).start()
    try:
        with connect(*server.address) as client:
            client.execute("retrieve (Emp1.name, Emp1.dept.name)")
            client.execute("retrieve (Emp1.name, Emp1.dept.name)")
            stats = client.stats()
        base = f"http://{sidecar.host}:{sidecar.port}"
        with urlopen(base + "/statements", timeout=10.0) as response:
            assert response.status == 200
            doc = json.loads(response.read().decode("utf-8"))
        assert doc["fingerprints"]["distinct"] >= 1
        assert any(e["calls"] == 2 for e in doc["fingerprints"]["entries"])
        # /slow gained the fingerprint grouping
        with urlopen(base + "/slow", timeout=10.0) as response:
            slow = json.loads(response.read().decode("utf-8"))
        assert slow["grouped"] and slow["grouped"][0]["count"] >= 1
        # 404s advertise the new endpoint
        with pytest.raises(urllib.error.HTTPError) as info:
            urlopen(base + "/nope", timeout=10.0)
        body = json.loads(info.value.read().decode("utf-8"))
        assert "/statements" in body["endpoints"]
        # the stats snapshot feeds two new \top panes
        assert stats["statements"]["top"][0]["calls"] == 2
        assert "ledger" in stats
        frame = render_top(stats)
        assert "statements  distinct" in frame
        assert "slow offenders (grouped by fingerprint):" in frame
    finally:
        sidecar.shutdown()


def test_top_renders_ledger_pane():
    frame = render_top({
        "address": ["h", 1], "io": {}, "locks": {}, "wal": {}, "slow": {},
        "statements": {"distinct": 1, "evicted": 0,
                       "top": [{"calls": 3, "p95_ms": 1.0, "io_pages": 2,
                                "rows": 5, "statement": "retrieve (X.y)"}]},
        "ledger": [{"path": "Emp1.dept.name", "strategy": "inplace",
                    "reads": 1, "rows": 48, "updates": 9, "owners": 9,
                    "referencers": 108, "p_update": 0.9, "f": 12,
                    "percent_vs_none": 712.5, "verdict": "drop"}],
    })
    assert "replication ledger" in frame
    assert "+712.5" in frame and "Emp1.dept.name" in frame
