"""Sessions: statement dispatch, transactions, tracing."""

import json
import threading
import time

import pytest

from repro.errors import (
    DeadlockError,
    ParseError,
    ReproError,
)
from repro.server.locks import SCHEMA_RESOURCE
from repro.server.session import SessionManager
from repro.telemetry.statstats import fingerprint


@pytest.fixture()
def manager(company):
    mgr = SessionManager(company["db"], lock_timeout=2.0)
    yield mgr
    mgr.shutdown()


def test_retrieve_returns_rows_result(manager):
    session = manager.open_session("t")
    result = session.run_statement("retrieve (Emp1.name, Emp1.salary)")
    assert result["kind"] == "rows"
    assert result["columns"] == ["Emp1.name", "Emp1.salary"]
    assert ["alice", 50000] in result["rows"]
    assert result["io"]["reads"] >= 0 and "plan" in result


def test_a_ref_column_leaves_as_the_oid_string(manager, company):
    """An OID is a tuple; a wire row still carries it as the string it
    always sent, never as a JSON array."""
    session = manager.open_session("t")
    result = session.run_statement("retrieve (Emp1.name, Emp1.dept)")
    wire = json.loads(json.dumps(result))
    assert wire["rows"] == [
        ["alice", "OID(2:0.0)"], ["bob", "OID(2:0.0)"],
        ["carol", "OID(2:0.1)"], ["dave", "OID(2:0.1)"],
        ["erin", "OID(2:0.2)"], ["frank", "OID(2:0.2)"]]
    assert wire["rows"][2][1] == repr(company["depts"]["tools"])


def test_replace_and_ddl_and_explain(manager):
    session = manager.open_session("t")
    up = session.run_statement('replace (Dept.name = "games") where Dept.name = "toys"')
    assert up["kind"] == "rows"
    rows = session.run_statement("retrieve (Dept.name)")["rows"]
    assert ["games"] in rows
    ddl = session.run_statement("create Dept2 : { own ref DEPT }")
    assert ddl == {"kind": "ok", "detail": "ddl"}
    explain = session.run_statement("explain retrieve (Emp1.name)")
    assert explain["kind"] == "text" and "Emp1" in explain["text"]
    analyzed = session.run_statement("explain analyze retrieve (Emp1.name)")
    assert analyzed["kind"] == "text" and "row(s)" in analyzed["text"]


def test_statement_errors_are_repro_errors(manager):
    session = manager.open_session("t")
    with pytest.raises(ParseError):
        session.run_statement("")
    with pytest.raises(ParseError):
        session.run_statement("frobnicate the database")
    with pytest.raises(ReproError):
        session.run_statement("retrieve (Nope.name)")


def test_autocommit_releases_locks_at_statement_end(manager):
    session = manager.open_session("t")
    session.run_statement("retrieve (Emp1.name)")
    assert manager.locks.held_by(session.owner) == {}


def test_transaction_holds_locks_until_commit(manager):
    session = manager.open_session("t")
    session.run_statement("begin")
    session.run_statement("retrieve (Emp1.name)")
    held = manager.locks.held_by(session.owner)
    assert held.get("Emp1") == "S" and SCHEMA_RESOURCE in held
    session.run_statement('replace (Emp1.salary = 1)')
    assert manager.locks.held_by(session.owner).get("Emp1") == "X"
    session.run_statement("commit")
    assert manager.locks.held_by(session.owner) == {}


def test_abort_releases_locks_and_reports_durability_caveat(manager):
    session = manager.open_session("t")
    session.run_statement("begin")
    session.run_statement("retrieve (Emp1.name)")
    result = session.run_statement("abort")
    assert "locks released" in result["detail"]
    assert manager.locks.held_by(session.owner) == {}
    with pytest.raises(ReproError, match="no transaction"):
        session.run_statement("commit")
    with pytest.raises(ReproError, match="no transaction"):
        session.run_statement("abort")


def test_begin_twice_rejected(manager):
    session = manager.open_session("t")
    session.run_statement("begin")
    with pytest.raises(ReproError, match="already in a transaction"):
        session.run_statement("begin")


def test_failed_statement_releases_autocommit_locks(manager):
    session = manager.open_session("t")
    with pytest.raises(ReproError):
        session.run_statement("retrieve (Emp1.no_such_field)")
    assert manager.locks.held_by(session.owner) == {}


def _engine_bug(*args, **kwargs):
    raise KeyError("engine bug")


def _recorded_errors(db, text):
    return db.telemetry.statements.get(fingerprint(text)[0])["errors"]


def test_engine_bug_releases_autocommit_locks_and_is_recorded_failed(
        manager, monkeypatch):
    """A statement that dies of something that is not a ReproError still
    propagates (the service reports it and keeps serving), lets go of its
    autocommit locks, and counts as failed -- in the session and in its
    fingerprint."""
    monkeypatch.setattr("repro.query.runner.execute_update", _engine_bug)
    one, two = manager.open_session("one"), manager.open_session("two")
    with pytest.raises(KeyError):
        one.run_statement("replace (Emp1.age = 5)")
    assert manager.locks.held_by(one.owner) == {}
    assert one.errors == 1
    assert _recorded_errors(manager.db, "replace (Emp1.age = 5)") == 1
    # a leaked X(Emp1) would hold this up for the 2 s lock timeout and fail it
    started = time.perf_counter()
    assert two.run_statement("retrieve (Emp1.name)")["kind"] == "rows"
    assert time.perf_counter() - started < 1.0


def test_engine_bug_while_serving_a_cached_hit_releases_locks(
        manager, monkeypatch):
    one, two = manager.open_session("one"), manager.open_session("two")
    one.cache = True
    assert one.run_statement("retrieve (Emp1.name)")["cache"] == "miss"
    monkeypatch.setattr("repro.query.runner.serve_cached", _engine_bug)
    with pytest.raises(KeyError):
        one.run_statement("retrieve (Emp1.name)")
    assert manager.locks.held_by(one.owner) == {}
    assert one.errors == 1
    assert _recorded_errors(manager.db, "retrieve (Emp1.name)") == 1
    started = time.perf_counter()
    two.run_statement("replace (Emp1.age = 5)")
    assert time.perf_counter() - started < 1.0


def test_engine_bug_inside_a_transaction_keeps_locks_until_commit(
        manager, monkeypatch):
    monkeypatch.setattr("repro.query.runner.execute_update", _engine_bug)
    one = manager.open_session("one")
    one.run_statement("begin")
    with pytest.raises(KeyError):
        one.run_statement("replace (Emp1.age = 5)")
    # strict 2PL: what the transaction touched stays locked until it ends
    assert manager.locks.held_by(one.owner).get("Emp1") == "X"
    assert one.in_txn and one.errors == 1
    assert _recorded_errors(manager.db, "replace (Emp1.age = 5)") == 1
    one.run_statement("commit")
    assert manager.locks.held_by(one.owner) == {}


def test_conflicting_transactions_deadlock_and_victim_recovers(manager):
    """Two sessions lock Emp1 / Dept in opposite orders; the younger is
    aborted with DeadlockError, its transaction ends, the older finishes."""
    s1 = manager.open_session("older")
    s2 = manager.open_session("younger")
    s1.run_statement("begin")
    s2.run_statement("begin")
    s1.run_statement('replace (Emp1.salary = 1)')   # s1: X(Emp1)
    s2.run_statement('replace (Dept.budget = 1)')   # s2: X(Dept)
    outcome = {}

    def older():
        try:
            s1.run_statement('replace (Dept.budget = 2)')
            outcome["older"] = "granted"
        except DeadlockError:
            outcome["older"] = "victim"

    thread = threading.Thread(target=older)
    thread.start()
    with pytest.raises(DeadlockError):
        s2.run_statement('replace (Emp1.salary = 2)')  # closes the cycle
    thread.join(timeout=10.0)
    assert outcome == {"older": "granted"}
    # the victim's transaction was auto-aborted: locks gone, txn over
    assert manager.locks.held_by(s2.owner) == {}
    assert not s2.in_txn
    s1.run_statement("commit")
    # and the victim can simply retry
    s2.run_statement('replace (Emp1.salary = 2)')
    manager.db.verify()


def test_meta_commands(manager):
    session = manager.open_session("t")
    assert "Emp1" in session.run_meta("describe", [])["text"]
    assert "physical reads" in session.run_meta("stats", [])["text"]
    assert "invariants hold" in session.run_meta("verify", [])["text"]
    assert "doctor" in session.run_meta("doctor", [])["text"].lower() or \
        session.run_meta("doctor", [])["text"]
    assert "buffer pool" in session.run_meta("cold", [])["text"]
    with pytest.raises(ReproError, match="unknown meta-command"):
        session.run_meta("nonsense", [])
    assert manager.locks.held_by(session.owner) == {}


def test_trace_toggle_is_per_session(manager):
    s1 = manager.open_session("a")
    s2 = manager.open_session("b")
    s1.run_meta("trace", ["on"])
    s1.run_statement("retrieve (Emp1.name)")
    s2.run_statement("retrieve (Dept.name)")
    dump = s1.run_meta("trace", ["dump"])["text"]
    assert "Emp1" in dump
    assert "retrieve (Dept.name)" not in dump  # s2 ran untraced
    assert s1.run_meta("trace", ["off"])["text"] == "tracing off"


def test_close_session_releases_locks(manager):
    session = manager.open_session("t")
    session.run_statement("begin")
    session.run_statement("retrieve (Emp1.name)")
    manager.close_session(session)
    other = manager.open_session("o")
    other.run_statement('replace (Emp1.salary = 9)')  # must not block


def test_active_sessions_gauge(manager):
    metrics = manager.db.telemetry.metrics
    base = metrics.value("server_active_sessions")
    session = manager.open_session("t")
    assert metrics.value("server_active_sessions") == base + 1
    manager.close_session(session)
    manager.close_session(session)  # idempotent
    assert metrics.value("server_active_sessions") == base


def test_served_query_physical_io_matches_direct_execution(manager):
    """The server layer adds locks and a latch, never page traffic: a
    query through a session costs exactly the engine's own I/O.  A
    served retrieve writes no result file, so the direct arm runs with
    ``materialize=False``."""
    db = manager.db
    session = manager.open_session("t")
    db.cold_cache()
    served = session.run_statement("retrieve (Emp1.name, Emp1.dept.name)")
    db.cold_cache()
    direct = db.measure(
        lambda: db.execute("retrieve (Emp1.name, Emp1.dept.name)",
                           materialize=False))
    assert served["io"]["reads"] == direct.physical_reads
    assert served["io"]["writes"] == direct.physical_writes
    assert served["io"]["reads"] > 0
