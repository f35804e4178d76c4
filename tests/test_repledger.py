"""The replication cost/benefit ledger: unit accounting, the engine's
charge/credit wiring, and the monitor's measured keep/drop ranking."""

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.costmodel.sortedprobe import sorted_probe_pages
from repro.monitor import apply_recommendations
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.repledger import (
    ReplicationLedger,
    counterfactual_hop_pages,
    counterfactual_join_pages,
)


def _build(depts=4, emps=48):
    db = Database(buffer_frames=64)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 40),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 40),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    dept_oids = [db.insert("Dept", {"name": f"dept{i}", "budget": 100 + i})
                 for i in range(depts)]
    for i in range(emps):
        db.insert("Emp", {"name": f"emp{i}", "salary": 1000 + i,
                          "dept": dept_oids[i % depts]})
    return db


# ---------------------------------------------------------------------------
# unit accounting
# ---------------------------------------------------------------------------


def test_charge_credit_net_and_entry_order():
    registry = MetricsRegistry()
    ledger = ReplicationLedger(metrics=registry)
    ledger.charge("Emp.dept.name", 2.0, fanout=12)
    ledger.charge("Emp.dept.name", 2.0, fanout=12)
    ledger.credit("Emp.dept.name", 1.0, rows=48)
    ledger.credit("Emp.dept.org.name", 9.0, rows=10)
    assert ledger.net("Emp.dept.name") == pytest.approx(-3.0)
    assert ledger.net("Emp.dept.org.name") == pytest.approx(9.0)
    assert ledger.net("never.seen") == 0.0
    entries = ledger.entries()
    # best net benefit first
    assert [e["path"] for e in entries] == \
        ["Emp.dept.org.name", "Emp.dept.name"]
    worst = entries[1]
    assert worst["propagations"] == 2 and worst["fanout"] == 24
    assert worst["reads_served"] == 1 and worst["rows_served"] == 48
    assert worst["charged_pages"] == 4.0 and worst["credited_pages"] == 1.0
    # the registry carries the same totals, labelled by path
    assert registry.value("replication_ledger_charged_pages_total",
                          path="Emp.dept.name") == pytest.approx(4.0)
    assert registry.value("replication_ledger_credited_pages_total",
                          path="Emp.dept.org.name") == pytest.approx(9.0)


def test_forget_clear_and_disable():
    ledger = ReplicationLedger()
    ledger.charge("a.b.c", 1.0, fanout=1)
    ledger.credit("x.y.z", 1.0, rows=1)
    assert len(ledger) == 2
    ledger.forget("a.b.c")
    assert len(ledger) == 1 and ledger.net("a.b.c") == 0.0
    ledger.enabled = False
    ledger.charge("x.y.z", 5.0)
    ledger.credit("x.y.z", 5.0)
    assert ledger.net("x.y.z") == pytest.approx(1.0)  # unchanged
    ledger.clear()
    assert len(ledger) == 0
    assert "no replication activity" in ledger.render_text()


def test_render_text_table():
    ledger = ReplicationLedger()
    ledger.charge("Emp.dept.name", 13.5, fanout=18)
    ledger.credit("Emp.dept.name", 1.0, rows=48)
    text = ledger.render_text()
    assert "Emp.dept.name" in text
    assert "-12.5" in text
    assert "net pages" in text


def test_counterfactual_pricing_uses_sorted_probe_bound():
    db = _build()
    dept_pages = db.catalog.get_set("Dept").num_pages()
    assert dept_pages >= 1
    # fewer probes than pages: one page per distinct probe
    assert counterfactual_hop_pages(db, "DEPT", 1) == 1.0
    # more probes than pages: saturates at the file sweep
    assert counterfactual_hop_pages(db, "DEPT", 10_000) == float(dept_pages)
    assert counterfactual_hop_pages(db, "DEPT", 0) == 0.0
    path = db.replicate("Emp.dept.name")
    # one forward hop (EMP -> DEPT): join price equals the hop price
    assert counterfactual_join_pages(db, path, 48) == \
        counterfactual_hop_pages(db, "DEPT", 48)


# ---------------------------------------------------------------------------
# engine wiring: propagation charges, replicated reads credit
# ---------------------------------------------------------------------------


def test_propagations_charge_and_replica_reads_credit():
    db = _build()
    db.replicate("Emp.dept.name")
    ledger = db.telemetry.repledger
    db.execute('replace (Dept.name = "renamed") where Dept.budget = 100')
    after_write = ledger.entries()
    assert len(after_write) == 1
    entry = after_write[0]
    assert entry["path"] == "Emp.dept.name"
    assert entry["propagations"] == 1
    assert entry["fanout"] == 12  # 48 emps / 4 depts
    assert entry["charged_pages"] > 0
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    entry = ledger.entries()[0]
    assert entry["reads_served"] == 1
    assert entry["rows_served"] == 48
    assert entry["credited_pages"] > 0


def test_a_multi_victim_replace_charges_one_union_push_per_path():
    """Three Depts renamed by one statement: one charge over the union of
    their closures, sorted_probe_pages(P_Emp, 36) -- the model's Yao over
    f_s·|R| -- while the counters still count owners and referencers.  A
    one-object update is charged as it always was."""
    db = _build()
    db.replicate("Emp.dept.name")
    ledger, metrics = db.telemetry.repledger, db.telemetry.metrics
    emp_pages = db.catalog.get_set("Emp").num_pages()
    owners = metrics.value("replication_propagations_total")
    fanout = metrics.value("replication_fanout_total")
    db.execute('replace (Dept.name = "renamed") '
               "where Dept.budget >= 100 and Dept.budget <= 102")
    (entry,) = ledger.entries()
    assert entry["propagations"] == 1
    assert entry["fanout"] == 36
    union = sorted_probe_pages(emp_pages, 36)
    assert entry["charged_pages"] == pytest.approx(union)
    assert union <= 3 * sorted_probe_pages(emp_pages, 12)
    assert metrics.value("replication_propagations_total") - owners == 3
    assert metrics.value("replication_fanout_total") - fanout == 36
    (last,) = [oid for oid, obj in db.catalog.get_set("Dept").scan()
               if obj.values["budget"] == 103]
    db.update("Dept", last, {"name": "alone"})
    (entry,) = ledger.entries()
    assert entry["propagations"] == 2 and entry["fanout"] == 48
    assert entry["charged_pages"] == pytest.approx(
        union + sorted_probe_pages(emp_pages, 12))


def test_where_clause_hidden_reads_credit():
    db = _build()
    db.replicate("Emp.dept.name")
    ledger = db.telemetry.repledger
    db.execute('retrieve (Emp.name) where Emp.dept.name = "dept1"')
    entry = ledger.entries()[0]
    assert entry["reads_served"] == 1
    assert entry["rows_served"] == 12
    assert entry["credited_pages"] > 0
    assert entry["charged_pages"] == 0.0


def test_unreplicated_joins_are_not_credited():
    db = _build()
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert len(db.telemetry.repledger) == 0


def test_disabled_ledger_records_nothing():
    db = _build()
    db.replicate("Emp.dept.name")
    db.telemetry.repledger.enabled = False
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert len(db.telemetry.repledger) == 0


def test_drop_replication_settles_the_account():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    assert db.telemetry.repledger.net("Emp.dept.name") < 0
    from repro.schema.parser import execute_ddl

    execute_ddl(db, "drop replicate Emp.dept.name")
    assert db.telemetry.repledger.net("Emp.dept.name") == 0.0
    assert len(db.telemetry.repledger) == 0


# ---------------------------------------------------------------------------
# the monitor consumes the ledger: measured keep/drop ranking
# ---------------------------------------------------------------------------


def test_write_heavy_path_becomes_drop_candidate():
    db = _build()
    db.replicate("Emp.dept.name")
    for i in range(30):
        db.execute(f'replace (Dept.name = "n{i}") '
                   f"where Dept.budget = {100 + i % 4}")
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert db.telemetry.repledger.net("Emp.dept.name") < 0
    candidates = db.monitor.candidates()
    first = candidates[0]
    assert first.action == "drop"
    assert first.path_text == "Emp.dept.name"
    assert first.measured_net_io < 0
    assert first.ddl == "drop replicate Emp.dept.name"
    # the measured verdict shows up in the monitor report too
    report = db.monitor.report()
    assert "replication ledger (measured net benefit):" in report
    assert "-> drop" in report
    # apply_recommendations never executes keep/drop verdicts -- the
    # drop DDL is surfaced for the operator, not auto-run
    applied = apply_recommendations(db, [first])
    assert applied == []
    assert "Emp.dept.name" in db.catalog.paths


def test_read_heavy_path_becomes_keep_candidate():
    db = _build()
    db.replicate("Emp.dept.name")
    for __ in range(20):
        db.execute("retrieve (Emp.name, Emp.dept.name)")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    assert db.telemetry.repledger.net("Emp.dept.name") > 0
    first = db.monitor.candidates()[0]
    assert first.action == "keep"
    assert first.measured_net_io > 0
    assert first.ddl is None
    assert "-> keep" in db.monitor.report()


def test_measured_candidates_rank_before_nominal_ones():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    # an unreplicated path the advisor will nominate
    db.define_type(TypeDefinition("ORG", [char_field("title", 40)]))
    db.create_set("Org", "ORG")
    candidates = db.monitor.candidates()
    measured = [c for c in candidates if c.measured_net_io is not None]
    nominal = [c for c in candidates if c.measured_net_io is None]
    assert measured and measured[0] is candidates[0]
    for c in nominal:
        assert candidates.index(c) > candidates.index(measured[-1])
