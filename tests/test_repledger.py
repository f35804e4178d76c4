"""The replication ledger: each replicated path's account in the workload
monitor (reads served, propagating statements, owners, referencers), the
engine's one count per statement, and the Section 6 model's keep/drop
verdict priced from it when it is read."""

from types import SimpleNamespace

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.costmodel.advisor import MIN_WORTHWHILE_SAVING
from repro.costmodel.model import Setting, percent_difference
from repro.costmodel.params import CostParameters, ModelStrategy
from repro.monitor import WorkloadMonitor, apply_recommendations
from repro.replication.spec import Strategy


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


def _account(db, path_text):
    (row,) = [r for r in db.monitor.ledger() if r["path"] == path_text]
    return row


def _model(strategy, p_update, f):
    """The monitor's defaults: f_r = f_s = 0.001, n_s = 10,000, unclustered."""
    return percent_difference(CostParameters(n_s=10_000, f=f, f_r=0.001,
                                             f_s=0.001),
                              strategy, Setting.UNCLUSTERED, p_update)


# ---------------------------------------------------------------------------
# the account itself
# ---------------------------------------------------------------------------


def test_charge_credit_net_and_entry_order():
    """Propagations and served reads are plain counts; the model prices
    them when the ledger is read, worst path first."""
    monitor = WorkloadMonitor()
    hot = SimpleNamespace(text="Emp.dept.name", strategy=Strategy.IN_PLACE)
    cold = SimpleNamespace(text="Emp.dept.org.name",
                           strategy=Strategy.SEPARATE)
    monitor.record_propagation(hot, owners=1, referencers=12)
    monitor.record_propagation(hot, owners=2, referencers=24)
    monitor.record_served(hot, rows=48)
    monitor.record_served(cold, rows=10)
    rows = monitor.ledger()
    assert [r["path"] for r in rows] == ["Emp.dept.name", "Emp.dept.org.name"]
    worst, best = rows
    assert (worst["reads"], worst["rows"], worst["updates"], worst["owners"],
            worst["referencers"]) == (1, 48, 2, 3, 36)
    assert worst["p_update"] == pytest.approx(2 / 3) and worst["f"] == 12
    assert worst["percent_vs_none"] == pytest.approx(
        _model(ModelStrategy.IN_PLACE, 2 / 3, 12))
    assert worst["verdict"] == "drop"
    assert best["p_update"] == 0.0 and best["f"] == 1
    assert best["percent_vs_none"] == pytest.approx(
        _model(ModelStrategy.SEPARATE, 0.0, 1))
    # a separate path at f = 1 saves about 1.2 %: short of the bar the
    # advisor sets for replicating a path at all, so it is not kept either
    assert -MIN_WORTHWHILE_SAVING < best["percent_vs_none"] < 0
    assert best["verdict"] == "drop"
    monitor.forget("Emp.dept.name")
    assert [r["path"] for r in monitor.ledger()] == ["Emp.dept.org.name"]
    monitor.reset()
    assert monitor.ledger() == []
    assert "no replication activity" in monitor.render_ledger()


def test_render_text_table():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    text = db.monitor.render_ledger()
    header, line = text.splitlines()
    for column in ("reads", "rows", "updates", "owners", "refs", "P_update",
                   "vs none", "verdict", "path"):
        assert column in header
    assert line.split()[:7] == ["1", "48", "1", "1", "12", "0.500", "12"]
    assert line.split()[-2:] == ["drop", "Emp.dept.name"]


# ---------------------------------------------------------------------------
# engine wiring: one count per statement and path
# ---------------------------------------------------------------------------


def test_propagations_charge_and_replica_reads_credit():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "renamed") where Dept.budget = 100')
    (entry,) = db.monitor.ledger()
    assert entry["path"] == "Emp.dept.name"
    assert (entry["updates"], entry["owners"]) == (1, 1)
    assert entry["referencers"] == 12  # 48 emps / 4 depts
    assert entry["reads"] == 0
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    entry = _account(db, "Emp.dept.name")
    assert entry["reads"] == 1
    assert entry["rows"] == 48


def test_a_multi_victim_replace_charges_one_union_push_per_path():
    """Three Depts renamed by one statement: one propagating statement
    with 3 owners and 36 referencers (f = 12), pushed once over the union
    of their closures, while the counters still count owners and
    referencers.  A one-object update is counted as it always was."""
    db = _build()
    db.replicate("Emp.dept.name")
    metrics = db.telemetry.metrics
    owners = metrics.value("replication_propagations_total")
    fanout = metrics.value("replication_fanout_total")
    db.execute('replace (Dept.name = "renamed") '
               "where Dept.budget >= 100 and Dept.budget <= 102")
    (entry,) = db.monitor.ledger()
    assert (entry["updates"], entry["owners"], entry["referencers"]) == \
        (1, 3, 36)
    assert entry["f"] == 12
    assert metrics.value("replication_propagations_total") - owners == 3
    assert metrics.value("replication_fanout_total") - fanout == 36
    (last,) = [oid for oid, obj in db.catalog.get_set("Dept").scan()
               if obj.values["budget"] == 103]
    db.update("Dept", last, {"name": "alone"})
    (entry,) = db.monitor.ledger()
    assert (entry["updates"], entry["owners"], entry["referencers"]) == \
        (2, 4, 48)


def test_a_separate_paths_verdict_is_the_sign_of_the_model():
    """A separate path counts the referencers sharing each rewritten
    replica, and its verdict is the sign of the model's separate-strategy
    percentage at the observed P_update and f."""
    db = _build()
    db.replicate("Emp.dept.name", strategy="separate")
    for i in range(3):
        db.execute(f'replace (Dept.name = "n{i}") '
                   "where Dept.budget >= 100 and Dept.budget <= 101")
    for __ in range(5):
        db.execute("retrieve (Emp.name, Emp.dept.name)")
    entry = _account(db, "Emp.dept.name")
    assert entry["strategy"] == "separate"
    assert (entry["reads"], entry["updates"], entry["owners"],
            entry["referencers"]) == (5, 3, 6, 72)
    percent = _model(ModelStrategy.SEPARATE, 3 / 8, 12)
    assert entry["percent_vs_none"] == pytest.approx(percent)
    # well clear of the advisor's 2 % bar, so the sign decides
    assert percent < -MIN_WORTHWHILE_SAVING
    assert entry["verdict"] == ("drop" if percent > 0 else "keep")
    (candidate,) = [c for c in db.monitor.candidates()
                    if c.percent_vs_none is not None]
    assert candidate.action == entry["verdict"]
    assert candidate.estimated_p_update == pytest.approx(3 / 8)


def test_where_clause_hidden_reads_credit():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('retrieve (Emp.name) where Emp.dept.name = "dept1"')
    (entry,) = db.monitor.ledger()
    assert entry["reads"] == 1
    assert entry["rows"] == 12
    assert entry["updates"] == 0


def test_a_collapsed_ref_path_read_is_counted(company):
    """A read through a replicated reference (the plan's ``jump`` step)
    is served by that path."""
    db = company["db"]
    db.replicate("Emp1.dept.org")
    db.execute("retrieve (Emp1.name, Emp1.dept.org.name)")
    (entry,) = db.monitor.ledger()
    assert entry["path"] == "Emp1.dept.org"
    assert (entry["reads"], entry["rows"]) == (1, 6)


def test_a_lazy_path_counts_every_invalidating_statement():
    """A lazy path's update statements only queue their owner; each still
    counts as a propagating statement, and the refresh before the next
    read adds the owners and referencers it reached."""
    db = _build()
    db.replicate("Emp.dept.name", lazy=True)
    for i in range(3):
        db.execute(f'replace (Dept.name = "n{i}") where Dept.budget = 100')
    entry = _account(db, "Emp.dept.name")
    assert (entry["updates"], entry["owners"], entry["referencers"]) == \
        (3, 0, 0)
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    entry = _account(db, "Emp.dept.name")
    # three invalidations of one Dept: one refreshed owner, its 12 Emps
    assert (entry["reads"], entry["updates"], entry["owners"],
            entry["referencers"]) == (1, 3, 1, 12)
    assert entry["p_update"] == pytest.approx(3 / 4) and entry["f"] == 12


def test_a_fan_out_beyond_the_models_page_is_priced_at_its_cap():
    """One Dept shared by more Emps than a model link object can hold:
    the ledger prices the largest f the model sizes instead of failing,
    and so do the candidates and the served ``stats`` verb."""
    from repro.server import connect
    from repro.server.service import Server

    cap = CostParameters().max_f
    db = _build(depts=1, emps=cap + 6)
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "wide") where Dept.budget = 100')
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    entry = _account(db, "Emp.dept.name")
    assert (entry["owners"], entry["referencers"]) == (1, cap + 6)
    assert entry["f"] == cap
    assert entry["percent_vs_none"] == pytest.approx(
        _model(ModelStrategy.IN_PLACE, 0.5, cap))
    assert db.monitor.candidates()[0].path_text == "Emp.dept.name"
    assert "Emp.dept.name" in db.monitor.report()
    server = Server(db, max_connections=2).start()
    try:
        with connect(*server.address) as client:
            (row,) = client.stats()["ledger"]
            assert row["f"] == cap
            assert client.execute("retrieve (Emp.name) "
                                  'where Emp.dept.name = "wide"').rows
    finally:
        server.shutdown()


def test_unreplicated_joins_are_not_credited():
    db = _build()
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert db.monitor.ledger() == []


def test_drop_replication_settles_the_account():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    assert _account(db, "Emp.dept.name")["verdict"] == "drop"
    from repro.schema.parser import execute_ddl

    execute_ddl(db, "drop replicate Emp.dept.name")
    assert db.monitor.ledger() == []


# ---------------------------------------------------------------------------
# the monitor prices the account: keep/drop ranking
# ---------------------------------------------------------------------------


def test_write_heavy_path_becomes_drop_candidate():
    db = _build()
    db.replicate("Emp.dept.name")
    for i in range(30):
        db.execute(f'replace (Dept.name = "n{i}") '
                   f"where Dept.budget = {100 + i % 4}")
    db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert _account(db, "Emp.dept.name")["verdict"] == "drop"
    candidates = db.monitor.candidates()
    first = candidates[0]
    assert first.action == "drop"
    assert first.path_text == "Emp.dept.name"
    assert first.percent_vs_none > 0
    assert first.ddl == "drop replicate Emp.dept.name"
    # the priced verdict shows up in the monitor report too
    report = db.monitor.report()
    assert "replication ledger (Section 6 model" in report
    assert " drop " in report
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
    assert _account(db, "Emp.dept.name")["verdict"] == "keep"
    first = db.monitor.candidates()[0]
    assert first.action == "keep"
    assert first.percent_vs_none <= 0
    assert first.ddl is None
    assert " keep " in db.monitor.report()


def test_measured_candidates_rank_before_nominal_ones():
    db = _build()
    db.replicate("Emp.dept.name")
    db.execute('replace (Dept.name = "x") where Dept.budget = 100')
    # an unreplicated path the advisor will nominate
    db.define_type(TypeDefinition("ORG", [char_field("title", 40)]))
    db.create_set("Org", "ORG")
    candidates = db.monitor.candidates()
    measured = [c for c in candidates if c.percent_vs_none is not None]
    nominal = [c for c in candidates if c.percent_vs_none is None]
    assert measured and measured[0] is candidates[0]
    for c in nominal:
        assert candidates.index(c) > candidates.index(measured[-1])
