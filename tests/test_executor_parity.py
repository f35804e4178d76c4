"""The executor against a row-at-a-time reference: rows over the query
corpus, page reads, crash recovery, and the victims of a filtered write.

:func:`reference_retrieve` runs a retrieve one scanned object and one
OID per hop at a time.  It shapes the rows with the executor's own
group/sort/limit/aggregate code (:func:`repro.query.executor.shape_rows`),
so any difference it finds is in how the batched pipeline reads.
"""

import random

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.errors import DiskFault, PlanningError
from repro.query import executor
from repro.query.language import parse_statement
from repro.query.plan import (
    FunctionalJoin,
    HiddenField,
    HiddenRefJump,
    LocalField,
    ReplicaFetch,
)
from repro.query.planner import plan_retrieve
from repro.workloads import WorkloadConfig, build_model_database, run_read_query

# -- the reference: one row, and one probe per hop, at a time ----------------


def _fetch(db: Database, step, obj):
    """One fetch step's value for one scanned object."""
    if isinstance(step, LocalField):
        return obj.values[step.field_name]
    if isinstance(step, HiddenField):
        return obj.values[step.hidden_field]
    if isinstance(step, ReplicaFetch):
        ref = obj.values[step.hidden_ref]
        if ref is None:
            return None
        replica = db.replication.replica_sets[step.path_id].read(ref)
        return replica.values[step.field_name]
    if isinstance(step, HiddenRefJump):
        return executor._join_from(db, obj.values[step.hidden_field],
                                   step.remaining_chain, step.field_name)
    assert isinstance(step, FunctionalJoin)
    return executor._join_from(db, obj.ref(step.chain[0]), step.chain[1:],
                               step.field_name)


def reference_retrieve(db: Database, text: str) -> executor.QueryResult:
    """Run the retrieve ``text`` row at a time, unmaterialised.

    Each object :func:`executor._scan` yields is read whole; its row,
    sort key and group key are fetched from it, a functional join by one
    :func:`executor._join_from` per row.  ``io`` covers the lazy refresh
    and the row loop, as the executor's does.
    """
    plan = plan_retrieve(db, parse_statement(text), materialize=False)
    before = db.stats.snapshot()
    for path_text in plan.refresh_paths:
        db.replication.refresh_path(db.catalog.get_path(path_text))
    rows, sort_keys, group_keys = [], [], []
    for __, obj in executor._scan(db, plan.set_name, plan.access, plan.where):
        rows.append(tuple(_fetch(db, step, obj) for step in plan.steps))
        if plan.order_step is not None:
            sort_keys.append(_fetch(db, plan.order_step, obj))
        if plan.group_steps:
            group_keys.append(
                tuple(_fetch(db, step, obj) for step in plan.group_steps))
    columns, rows = executor.shape_rows(plan, rows, sort_keys, group_keys)
    return executor.QueryResult(columns=columns, rows=rows,
                                io=db.stats.snapshot() - before,
                                plan=plan.explain())


def assert_matches_reference(db: Database, query: str) -> None:
    """``db.execute`` returns the reference's columns and rows, or both
    raise PlanningError; no pin outlives either."""
    try:
        want = reference_retrieve(db, query)
    except PlanningError:
        # a path filter with no index/replica is rejected at planning
        # time, so the executor must reject it too
        with pytest.raises(PlanningError):
            db.execute(query, materialize=False)
        return
    assert db.storage.pool.pinned_keys() == []
    got = db.execute(query, materialize=False)
    assert got.columns == want.columns, query
    assert got.rows == want.rows, query
    assert db.storage.pool.pinned_keys() == []


# -- a company with mid-chain NULLs and enough spread for every clause -------


def _populate(db: Database, dangling_org: bool = True) -> None:
    db.define_type(TypeDefinition("ORG", [char_field("name", 20),
                                          int_field("budget")]))
    db.define_type(TypeDefinition(
        "DEPT", [char_field("name", 20), int_field("budget"),
                 ref_field("org", "ORG")]))
    db.define_type(TypeDefinition(
        "EMP", [char_field("name", 20), int_field("age"), int_field("salary"),
                ref_field("dept", "DEPT")]))
    db.create_set("Org", "ORG")
    db.create_set("Dept", "DEPT")
    db.create_set("Emp1", "EMP")
    orgs = [db.insert("Org", {"name": f"org{i}", "budget": 1000 * i})
            for i in range(3)]
    depts = []
    for i in range(5):
        org = None if dangling_org and i == 4 else orgs[i % 3]
        depts.append(db.insert("Dept", {"name": f"dept{i}",
                                        "budget": 100 * i, "org": org}))
    for i in range(40):
        dept = None if i % 13 == 0 else depts[i % 5]  # some emps lack a dept
        db.insert("Emp1", {"name": f"emp{i:02d}", "age": 20 + i % 17,
                           "salary": 40_000 + 997 * (i * 7 % 40),
                           "dept": dept})


#: replication layouts the corpus runs under
_LAYOUTS = {
    "none": (),
    "inplace": (("Emp1.dept.name", {}), ("Emp1.dept.org.name", {})),
    "separate": (("Emp1.dept.name", {"strategy": "separate"}),),
    "lazy": (("Emp1.dept.name", {"lazy": True}),),
    "collapsed": (("Emp1.dept.org.name", {"collapsed": True}),),
}

_CORPUS = (
    "retrieve (Emp1.name)",
    "retrieve (Emp1.all)",
    "retrieve (Emp1.name, Emp1.dept.name)",
    "retrieve (Emp1.name, Emp1.dept.org.name)",
    "retrieve (Emp1.name) where Emp1.salary >= 60000 and Emp1.salary <= 70000",
    "retrieve (Emp1.name) where Emp1.dept.name = 'dept2'",
    "retrieve (Emp1.name, Emp1.dept.org.name) where Emp1.dept.org.name = 'org1'",
    "retrieve (Emp1.name, Emp1.salary) order by Emp1.salary desc limit 7",
    "retrieve (Emp1.name) order by Emp1.dept.name",
    "retrieve (Emp1.dept.name, count(Emp1.name), sum(Emp1.salary)) "
    "group by Emp1.dept.name",
    "retrieve (Emp1.dept.org.name, avg(Emp1.salary), max(Emp1.age)) "
    "group by Emp1.dept.org.name",
    "retrieve (count(Emp1.name), min(Emp1.salary))",
)


def _build(layout: str, **kwargs) -> Database:
    db = Database(**kwargs)
    # collapsed paths refuse null mid-chain refs, so that layout gets none
    _populate(db, dangling_org=(layout != "collapsed"))
    for path_text, opts in _LAYOUTS[layout]:
        db.replicate(path_text, **opts)
    return db


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_corpus_rows_identical_across_modes(layout):
    db = _build(layout, join_batch_rows=7)  # force multi-batch
    for query in _CORPUS:
        assert_matches_reference(db, query)


def test_lazy_refresh_then_parity():
    db = _build("lazy")
    assert db.execute("retrieve (Dept.name)").rows  # touch, then mutate
    victims = [oid for oid, __ in db.catalog.get_set("Dept").scan()][:2]
    for i, oid in enumerate(victims):
        db.update("Dept", oid, {"name": f"renamed{i}"})
    db.refresh("Emp1.dept.name")
    assert_matches_reference(db, "retrieve (Emp1.name, Emp1.dept.name)")


def test_analyze_matches_plain_under_batched():
    db = _build("inplace")
    for query in _CORPUS:
        db.cold_cache()
        plain = db.execute(query, materialize=False)
        db.cold_cache()
        analyzed = db.explain_analyze(query, materialize=False)
        assert analyzed.rows == plain.rows, query
        assert analyzed.io.total_io == plain.io.total_io, query


# -- a write statement's path filter picks the rows a retrieve does ----------


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_a_write_path_filter_picks_the_retrieved_rows(layout):
    """Victim collection reads each candidate whole and filters it
    (``executor._matches``): by a replicated field, a separate replica or
    a functional join, as the layout has it.  Its victims are the rows
    the batched pipeline retrieves under the same ``where``."""
    where = "where Emp1.dept.name = 'dept2'"
    db = _build(layout)
    try:
        want = db.execute(f"retrieve (Emp1.name) {where}",
                          materialize=False).rows
    except PlanningError:
        with pytest.raises(PlanningError):
            db.execute(f"delete from Emp1 {where}")
    else:
        names = {oid: obj.values["name"]
                 for oid, obj in db.catalog.get_set("Emp1").scan()}
        deleted = db.execute(f"delete from Emp1 {where}").rows
        assert want and [(names[oid],) for oid, in deleted] == want
        assert db.storage.pool.pinned_keys() == []

    # the index takes the salary bound; the path clause stays in the
    # residual filter, which joins where the layout replicates nothing
    where = "where Emp1.salary >= 50000 and Emp1.dept.name = 'dept2'"
    twin = _build(layout)
    twin.build_index("Emp1.salary")
    want = twin.execute(f"retrieve (Emp1.name) {where}",
                        materialize=False).rows
    replaced = twin.execute(f"replace (Emp1.age = 1) {where}").rows
    assert want and [(twin.store.read(oid).values["name"],)
                     for oid, in replaced] == want
    assert twin.storage.pool.pinned_keys() == []
    assert sorted(twin.execute("retrieve (Emp1.name) where Emp1.age = 1",
                               materialize=False).rows) == sorted(want)


# -- crash recovery leaves the executor on the reference's rows --------------


def _crash_build() -> Database:
    """A WAL database with wide records (real page traffic under 8 frames)."""
    db = Database(wal=True, buffer_frames=8)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 200),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 200),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": 100 * i})
             for i in range(3)]
    for i in range(60):
        db.insert("Emp", {"name": f"emp{i}", "salary": 1000 + i,
                          "dept": depts[i % 3]})
    db.replicate("Emp.dept.name")
    db.checkpoint()
    return db


@pytest.mark.parametrize("torn", [False, True])
def test_crash_recover_query_parity_under_batched(torn):
    db = _crash_build()
    depts = [oid for oid, __ in db.catalog.get_set("Dept").scan()]
    db.faults.fail_after_writes(3, torn=torn)
    crashed = False
    try:
        for i, dept in enumerate(depts):
            db.update("Dept", dept, {"name": f"renamed{i}" * 20})
    except DiskFault:
        crashed = True
    assert crashed, "workload too small to reach the fault point"
    assert db.recovery.needs_recovery
    report = db.recover()
    assert report.verified
    db.verify()
    # post-recovery, the executor and the reference agree on chained queries
    for query in (
        "retrieve (Emp.name, Emp.dept.name)",
        "retrieve (Emp.dept.name, count(Emp.name)) group by Emp.dept.name",
        "retrieve (Emp.name) order by Emp.salary desc limit 5",
    ):
        assert_matches_reference(db, query)


# -- batching does not cost page reads (Figure 12's shape at one fan-out) ----

_N_S, _FANOUT = 480, 4  # char(200) payloads: S spans ~30 pages


@pytest.mark.parametrize("frames", [12, 2048])  # smaller than S / holds all
@pytest.mark.parametrize("clustered", [False, True])
def test_batched_reads_no_more_pages_than_naive(clustered, frames):
    db = Database(buffer_frames=frames, join_batch_rows=1024)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 200),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 20),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp1", "EMP")
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": i})
             for i in range(_N_S)]
    order = list(range(_N_S * _FANOUT))
    if not clustered:
        random.Random(97).shuffle(order)
    for i in order:
        db.insert("Emp1", {"name": f"e{i}", "dept": depts[i // _FANOUT]})
    small = frames < db.catalog.get_set("Dept").num_pages()
    assert small == (frames == 12)
    query = "retrieve (Emp1.name, Emp1.dept.name)"
    db.cold_cache()
    runs = {"naive": reference_retrieve(db, query)}
    db.cold_cache()
    runs["batched"] = db.execute(query, materialize=False)
    assert runs["batched"].rows == runs["naive"].rows
    naive, batched = (runs[mode].io.physical_reads
                      for mode in ("naive", "batched"))
    if clustered and small:
        # naive's best case: each probe lands on the page the previous
        # one left resident, so the sweep's re-read of evicted scan pages
        # shows -- as a bounded overhead
        assert batched <= 1.25 * naive
    else:
        assert batched <= naive
    if small and not clustered:
        assert 2 * batched <= naive  # the case batching exists for


# -- the sorted-probe formula stays inside the drift tolerance ---------------

_DRIFT_CONFIG = dict(n_s=300, f=5, f_r=0.01, f_s=0.01, clustered=False)


@pytest.mark.parametrize("strategy", ["none", "separate"])
def test_batched_read_drift_under_15_percent(strategy):
    cfg = WorkloadConfig(strategy=strategy, **_DRIFT_CONFIG)
    mdb = build_model_database(cfg)
    rng = random.Random(cfg.seed + 1)
    for __ in range(6):
        run_read_query(mdb, rng)
    drift = mdb.drift
    assert len(drift.select(kind="read", strategy=strategy)) == 6
    assert drift.mean_rel_error("read", strategy) < 0.15
