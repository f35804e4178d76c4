"""The batched (set-oriented) join operator: sweeps, stats, analyze labels."""

from repro.query.analyze import operators_total_io
from repro.schema.database import Database
from tests.conftest import define_employee_schema
from tests.test_executor_parity import reference_retrieve


def _op(result, name):
    matches = [op for op in result.operators if op.name == name]
    assert matches, f"no operator {name!r} in {[o.name for o in result.operators]}"
    return matches[0]


# -- read_many: the ordered sweep --------------------------------------------


def test_read_many_dedupes_and_counts(company):
    db = company["db"]
    refs = [db.store.read(oid).ref("dept") for oid in company["emps"].values()]
    assert len(refs) == 6
    before = db.stats.snapshot()
    objs = db.store.read_many(refs)
    delta = db.stats.snapshot() - before
    assert len(objs) == 3  # six probes, three distinct departments
    assert delta.batch_dedup_saved == 3
    names = {obj.values["name"] for obj in objs.values()}
    assert names == {"toys", "tools", "shoes"}


def test_read_many_leaves_no_pins(company):
    db = company["db"]
    refs = [db.store.read(oid).ref("dept") for oid in company["emps"].values()]
    db.store.read_many(refs)
    assert db.storage.pool.pinned_keys() == []


def test_read_many_empty_and_duplicate_only(company):
    db = company["db"]
    assert db.store.read_many([]) == {}
    oid = company["depts"]["toys"]
    objs = db.store.read_many([oid, oid, oid])
    assert list(objs) == [oid]


# -- EXPLAIN ANALYZE under the batched executor ------------------------------


def test_batched_analyze_hop_labels_match_naive(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze("retrieve (Emp1.dept.org.name)",
                                materialize=False)
    join = _op(result, "functional_join")
    assert [c.name for c in join.children] == ["hop dept", "hop org"]
    assert join.rows == 6
    assert sum(c.physical_reads for c in join.children) == join.physical_reads
    assert operators_total_io(result.operators) == result.io.total_io


def test_batched_analyze_reports_distinct_and_dedup(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze("retrieve (Emp1.dept.name)",
                                materialize=False)
    hop = _op(result, "functional_join").children[0]
    assert hop.rows == 6
    assert hop.distinct == 3
    assert hop.dedup_saved == 3


# -- NULL references: null-hits, never phantom hops --------------------------


def test_mid_chain_null_records_null_hit_not_phantom_hop(company):
    db = company["db"]
    lost = db.insert("Dept", {"name": "lost", "budget": 1, "org": None})
    db.insert("Emp1", {"name": "zed", "age": 99, "salary": 1, "dept": lost})
    db.insert("Emp1", {"name": "nix", "age": 98, "salary": 1, "dept": None})
    db.cold_cache()
    result = db.explain_analyze("retrieve (Emp1.dept.org.name)",
                                materialize=False)
    join = _op(result, "functional_join")
    # zed's chain dies at org, nix's at dept: two null-hits on the join op
    assert join.nulls == 2
    assert [c.name for c in join.children] == ["hop dept", "hop org"]
    for child in join.children:
        assert child.rows > 0, f"phantom zero-row child {child.name!r}"
    assert join.children[0].rows == 7  # nix never took the first hop
    assert join.children[1].rows == 6
    assert sum(1 for r in result.rows if r[0] is None) == 2


def test_all_null_level_creates_no_hop_child():
    db = Database()
    define_employee_schema(db)
    for i in range(3):
        db.insert("Emp1", {"name": f"e{i}", "age": i, "salary": 1, "dept": None})
    result = db.explain_analyze("retrieve (Emp1.dept.name)",
                                materialize=False)
    join = _op(result, "functional_join")
    assert join.children == []
    assert join.nulls == 3
    assert result.rows == [(None,), (None,), (None,)]


# -- batching mechanics ------------------------------------------------------


def test_small_batches_preserve_row_order(company):
    db = Database(join_batch_rows=2)
    define_employee_schema(db)
    reference = company["db"].execute(
        "retrieve (Emp1.name, Emp1.dept.org.name)", materialize=False)
    # rebuild the same data in the fresh 2-row-batch database
    orgs = {n: db.insert("Org", dict(name=n, budget=b))
            for n, b in [("acme", 1_000_000), ("globex", 2_000_000)]}
    depts = {}
    for n, b, o in [("toys", 100, "acme"), ("tools", 200, "acme"),
                    ("shoes", 300, "globex")]:
        depts[n] = db.insert("Dept", {"name": n, "budget": b, "org": orgs[o]})
    for i, (e, d) in enumerate([("alice", "toys"), ("bob", "toys"),
                                ("carol", "tools"), ("dave", "tools"),
                                ("erin", "shoes"), ("frank", "shoes")]):
        db.insert("Emp1", {"name": e, "age": 30 + i, "salary": 50_000,
                           "dept": depts[d]})
    result = db.execute("retrieve (Emp1.name, Emp1.dept.org.name)",
                        materialize=False)
    assert result.rows == reference.rows


def test_join_batch_rows_floor():
    db = Database(join_batch_rows=0)
    assert db.join_batch_rows == 1


def test_file_scan_readahead_counts_and_same_physical_reads():
    db = Database()
    define_employee_schema(db)
    for i in range(200):
        db.insert("Emp1", {"name": f"e{i}", "age": i, "salary": i,
                           "dept": None})
    query = "retrieve (Emp1.name)"
    rows = []
    for run in (lambda: reference_retrieve(db, query),
                lambda: db.execute(query, materialize=False)):
        db.cold_cache()
        before = db.stats.snapshot()
        result = run()
        rows.append((result.rows, db.stats.snapshot() - before))
    (naive_rows, naive_io), (batched_rows, batched_io) = rows
    assert batched_rows == naive_rows
    assert batched_io.prefetch_issued > 0
    assert naive_io.prefetch_issued == 0
    # read-ahead reorders reads ahead of demand; it never adds any
    assert batched_io.physical_reads == naive_io.physical_reads


def test_index_scan_batched_preserves_key_order(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    db.cold_cache()
    result = db.execute(
        "retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary >= 60000",
        materialize=False)
    assert "IndexScan" in result.plan
    assert [r[0] for r in result.rows] == ["bob", "carol", "dave", "erin",
                                           "frank"]
