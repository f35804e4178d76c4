"""EXPLAIN ANALYZE: per-operator rows + physical I/O on executed plans."""

import random

from repro.query.analyze import operators_total_io, render_analyze
from repro.workloads import WorkloadConfig, build_model_database


def _op(result, name):
    matches = [op for op in result.operators if op.name == name]
    assert matches, f"no operator {name!r} in {[o.name for o in result.operators]}"
    return matches[0]


def test_plain_execution_has_no_operator_stats(company):
    db = company["db"]
    result = db.execute("retrieve (Emp1.name)", materialize=False)
    assert result.operators is None


def test_analyze_operators_sum_to_total_io(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze(
        "retrieve (Emp1.name, Emp1.dept.name)", materialize=False
    )
    assert result.operators is not None
    assert operators_total_io(result.operators) == result.io.total_io
    scan = _op(result, "scan")
    assert scan.rows == 6
    join = _op(result, "functional_join")
    assert join.rows == 6
    assert join.physical_reads > 0
    # per-hop children carry the same I/O (contained in the parent)
    assert [c.name for c in join.children] == ["hop dept"]
    assert join.children[0].physical_reads == join.physical_reads


def test_analyze_replicated_vs_unreplicated_path(company):
    """The acceptance scenario: the same path query, with and without
    replication, each decomposing exactly into its operators."""
    db = company["db"]
    db.cold_cache()
    plain = db.explain_analyze("retrieve (Emp1.dept.name)", materialize=False)
    assert operators_total_io(plain.operators) == plain.io.total_io
    assert _op(plain, "functional_join").physical_reads > 0

    db.replicate("Emp1.dept.name")
    db.cold_cache()
    replicated = db.explain_analyze("retrieve (Emp1.dept.name)",
                                    materialize=False)
    assert operators_total_io(replicated.operators) == replicated.io.total_io
    # the hidden-field read does no extra I/O: the join cost disappeared
    assert _op(replicated, "replicated_read").physical_reads == 0
    assert replicated.io.total_io < plain.io.total_io


def test_analyze_covers_refresh_sort_and_materialize(company):
    db = company["db"]
    db.replicate("Emp1.dept.name", lazy=True)
    db.update("Dept", company["depts"]["toys"], {"name": "bricks"})
    db.cold_cache()
    result = db.explain_analyze(
        "retrieve (Emp1.name, Emp1.dept.name) order by Emp1.salary"
    )
    names = [op.name for op in result.operators]
    assert names[0] == "refresh"
    assert "sort_key" in names and "materialize" in names
    assert _op(result, "refresh").rows >= 1
    assert _op(result, "materialize").physical_writes > 0
    assert operators_total_io(result.operators) == result.io.total_io


def test_analyze_two_level_path_has_two_hops(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze("retrieve (Emp1.dept.org.name)",
                                materialize=False)
    join = _op(result, "functional_join")
    assert [c.name for c in join.children] == ["hop dept", "hop org"]
    assert sum(c.physical_reads for c in join.children) == join.physical_reads
    assert operators_total_io(result.operators) == result.io.total_io


def test_analyze_update_statement(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    db.cold_cache()
    result = db.explain_analyze(
        "replace (Dept.name = 'bricks') where Dept.budget <= 200"
    )
    scan = _op(result, "scan")
    update = _op(result, "update")
    assert scan.rows == update.rows == 2
    # writes are deferred to the pool; the update op still did the reads
    assert update.physical_reads > 0
    assert operators_total_io(result.operators) == result.io.total_io


def test_analyze_replace_is_one_update_operator_with_the_same_io():
    """A replace runs set-at-a-time with or without analyze: a scan and
    one ``update`` operator over every victim, and the physical I/O of the
    statement unchanged by the metering."""
    cfg = WorkloadConfig(n_s=200, f=2, f_s=0.05, strategy="inplace", seed=9)
    query = ("replace (S.repfield = 'renamed') "
             "where S.field_s >= 20 and S.field_s <= 29")
    results = []
    for analyze in (False, True):
        db = build_model_database(cfg).db
        db.cold_cache()
        results.append(db.execute(query, analyze=analyze))
    plain, analyzed = results
    assert [op.name for op in analyzed.operators] == ["scan", "update"]
    scan, update = analyzed.operators
    assert scan.rows == update.rows == len(plain) == 10
    assert update.children == []
    assert analyzed.io == plain.io
    assert operators_total_io(analyzed.operators) == analyzed.io.total_io


def test_analyze_delete_statement(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze("delete from Emp1 where Emp1.salary >= 90000")
    assert _op(result, "delete").rows == 2
    assert operators_total_io(result.operators) == result.io.total_io


def test_analyze_does_not_change_results_or_io(company):
    db = company["db"]
    query = "retrieve (Emp1.name, Emp1.dept.name) where Emp1.age >= 32"
    db.cold_cache()
    plain = db.execute(query, materialize=False)
    db.cold_cache()
    analyzed = db.execute(query, materialize=False, analyze=True)
    assert analyzed.rows == plain.rows
    assert analyzed.io == plain.io


def test_render_analyze_output(company):
    db = company["db"]
    db.cold_cache()
    result = db.explain_analyze("retrieve (Emp1.dept.name)", materialize=False)
    text = render_analyze(result)
    assert "operator" in text and "scan" in text and "total" in text
    plain = db.execute("retrieve (Emp1.name)", materialize=False)
    assert "analyze=True" in render_analyze(plain)


def test_analyze_on_model_workload_matches_total():
    """Cold-cache path query over the two-set schema: the functional-join
    operator carries the dominant share and everything sums exactly."""
    cfg = WorkloadConfig(n_s=200, f=2, f_r=0.02, f_s=0.01, strategy="none",
                         seed=9)
    mdb = build_model_database(cfg)
    rng = random.Random(3)
    lo = rng.randrange(0, cfg.n_r - 5)
    mdb.db.cold_cache()
    result = mdb.db.explain_analyze(
        f"retrieve (R.field_r, R.sref.repfield) "
        f"where R.field_r >= {lo} and R.field_r <= {lo + 4}"
    )
    assert operators_total_io(result.operators) == result.io.total_io
    join = [op for op in result.operators if op.name == "functional_join"][0]
    assert join.rows == 5
    assert join.physical_reads > 0
