"""Planner-shape tests: which access paths and fetch steps get picked."""

import pytest

from repro import TypeDefinition, char_field, float_field
from repro.errors import PlanningError
from repro.query.language import parse_statement
from repro.query.planner import plan_delete, plan_replace, plan_retrieve
from repro.query.runner import explain_text
from tests.test_executor_parity import (
    _CORPUS,
    _LAYOUTS,
    _build,
    reference_retrieve,
)


def plan_of(db, text):
    return plan_retrieve(db, parse_statement(text))


def test_no_where_is_filescan(company):
    plan = plan_of(company["db"], "retrieve (Emp1.name)")
    assert plan.access.explain() == "FileScan(Emp1)"
    assert plan.where is None


def test_unindexed_filter_is_residual_filescan(company):
    plan = plan_of(company["db"], "retrieve (Emp1.name) where Emp1.salary > 1")
    assert "FileScan" in plan.access.explain()
    assert plan.where is not None


def test_equality_beats_range_on_same_index(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    plan = plan_of(db, "retrieve (Emp1.name) where Emp1.salary = 5 and Emp1.salary >= 1")
    assert "= 5" in plan.access.explain()


def test_two_bounds_combine_into_one_range_scan(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    plan = plan_of(
        db, "retrieve (Emp1.name) where Emp1.salary >= 10 and Emp1.salary < 20"
    )
    text = plan.access.explain()
    assert ">= 10" in text and "< 20" in text


def test_tightest_bounds_win(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    plan = plan_of(
        db,
        "retrieve (Emp1.name) where Emp1.salary >= 10 and Emp1.salary > 15 "
        "and Emp1.salary <= 99 and Emp1.salary <= 50",
    )
    text = plan.access.explain()
    assert "> 15" in text and "<= 50" in text


def test_inequality_never_uses_index(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    plan = plan_of(db, "retrieve (Emp1.name) where Emp1.salary != 5")
    assert "FileScan" in plan.access.explain()


def test_fetch_step_priority_inplace_over_join(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    plan = plan_of(db, "retrieve (Emp1.dept.name, Emp1.dept.budget)")
    kinds = [type(step).__name__ for step in plan.steps]
    assert kinds == ["HiddenField", "FunctionalJoin"]


def test_fetch_step_separate(company):
    db = company["db"]
    db.replicate("Emp1.dept.budget", strategy="separate")
    plan = plan_of(db, "retrieve (Emp1.dept.budget)")
    assert type(plan.steps[0]).__name__ == "ReplicaFetch"


def test_three_level_jump_uses_longest_prefix(db):
    """A 3-level target with a replicated 2-prefix reference jumps there."""
    from repro import TypeDefinition, char_field, ref_field

    db.define_type(TypeDefinition("REGION", [char_field("name", 8)]))
    db.define_type(TypeDefinition("ORGX", [char_field("name", 8), ref_field("region", "REGION")]))
    db.define_type(TypeDefinition("DEPTX", [char_field("name", 8), ref_field("org", "ORGX")]))
    db.define_type(TypeDefinition("EMPX", [char_field("name", 8), ref_field("dept", "DEPTX")]))
    for s, t in [("RegionX", "REGION"), ("OrgX", "ORGX"), ("DeptX", "DEPTX"), ("EmpX", "EMPX")]:
        db.create_set(s, t)
    region = db.insert("RegionX", {"name": "west"})
    org = db.insert("OrgX", {"name": "acme", "region": region})
    dept = db.insert("DeptX", {"name": "toys", "org": org})
    db.insert("EmpX", {"name": "ada", "dept": dept})
    db.replicate("EmpX.dept.org")  # materialise the 2-level reference
    plan = plan_of(db, "retrieve (EmpX.dept.org.region.name)")
    step = plan.steps[0]
    assert type(step).__name__ == "HiddenRefJump"
    assert step.remaining_chain == ("region",)
    res = db.execute("retrieve (EmpX.dept.org.region.name)")
    assert res.rows == [("west",)]


def test_lazy_paths_listed_for_refresh(company):
    db = company["db"]
    db.replicate("Emp1.dept.name", lazy=True)
    plan = plan_of(db, "retrieve (Emp1.dept.name)")
    assert plan.refresh_paths == ("Emp1.dept.name",)


def test_hidden_target_rejected(company):
    db = company["db"]
    path = db.replicate("Emp1.dept.name")
    with pytest.raises(PlanningError):
        plan_of(db, f"retrieve (Emp1.{path.hidden_fields[0]})")


def test_non_ref_chain_rejected(company):
    with pytest.raises(PlanningError):
        plan_of(company["db"], "retrieve (Emp1.salary.name)")


def test_filter_on_wrong_set_rejected(company):
    with pytest.raises(PlanningError):
        plan_of(company["db"], "retrieve (Emp1.name) where Dept.budget = 1")


def test_replace_plan(company):
    db = company["db"]
    db.build_index("Dept.budget")
    plan = plan_replace(db, parse_statement("replace (Dept.name = 'x') where Dept.budget = 100"))
    assert "IndexScan" in plan.access.explain()
    assert plan.assignments == (("name", "x"),)
    assert "update(name='x')" in plan.explain()


def test_delete_plan(company):
    plan = plan_delete(company["db"], parse_statement("delete from Emp1 where Emp1.age > 33"))
    assert "delete" in plan.explain()


def test_explain_text_helper(company):
    db = company["db"]
    assert "FileScan" in explain_text(db, "retrieve (Emp1.name)")
    assert "update(" in explain_text(db, "replace (Dept.name = 'x')")
    assert "delete" in explain_text(db, "delete from Emp1")


def test_path_filter_uses_path_index_when_present(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    db.build_index("Emp1.dept.name")
    plan = plan_of(db, "retrieve (Emp1.name) where Emp1.dept.name = 'toys'")
    assert "IndexScan" in plan.access.explain()


# ---------------------------------------------------------------------------
# a bound is applied once: by the index scan, or by the residual filter
# ---------------------------------------------------------------------------


def _with_salaries(db, *salaries):
    for salary in salaries:
        db.insert("Emp1", {"name": f"s{salary}", "age": 1, "salary": salary})


def _names(db, text):
    return sorted(row[0] for row in db.execute(text).rows)


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("strict_first", [True, False])
def test_a_tie_takes_the_strict_bound_and_both_clauses_drop(
        company, side, strict_first):
    db = company["db"]
    _with_salaries(db, 4, 5, 6)
    db.build_index("Emp1.salary")
    ops = (">", ">=") if side == "lo" else ("<", "<=")
    clauses = [f"Emp1.salary {op} 5" for op in ops]
    if not strict_first:
        clauses.reverse()
    text = f"retrieve (Emp1.name) where {' and '.join(clauses)}"
    plan = plan_of(db, text)
    assert f"{ops[0]} 5" in plan.access.explain()
    assert plan.where is None
    assert "filter(" not in explain_text(db, text)
    names = _names(db, text)
    assert "s5" not in names
    assert ("s6" in names) == (side == "lo")
    assert ("s4" in names) == (side == "hi")


def test_an_equality_and_a_bound_it_misses_is_empty(company):
    db = company["db"]
    _with_salaries(db, 5, 11)
    db.build_index("Emp1.salary")
    text = "retrieve (Emp1.name) where Emp1.salary = 5 and Emp1.salary > 10"
    plan = plan_of(db, text)
    assert "= 5" in plan.access.explain()
    assert plan.where.text == "Emp1.salary > 10"
    assert db.execute(text).rows == []


def test_a_weaker_bound_stays_in_the_filter(company):
    db = company["db"]
    db.build_index("Emp1.salary")
    plan = plan_of(db, "retrieve (Emp1.name) where Emp1.salary >= 10 "
                       "and Emp1.salary > 15 and Emp1.salary <= 99")
    assert plan.where.text == "Emp1.salary >= 10"


def test_a_char_index_keeps_its_filter(company):
    db = company["db"]
    for name in ("abb", "abc", "abcd"):
        db.insert("Emp1", {"name": name, "age": 1, "salary": 1})
    db.build_index("Emp1.name")
    text = 'retrieve (Emp1.name) where Emp1.name <= "abc"'
    assert "IndexScan" in plan_of(db, text).access.explain()
    assert "filter(" in explain_text(db, text)
    assert _names(db, text) == ["abb", "abc"]


def test_a_float_index_keeps_its_filter(db):
    db.define_type(TypeDefinition("PART", [char_field("name", 8),
                                           float_field("weight")]))
    db.create_set("Part", "PART")
    for i in range(8):
        db.insert("Part", {"name": f"p{i}", "weight": i / 2})
    db.build_index("Part.weight")
    for text, expected in (
            ("retrieve (Part.name) where Part.weight >= 2.5", 3),
            ("retrieve (Part.name) where Part.weight >= 2", 4),  # int value
            ("retrieve (Part.name) where Part.weight < 2", 4)):
        assert "IndexScan" in plan_of(db, text).access.explain()
        assert "filter(" in explain_text(db, text)
        assert len(db.execute(text).rows) == expected


def test_a_path_index_keeps_its_filter(company):
    db = company["db"]
    db.replicate("Emp1.dept.budget")
    db.build_index("Emp1.dept.budget")
    text = "retrieve (Emp1.name) where Emp1.dept.budget = 100"
    assert "IndexScan" in plan_of(db, text).access.explain()
    assert "filter(" in explain_text(db, text)
    assert _names(db, text) == ["alice", "bob"]


def _twins(layout="none", **kwargs):
    """The parity corpus's database twice: bare, and with int, char and
    (under ``inplace``) path indexes."""
    plain, indexed = _build(layout, **kwargs), _build(layout, **kwargs)
    for target in ("Emp1.salary", "Emp1.age", "Emp1.name", "Dept.budget"):
        indexed.build_index(target)
    if layout == "inplace":
        indexed.build_index("Emp1.dept.name")
    return plain, indexed


def test_replace_and_delete_drop_the_clause_and_touch_the_same_oids():
    plain, indexed = _twins()
    for text in (
            "replace (Emp1.name = 'x') "
            "where Emp1.salary >= 49970 and Emp1.salary < 60000",
            "delete from Emp1 where Emp1.age > 25 and Emp1.age <= 30"):
        stmt = parse_statement(text)
        plan = (plan_replace if text.startswith("replace") else plan_delete)(
            indexed, stmt)
        assert "IndexScan" in plan.access.explain()
        assert plan.where is None
        assert "filter(" not in plan.explain()
        touched = sorted(plain.execute(text).rows)
        assert touched and sorted(indexed.execute(text).rows) == touched
    everything = "retrieve (Emp1.name, Emp1.age, Emp1.salary)"
    assert sorted(indexed.execute(everything).rows) == \
        sorted(plain.execute(everything).rows)


#: bounds the index applies, a tie, an equality with a bound it misses,
#: weaker duplicates, two indexed fields, and what only the filter applies
_BOUND_QUERIES = (
    "retrieve (Emp1.name) where Emp1.salary >= 49970 and Emp1.salary > 49970",
    "retrieve (Emp1.name) where Emp1.salary > 49970 and Emp1.salary >= 49970",
    "retrieve (Emp1.name) where Emp1.salary <= 49970 and Emp1.salary < 49970",
    "retrieve (Emp1.name) where Emp1.salary < 49970 and Emp1.salary <= 49970",
    "retrieve (Emp1.name) where Emp1.salary = 49970 and Emp1.salary > 60000",
    "retrieve (Emp1.name) where Emp1.salary = 49970 and Emp1.salary = 49970",
    "retrieve (Emp1.name) where Emp1.age = 25 and Emp1.age = 26",
    "retrieve (Emp1.name) where Emp1.age >= 22 and Emp1.age >= 25",
    "retrieve (Emp1.name) where Emp1.age > 25 and Emp1.age <= 30 "
    "and Emp1.salary >= 50000",
    "retrieve (Emp1.name) where Emp1.age != 25 and Emp1.age < 30",
    "retrieve (Emp1.name) where Emp1.name <= 'emp10'",
    "retrieve (Emp1.name) where Emp1.name >= 'emp1' and Emp1.name < 'emp2'",
    "retrieve (Dept.name) where Dept.budget > 100 and Dept.budget <= 300",
    "retrieve (count(Emp1.name), max(Emp1.salary)) where Emp1.age > 30",
    "retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary < 45000 "
    "order by Emp1.salary desc limit 3",
)

#: this file's own retrieve shapes, over the parity corpus's data
_SHAPE_QUERIES = (
    "retrieve (Emp1.name) where Emp1.salary > 1",
    "retrieve (Emp1.name) where Emp1.salary = 5 and Emp1.salary >= 1",
    "retrieve (Emp1.name) where Emp1.salary >= 10 and Emp1.salary < 20",
    "retrieve (Emp1.name) where Emp1.salary >= 10 and Emp1.salary > 15 "
    "and Emp1.salary <= 99 and Emp1.salary <= 50",
    "retrieve (Emp1.name) where Emp1.salary != 5",
    "retrieve (Emp1.dept.name, Emp1.dept.budget)",
    "retrieve (Emp1.name) where Emp1.dept.name = 'dept2'",
)


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_indexed_queries_return_the_rows_of_their_no_index_twin(layout):
    plain, indexed = _twins(layout, join_batch_rows=7)  # force multi-batch
    for query in _CORPUS + _SHAPE_QUERIES + _BOUND_QUERIES:
        try:
            expected = plain.execute(query, materialize=False).rows
        except PlanningError:
            continue  # an unreplicated path filter without an index
        for name, run in (
                ("executor", lambda: indexed.execute(query, materialize=False)),
                ("reference", lambda: reference_retrieve(indexed, query))):
            rows = run().rows
            if "order by" in query:
                assert rows == expected, (query, name)
            else:
                assert sorted(rows, key=repr) == sorted(expected, key=repr), \
                    (query, name)
