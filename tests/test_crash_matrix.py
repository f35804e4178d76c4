"""Crash-matrix torture tests: crash at every write, recover, verify.

Each sweep takes one replication workload (in-place, separate, two paths
over a shared prefix, in-place over a set loaded before the path
existed, two paths with checkpoints between the statements, so that
crashes land inside a checkpoint's flush, and two paths under ``replace``
statements with two victims each), counts the physical page
writes a clean run
performs, then re-runs it once per sampled write index with
``fail_after_writes(k)`` armed.  After every injected crash the database
must recover to *exactly* the statement-aligned prefix of the workload:
verified replication, correct set cardinality, no half-applied statement.

``CRASH_MATRIX_STRIDE`` (default 3) samples every third write index --
always including the first and last -- to keep the matrix affordable in
tier-1; set it to 1 for the exhaustive sweep the CI torture job runs.
"""

import os

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.recovery import count_writes, crash_matrix

STRIDE = int(os.environ.get("CRASH_MATRIX_STRIDE", "3"))

WIDE = 1800  # char-field width: ~2 records/page, so the workload moves pages


def build_db(paths, preloaded=0):
    """``preloaded`` Emps are inserted *before* the paths are replicated:
    ``replicate`` then widens them on their full pages, and the ones that
    no longer fit move out behind a forward stub."""
    db = Database(wal=True, buffer_frames=5)
    db.define_type(TypeDefinition("ORG", [char_field("name", WIDE),
                                          int_field("budget")]))
    db.define_type(TypeDefinition("DEPT", [char_field("name", WIDE),
                                           int_field("budget"),
                                           ref_field("org", "ORG")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", WIDE),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Org", "ORG")
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    orgs = [db.insert("Org", {"name": f"org{i}", "budget": 1000 + i})
            for i in range(2)]
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": i,
                                "org": orgs[i]})
             for i in range(2)]
    for i in range(preloaded):
        db.insert("Emp", {"name": f"old{i}", "salary": i,
                          "dept": depts[i % 2]})
    for text, strategy in paths:
        db.replicate(text, strategy=strategy)
    db.checkpoint()
    return db


def run_steps(db):
    """The tortured workload: inserts, data-update, ref-update, delete.

    Every thunk is one statement; the expected Emp cardinality after each
    completed step is tracked in ``EXPECTED_COUNT``.
    """
    dept_oids = [oid for oid, __ in db.catalog.get_set("Dept").scan()]
    org_oids = [oid for oid, __ in db.catalog.get_set("Org").scan()]
    emp_oids = []

    def insert(i):
        def step():
            emp_oids.append(db.insert("Emp", {
                "name": f"emp{i}", "salary": 1000 + i,
                "dept": dept_oids[i % 2]}))
        return step

    def rename_dept(i, text):  # data-update propagated by the in-place path
        return lambda: db.update("Dept", dept_oids[i], {"name": text * 150})

    def fund_org(i, amount):  # data-update propagated by the separate path
        return lambda: db.update("Org", org_oids[i], {"budget": amount})

    def move_emp(k, d):  # ref-update: propagation must move with the edge
        return lambda: db.update("Emp", emp_oids[k], {"dept": dept_oids[d]})

    def raise_salary(k):
        return lambda: db.update("Emp", emp_oids[k], {"salary": 777777})

    def fire_emp(k):
        return lambda: db.delete("Emp", emp_oids[k])

    return [
        insert(0), insert(1), insert(2), insert(3), insert(4), insert(5),
        rename_dept(0, "marketing"),
        fund_org(0, 11111),
        move_emp(0, 1),
        raise_salary(2),
        rename_dept(1, "research"),
        fund_org(1, 22222),
        move_emp(3, 0),
        fire_emp(5),
        insert(6),
    ]


# Emp cardinality after each fully completed step (prefix-aligned oracle)
EXPECTED_COUNT = [0, 1, 2, 3, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 5, 6]

#: ``run_steps`` indexes the checkpointed workload checkpoints after
CHECKPOINT_AFTER = (2, 6, 9, 13)


def run_steps_checkpointed(db):
    """``run_steps`` with a checkpoint step after some of its statements:
    a crash inside one must recover to the statements before it, whatever
    part of the flush reached the disk (clean or torn)."""
    steps = []
    for index, step in enumerate(run_steps(db)):
        steps.append(step)
        if index in CHECKPOINT_AFTER:
            steps.append(db.checkpoint)
    return steps


def statements_in(completed):
    """``run_steps`` statements among the first ``completed`` steps of
    ``run_steps_checkpointed``."""
    checkpoints = sum(1 for index, after in enumerate(CHECKPOINT_AFTER)
                      if after + index + 1 < completed)
    return completed - checkpoints

#: the multi-victim workload, one label per statement: an Emp insert, a
#: name for both Depts (the in-place path) or a budget for both Orgs (the
#: separate path)
REPLACE_STEPS = ["insert", "insert", "insert", "insert", "marketing", 11111,
                 "insert", "research", 22222, "insert", "sales"]


def run_replace_steps(db):
    """Statements with two victims each: a ``replace`` writes both Depts
    (or both Orgs) in one sweep and then, in the same WAL scope, pushes
    the in-place path's new value over the union of their closures (or
    rewrites the separate path's replicas)."""
    dept_oids = [oid for oid, __ in db.catalog.get_set("Dept").scan()]
    inserted = iter(range(len(REPLACE_STEPS)))

    def step(label):
        if label == "insert":
            i = next(inserted)
            return lambda: db.insert("Emp", {
                "name": f"emp{i}", "salary": 1000 + i,
                "dept": dept_oids[i % 2]})
        if isinstance(label, int):
            return lambda: db.execute(
                f"replace (Org.budget = {label}) where Org.budget >= 0")
        return lambda: db.execute(
            f"replace (Dept.name = '{label * 150}') "
            "where Dept.budget >= 0 and Dept.budget <= 1")

    return [step(label) for label in REPLACE_STEPS]


def check_replaces(db, completed):
    """The statement-aligned prefix: the Emps inserted, and both Depts'
    names and both Orgs' budgets as the last completed replace left them
    -- never one victim of a statement without the other."""
    done = REPLACE_STEPS[:completed]
    names = [label * 150 for label in done
             if isinstance(label, str) and label != "insert"]
    budgets = [label for label in done if isinstance(label, int)]
    assert db.catalog.get_set("Emp").count() == done.count("insert")
    assert sorted(obj.values["name"] for __, obj
                  in db.catalog.get_set("Dept").scan()) \
        == ([names[-1]] * 2 if names else ["dept0", "dept1"])
    assert sorted(obj.values["budget"] for __, obj
                  in db.catalog.get_set("Org").scan()) \
        == ([budgets[-1]] * 2 if budgets else [1000, 1001])


WORKLOADS = {
    "inplace": [("Emp.dept.name", "inplace")],
    "separate": [("Emp.dept.org.budget", "separate")],
    "shared-prefix": [("Emp.dept.name", "inplace"),
                      ("Emp.dept.org.budget", "separate")],
    # Emp loaded first, the path replicated afterwards: the steps above
    # insert every Emp *after* ``replicate``, so without this entry no
    # propagation target is ever behind a forward stub
    "inplace-loaded-first": [("Emp.dept.name", "inplace")],
    # recovery is not impacted by the exact time of the failure, and that
    # includes the middle of a checkpoint
    "shared-prefix-checkpointed": [("Emp.dept.name", "inplace"),
                                   ("Emp.dept.org.budget", "separate")],
    # statements with more than one victim: the write sweep and the
    # propagation over the union of the victims' closures are two phases
    # of one WAL scope
    "multi-victim-replace": [("Emp.dept.name", "inplace"),
                             ("Emp.dept.org.budget", "separate")],
}
#: Emps the builder inserts ahead of ``replicate``, by workload
PRELOADED = {"inplace-loaded-first": 4}
#: workloads whose steps are not ``run_steps``
STEPS = {"shared-prefix-checkpointed": run_steps_checkpointed,
         "multi-victim-replace": run_replace_steps}
#: workloads with a check of their own
CHECKS = {"multi-victim-replace": check_replaces}


def check(db, completed):
    assert db.catalog.get_set("Emp").count() == EXPECTED_COUNT[completed]


def sweep(name, torn):
    paths = WORKLOADS[name]
    preloaded = PRELOADED.get(name, 0)
    steps = STEPS.get(name, run_steps)

    def check_beside_preloaded(db, completed):
        """``check``, the builder's own Emps counted in."""
        assert db.catalog.get_set("Emp").count() \
            == preloaded + EXPECTED_COUNT[completed]

    def check_statements(db, completed):
        """``check`` of the statements among the completed steps."""
        check(db, statements_in(completed))

    outcomes = crash_matrix(lambda: build_db(paths, preloaded), steps,
                            stride=STRIDE, torn=torn,
                            check=CHECKS.get(name) or (
                                check_statements if steps is not run_steps
                                else check_beside_preloaded if preloaded
                                else check))
    assert outcomes, "workload produced no physical writes to crash on"
    assert any(o.crashed for o in outcomes)
    # at least one crash must land mid-workload, not only at the edges
    assert any(0 < o.steps_completed < len(EXPECTED_COUNT) - 1
               for o in outcomes if o.crashed)
    return outcomes


@pytest.mark.tortured
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_crash_matrix_clean_crashes(name):
    sweep(name, torn=False)


@pytest.mark.tortured
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_crash_matrix_torn_writes(name):
    sweep(name, torn=True)


@pytest.mark.tortured
def test_crash_matrix_discards_or_replays_every_statement():
    outcomes = sweep("inplace", torn=False)
    crashed = [o for o in outcomes if o.crashed]
    assert any(o.statements_discarded for o in crashed)
    assert any(o.statements_replayed for o in crashed)


@pytest.mark.tortured
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_crash_matrix_lands_inside_checkpoints(torn):
    """What the fifth workload is there for: some of its crash points
    fall inside a checkpoint's flush, and those recover too."""
    name = "shared-prefix-checkpointed"
    outcomes = sweep(name, torn)
    db = build_db(WORKLOADS[name])
    checkpoints = {index for index, step in
                   enumerate(run_steps_checkpointed(db))
                   if step == db.checkpoint}
    assert len(checkpoints) == len(CHECKPOINT_AFTER)
    inside = [o for o in outcomes if o.crashed
              and o.steps_completed in checkpoints]
    # in two checkpoints or more
    assert len({o.steps_completed for o in inside}) >= 2


def test_loaded_first_workload_propagates_through_forward_stubs():
    """What the fourth workload is there for: its renames reach
    referencers that ``replicate`` moved out of their home pages."""
    from repro.storage.heapfile import _FORWARD

    name = "inplace-loaded-first"
    db = build_db(WORKLOADS[name], PRELOADED[name])
    emp = db.catalog.get_set("Emp")
    forwarded = 0
    for oid, __ in emp.scan():
        with db.storage.pool.page(emp.file_id, oid.page_no) as page:
            forwarded += page.data[page.span(oid.slot)[0]] == _FORWARD
    assert 0 < forwarded <= PRELOADED[name]
    assert db.storage.pool.pinned_keys() == []


def test_workload_is_write_heavy_enough():
    """The matrix is only meaningful if the clean run really moves pages."""
    total = count_writes(lambda: build_db(WORKLOADS["inplace"]), run_steps)
    assert total >= 10
