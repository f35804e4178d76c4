"""Lock footprints from plans + the lock manager's waiting semantics."""

import dataclasses
import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.query.language import parse_statement
from repro.query.planner import plan_replace
from repro.server.locks import (
    EXCLUSIVE,
    SCHEMA_RESOURCE,
    SHARED,
    LockFootprint,
    LockManager,
    ddl_footprint,
    footprint_for_statement,
    maintenance_footprint,
)
from repro.telemetry.metrics import MetricsRegistry


def footprint(db, text):
    return footprint_for_statement(db, parse_statement(text))


# ---------------------------------------------------------------------------
# footprint computation
# ---------------------------------------------------------------------------


def test_local_read_locks_scanned_set_and_schema(company):
    fp = footprint(company["db"], "retrieve (Emp1.name)")
    assert fp.shared == {"Emp1", SCHEMA_RESOURCE}
    assert fp.exclusive == frozenset()


def test_unreplicated_join_locks_every_traversed_set(company):
    fp = footprint(company["db"], "retrieve (Emp1.name, Emp1.dept.org.name)")
    assert fp.shared == {"Emp1", "Dept", "Org", SCHEMA_RESOURCE}
    assert fp.exclusive == frozenset()


def test_replicated_read_needs_only_the_scanned_set(company):
    """In-place replication answers the path from hidden fields -- the
    footprint shrinking to the scanned set is the point of replication."""
    db = company["db"]
    db.replicate("Emp1.dept.name")
    fp = footprint(db, "retrieve (Emp1.name, Emp1.dept.name)")
    assert fp.shared == {"Emp1", SCHEMA_RESOURCE}
    assert fp.exclusive == frozenset()


def test_separate_replica_read_share_locks_the_replica_set(company):
    db = company["db"]
    path = db.replicate("Emp1.dept.name", strategy="separate")
    fp = footprint(db, "retrieve (Emp1.name, Emp1.dept.name)")
    assert path.replica_set in fp.shared
    assert "Dept" not in fp.shared  # still no base-set traversal


def test_lazy_path_read_is_exclusive_on_the_source_set(company):
    db = company["db"]
    db.replicate("Emp1.dept.name", lazy=True)
    fp = footprint(db, "retrieve (Emp1.name, Emp1.dept.name)")
    assert "Emp1" in fp.exclusive  # the read drains the queue: writes


def test_local_write_locks_only_its_set(company):
    fp = footprint(company["db"], 'replace (Emp1.salary = 1) where Emp1.name = "alice"')
    assert fp.exclusive == {"Emp1"}
    assert fp.shared == {SCHEMA_RESOURCE}


def test_replicated_field_write_locks_every_referencing_set(company):
    """replace on S.repfield write-locks S, S', and the referencing sets."""
    db = company["db"]
    db.replicate("Emp1.dept.name")
    fp = footprint(db, 'replace (Dept.name = "games") where Dept.name = "toys"')
    assert {"Dept", "Emp1"} <= fp.exclusive
    assert fp.shared == {SCHEMA_RESOURCE}


def test_write_to_unreplicated_field_does_not_fan_out(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    fp = footprint(db, "replace (Dept.budget = 7)")
    assert fp.exclusive == {"Dept"}


def test_separate_replica_write_locks_the_replica_set_too(company):
    db = company["db"]
    path = db.replicate("Emp1.dept.name", strategy="separate")
    fp = footprint(db, 'replace (Dept.name = "games")')
    assert {"Dept", "Emp1", path.replica_set} <= fp.exclusive


def test_two_level_path_write_at_the_top_locks_the_whole_chain(company):
    db = company["db"]
    db.replicate("Emp1.dept.org.name")
    fp = footprint(db, 'replace (Org.name = "initech")')
    assert {"Org", "Dept", "Emp1"} <= fp.exclusive


def test_ref_surgery_locks_the_downstream_sets(company):
    """Rewriting Emp1.dept restructures the path's link entries."""
    db = company["db"]
    db.replicate("Emp1.dept.name")
    base = plan_replace(db, parse_statement("replace (Emp1.salary = 1)"))
    plan = dataclasses.replace(base, assignments=(("dept", None),))
    from repro.server.locks import footprint_for_plan

    fp = footprint_for_plan(db, plan)
    assert {"Emp1", "Dept"} <= fp.exclusive


def test_delete_from_source_set_locks_the_replication_structures(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    fp = footprint(db, 'delete from Emp1 where Emp1.name = "alice"')
    assert {"Emp1", "Dept"} <= fp.exclusive


def test_ddl_and_maintenance_are_exclusive_on_the_schema(company):
    assert ddl_footprint().exclusive == {SCHEMA_RESOURCE}
    assert maintenance_footprint().exclusive == {SCHEMA_RESOURCE}
    # every DML footprint share-locks the same resource, so DDL
    # serializes against all of them
    fp = footprint(company["db"], "retrieve (Emp1.name)")
    assert SCHEMA_RESOURCE in fp.shared


def test_footprint_exclusive_subsumes_shared():
    fp = LockFootprint(shared=frozenset({"a", "b"}), exclusive=frozenset({"b"}))
    assert fp.shared == {"a"}
    assert fp.describe() == "S(a) X(b)"


# ---------------------------------------------------------------------------
# the lock manager
# ---------------------------------------------------------------------------


def S(*names):
    return LockFootprint(shared=frozenset(names))


def X(*names):
    return LockFootprint(exclusive=frozenset(names))


def test_shared_locks_are_compatible():
    lm = LockManager(timeout=1.0)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, S("r"))
    lm.acquire(b, S("r"))  # must not block
    assert lm.held_by(a) == {"r": SHARED}
    assert lm.held_by(b) == {"r": SHARED}


def test_exclusive_conflicts_and_times_out():
    lm = LockManager(timeout=0.1)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, S("r"))
    with pytest.raises(LockTimeoutError, match="timed out waiting"):
        lm.acquire(b, X("r"))
    assert lm.held_by(b) == {}


def test_timeout_error_names_the_holder():
    lm = LockManager(timeout=0.05)
    a, b = lm.owner("alice"), lm.owner("bob")
    lm.acquire(a, X("r"))
    with pytest.raises(LockTimeoutError, match="alice"):
        lm.acquire(b, S("r"), timeout=0.05)


def test_owner_upgrades_its_own_shared_lock():
    lm = LockManager(timeout=1.0)
    a = lm.owner("a")
    lm.acquire(a, S("r"))
    lm.acquire(a, X("r"))
    assert lm.held_by(a) == {"r": EXCLUSIVE}


def test_footprint_granted_all_or_nothing():
    lm = LockManager(timeout=0.1)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r2"))
    with pytest.raises(LockTimeoutError):
        lm.acquire(b, X("r1", "r2"))
    # the free resource was not grabbed while waiting on the busy one
    assert lm.held_by(b) == {}
    lm.release_all(a)
    lm.acquire(b, X("r1", "r2"))
    assert set(lm.held_by(b)) == {"r1", "r2"}


def test_release_wakes_waiters():
    lm = LockManager(timeout=5.0)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r"))
    granted = threading.Event()

    def waiter():
        lm.acquire(b, X("r"))
        granted.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    assert not granted.wait(0.1)
    lm.release_all(a)
    assert granted.wait(2.0)
    thread.join()


class _Blocked:
    """A ``lock_waits_total`` counter that only notes that an acquire
    blocked (the lock manager counts a request once, when it first
    waits)."""

    def __init__(self):
        self.event = threading.Event()

    def inc(self):
        self.event.set()


def _blocked_acquire(lm, owner, footprint):
    """Run ``owner``'s acquire on a thread; return (thread, outcome) once
    it has blocked.  ``outcome`` gets "granted" or the exception."""
    blocked = lm._m_waits = _Blocked()
    outcome = []

    def acquire():
        try:
            lm.acquire(owner, footprint)
            outcome.append("granted")
        except (DeadlockError, LockTimeoutError) as exc:
            outcome.append(exc)

    thread = threading.Thread(target=acquire, daemon=True)
    thread.start()
    assert blocked.event.wait(5.0)
    return thread, outcome


def test_new_readers_queue_behind_a_waiting_writer():
    """Readers that keep arriving would otherwise keep the resource
    share-locked for ever: one arriving after the writer began to wait
    waits for the writer."""
    lm = LockManager(timeout=5.0)
    r1, w, r2 = lm.owner("r1"), lm.owner("w"), lm.owner("r2")
    lm.acquire(r1, S("r"))
    thread, outcome = _blocked_acquire(lm, w, X("r"))
    with pytest.raises(LockTimeoutError, match=r"\['w'\]"):
        lm.acquire(r2, S("r"), timeout=0.05)
    lm.release_all(r1)
    thread.join(5.0)
    assert outcome == ["granted"]
    lm.release_all(w)
    lm.acquire(r2, S("r"))
    assert lm.held_by(r2) == {"r": SHARED}


def test_a_holder_never_queues_behind_a_writer_that_waits_for_it():
    """A transaction holding S(a) asks for S(b) while a writer waits for
    X(a, b): queueing it behind the writer would be a deadlock, so it is
    granted, and the writer gets in once the transaction ends."""
    lm = LockManager(timeout=5.0)
    txn, w = lm.owner("txn"), lm.owner("w")
    lm.acquire(txn, S("a"))
    thread, outcome = _blocked_acquire(lm, w, X("a", "b"))
    lm.acquire(txn, S("b"), timeout=0.05)
    assert lm.held_by(txn) == {"a": SHARED, "b": SHARED}
    lm.release_all(txn)
    thread.join(5.0)
    assert outcome == ["granted"]


def test_deadlock_aborts_the_youngest_waiter():
    """a (older txn) and b (younger) form a cycle; b is the victim."""
    lm = LockManager(timeout=5.0)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r1"))  # a's txn is born first
    lm.acquire(b, X("r2"))
    outcome = {}

    def older():
        try:
            lm.acquire(a, X("r2"))
            outcome["a"] = "granted"
        except DeadlockError:
            outcome["a"] = "victim"

    thread = threading.Thread(target=older)
    thread.start()

    def younger():
        try:
            lm.acquire(b, X("r1"))  # closes the cycle
            outcome["b"] = "granted"
        except DeadlockError:
            outcome["b"] = "victim"
            lm.release_all(b)  # the victim must let go

    younger()
    thread.join(timeout=5.0)
    assert outcome == {"a": "granted", "b": "victim"}
    assert lm.held_by(a) == {"r1": EXCLUSIVE, "r2": EXCLUSIVE}


def test_deadlock_victim_flagged_while_already_waiting():
    """The cycle closes while the younger txn is parked in wait(); the
    detector must reach across and wake it as the victim."""
    lm = LockManager(timeout=5.0)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r1"))
    lm.acquire(b, X("r2"))
    outcome = {}
    b_waiting = threading.Event()

    def younger():
        b_waiting.set()
        try:
            lm.acquire(b, X("r1"))
            outcome["b"] = "granted"
        except DeadlockError:
            outcome["b"] = "victim"
            lm.release_all(b)

    thread = threading.Thread(target=younger)
    thread.start()
    b_waiting.wait(2.0)
    lm.acquire(a, X("r2"))  # closes the cycle; detector picks b
    thread.join(timeout=5.0)
    assert outcome == {"b": "victim"}
    assert lm.held_by(a) == {"r1": EXCLUSIVE, "r2": EXCLUSIVE}


def test_birth_refreshes_per_transaction_not_per_connection():
    """An owner that released everything and starts over is *younger*
    than one that has been holding locks all along."""
    lm = LockManager(timeout=5.0)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r1"))        # a: birth 1
    lm.acquire(b, X("junk"))      # b: birth 2
    lm.release_all(b)
    lm.acquire(b, X("r2"))        # b's new txn: birth 3 -- still youngest
    done = {}

    def older():
        lm.acquire(a, X("r2"))
        done["a"] = True

    thread = threading.Thread(target=older)
    thread.start()
    with pytest.raises(DeadlockError):
        lm.acquire(b, X("r1"))
    lm.release_all(b)
    thread.join(timeout=5.0)
    assert done == {"a": True}


def test_lock_metrics_are_recorded():
    registry = MetricsRegistry()
    lm = LockManager(timeout=0.05, metrics=registry)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r"))
    with pytest.raises(LockTimeoutError):
        lm.acquire(b, S("r"))
    assert registry.value("lock_waits_total") == 1
    assert registry.value("lock_timeouts_total") == 1
    hist = registry.histogram("lock_wait_seconds")
    assert hist.count() == 1
    assert hist.sum() >= 0.05


def test_deadlock_metric_counts_broken_cycles():
    registry = MetricsRegistry()
    lm = LockManager(timeout=5.0, metrics=registry)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r1"))
    lm.acquire(b, X("r2"))

    def older():
        lm.acquire(a, X("r2"))

    thread = threading.Thread(target=older)
    thread.start()
    with pytest.raises(DeadlockError):
        lm.acquire(b, X("r1"))
    lm.release_all(b)
    thread.join(timeout=5.0)
    assert registry.value("deadlocks_total") >= 1


def test_forget_releases_everything():
    lm = LockManager(timeout=0.5)
    a, b = lm.owner("a"), lm.owner("b")
    lm.acquire(a, X("r"))
    lm.forget(a)
    lm.acquire(b, X("r"))  # must not block
    assert lm.held_by(b) == {"r": EXCLUSIVE}
