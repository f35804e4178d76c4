"""The failover matrix: kill the primary at stride k, promote, prove zero loss.

Each entry starts a real primary/two-follower topology with a sync
quorum of one, kills the primary abruptly after k acknowledged
statements, promotes the most caught-up follower, and asserts the
promoted engine is doctor-clean and **byte-identical** on disk to a
single-node oracle that executed exactly the acknowledged statements.

``REPRO_FAILOVER_STRIDE=1`` makes the sweep exhaustive (CI replication
job); the default samples every other kill point to keep tier-1 fast.
The 30-second primary/2-follower chaos soak is marked ``soak``.
"""

import os
import random
import threading
import time

import pytest

from repro.recovery.faults import NetFaultInjector
from repro.recovery.harness import (FailoverOutcome, failover_matrix,
                                    failover_once)

STRIDE = int(os.environ.get("REPRO_FAILOVER_STRIDE", "2"))


def _seed_depts(db):
    db.insert("Dept1", {"name": "toys", "floor": 3})
    db.insert("Dept1", {"name": "tools", "floor": 1})


def _hire(name, age, dept_name):
    def step(db):
        dept = next(oid for oid, obj in db.catalog.get_set("Dept1").scan()
                    if obj.values["name"].strip() == dept_name)
        db.insert("Emp1", {"name": name, "age": age, "dept": dept})
    return step


SETUP = [
    "define type DEPT (name: char[12], floor: int)",
    "define type EMP (name: char[12], age: int, dept: ref DEPT)",
    "create Dept1: {own ref DEPT}",
    "create Emp1: {own ref EMP}",
    "replicate Emp1.dept.name",
    _seed_depts,
]

STATEMENTS = [
    _hire("alice", 30, "toys"),
    _hire("bob", 40, "tools"),
    'replace (Emp1.age = 31) where Emp1.name = "alice"',
    "retrieve (Emp1.name, Emp1.dept.name)",   # ships nothing, must not skew
    "delete from Emp1 where Emp1.age = 40",
    'replace (Dept1.floor = 5) where Dept1.name = "toys"',
    _hire("carol", 25, "toys"),
]


def _assert_clean(outcome: FailoverOutcome) -> None:
    assert outcome.doctor_healthy, (
        f"k={outcome.kill_after}: doctor found damage on the promoted node")
    assert not outcome.diffs, (
        f"k={outcome.kill_after}: promoted node diverged from the oracle: "
        f"{outcome.diffs[:5]}")
    assert outcome.promoted_applied_lsn == outcome.primary_last_lsn, (
        f"k={outcome.kill_after}: acknowledged statements lost "
        f"(applied {outcome.promoted_applied_lsn} "
        f"< primary {outcome.primary_last_lsn})")


def test_failover_matrix_zero_acknowledged_write_loss():
    outcomes = failover_matrix(SETUP, STATEMENTS, stride=STRIDE)
    assert outcomes  # covers k=0 .. len(STATEMENTS)
    for outcome in outcomes:
        _assert_clean(outcome)
        assert outcome.promotion_seconds < 10.0


def test_failover_matrix_under_network_faults():
    def faults(k):
        return [NetFaultInjector(seed=1000 + k, drop=0.05, delay=0.05,
                                 duplicate=0.05, truncate=0.05,
                                 delay_seconds=0.002),
                None]

    outcomes = failover_matrix(SETUP, STATEMENTS, stride=max(2, STRIDE),
                               faults_factory=faults)
    for outcome in outcomes:
        _assert_clean(outcome)


def test_failover_with_scripted_truncate_on_the_only_synced_follower():
    # pin a truncate onto an early frame of follower 0's link while
    # follower 1 rides clean: the quorum must still hold every ack
    faults = [NetFaultInjector(script=["ok", "truncate", "drop", "ok"]),
              None]
    outcome = failover_once(SETUP, STATEMENTS, kill_after=4,
                            follower_faults=faults)
    _assert_clean(outcome)


def test_failover_after_nothing_but_setup():
    outcome = failover_once(SETUP, STATEMENTS, kill_after=0, followers=1)
    _assert_clean(outcome)


# ---------------------------------------------------------------------------
# chaos soak: sustained write load against a faulty two-follower topology
# ---------------------------------------------------------------------------


SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))


@pytest.mark.soak
def test_chaos_soak_primary_two_followers():
    """Write-heavy load with both links under random faults for
    ``REPRO_SOAK_SECONDS``; followers must converge afterwards and a
    final failover must keep every acknowledged write."""
    from repro.schema.database import Database
    from repro.server.client import connect
    from repro.server.replica import Replica, ReplicaServer
    from repro.server.service import Server

    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=30.0).start()
    followers = []
    for i in range(2):
        faults = NetFaultInjector(seed=i + 1, drop=0.03, delay=0.05,
                                  duplicate=0.03, truncate=0.02,
                                  delay_seconds=0.002)
        followers.append(ReplicaServer(
            Replica(primary.address, name=f"soak-{i}", poll_wait=0.05,
                    link_timeout=0.5, min_backoff=0.01, max_backoff=0.2,
                    jitter_seed=i, net_faults=faults),
            port=0).start())
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader(address):
        rng = random.Random(99)
        try:
            with connect(*address, retry=True, retry_backoff=0.05) as c:
                while not stop.is_set():
                    try:
                        c.execute("retrieve (Emp1.name)")
                    except Exception as exc:  # stale is allowed under chaos
                        if getattr(exc, "code", "") not in (
                                "replica_stale", "read_only_replica"):
                            raise
                    time.sleep(rng.uniform(0.0, 0.01))
        except BaseException as exc:
            errors.append(exc)

    try:
        with connect(*primary.address) as client:
            for text in ("define type EMP (name: char[12], age: int)",
                         "create Emp1: {own ref EMP}"):
                client.execute(text)
            # the sync quorum of one waited for one follower; a reader
            # on the other would find no Emp1 until it applied the DDL
            ddl_lsn = primary.hub.log.last_lsn
            give_up = time.perf_counter() + 30.0
            while any(f.replica.applied_lsn < ddl_lsn for f in followers):
                assert time.perf_counter() < give_up, (
                    "a follower never applied the DDL: applied "
                    f"{[f.replica.applied_lsn for f in followers]}, "
                    f"primary at {ddl_lsn}")
                time.sleep(0.01)
            threads = [threading.Thread(target=reader, args=(f.address,),
                                        daemon=True) for f in followers]
            for t in threads:
                t.start()
            deadline = time.perf_counter() + SOAK_SECONDS
            writes = 0
            while time.perf_counter() < deadline:
                with primary.sessions.latch:
                    primary.db.insert(
                        "Emp1", {"name": f"e{writes}", "age": writes % 80})
                writes += 1
                if writes % 10 == 0:
                    client.execute(
                        f'replace (Emp1.age = 1) where Emp1.name = "e{writes - 5}"')
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert writes > 0
        assert not errors, errors[:3]
        # both followers converge once the chaos stops feeding new faults
        deadline = time.perf_counter() + 60.0
        target = primary.hub.log.last_lsn
        while time.perf_counter() < deadline:
            if all(f.replica.applied_lsn >= target for f in followers):
                break
            time.sleep(0.05)
        primary.die()
        best = max(followers, key=lambda f: f.replica.applied_lsn)
        assert best.replica.applied_lsn >= target
        promotion = best.replica.promote()
        assert promotion["kind"] == "promoted"
        assert best.replica.db.doctor().healthy
        with connect(*best.address) as rc:
            rows = rc.execute("retrieve (Emp1.name)").rows
        assert len(rows) >= 1
    finally:
        stop.set()
        primary.die()
        for f in followers:
            f.die()
