"""Crash-matrix torture harness.

The crash matrix is the executable form of the crash-safety claim: take
a workload, crash the disk at *every* physical write it performs (or a
sampled subset), recover, and prove that what is left is exactly some
statement-aligned prefix of the workload -- replication verified, no
torn state, nothing half-applied.

Usage shape::

    def build():
        db = Database(wal=True, frames=6)
        ... schema + replicate ...
        return db

    def steps(db):
        return [lambda: db.insert(...), lambda: db.update(...), ...]

    outcomes = crash_matrix(build, steps)

Each matrix entry runs with ``fail_after_writes(k)`` armed, executes the
steps until :class:`DiskFault` fires (counting fully completed steps),
calls :meth:`Database.recover`, and asserts :meth:`Database.verify`
passes.  A ``check(db, completed)`` callback can additionally assert the
all-or-nothing property against the number of completed statements.

Everything is deterministic, so a failing ``(fault_point, torn)`` entry
reported by the harness replays identically in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recovery.faults import DiskFault


@dataclass
class CrashOutcome:
    """One crash-matrix entry: crash at a write index, then recover."""

    fault_point: int
    torn: bool
    crashed: bool           # False: workload finished before the fault fired
    steps_completed: int
    statements_replayed: int = 0
    statements_discarded: int = 0


def count_writes(build_db, run_steps) -> int:
    """Physical page writes one clean run of the workload performs."""
    db = build_db()
    before = db.storage.disk.stats.physical_writes
    for step in run_steps(db):
        step()
    return db.storage.disk.stats.physical_writes - before


def fault_points(total_writes: int, stride: int = 1) -> list[int]:
    """Every ``stride``-th write index, always including first and last."""
    if total_writes <= 0:
        return []
    points = list(range(0, total_writes, max(1, stride)))
    if points[-1] != total_writes - 1:
        points.append(total_writes - 1)
    return points


def crash_once(build_db, run_steps, fault_point: int,
               torn: bool = False, check=None) -> CrashOutcome:
    """Run one matrix entry: crash at ``fault_point`` writes, recover."""
    db = build_db()
    db.faults.fail_after_writes(fault_point, torn=torn)
    completed = 0
    crashed = False
    try:
        for step in run_steps(db):
            step()
            completed += 1
    except DiskFault:
        crashed = True
    outcome = CrashOutcome(fault_point=fault_point, torn=torn,
                           crashed=crashed, steps_completed=completed)
    if crashed:
        report = db.recover()
        outcome.statements_replayed = report.statements_replayed
        outcome.statements_discarded = report.statements_discarded
    else:
        db.faults.disarm()
        db.verify()
    if check is not None:
        check(db, completed)
    return outcome


def crash_matrix(build_db, run_steps, stride: int = 1,
                 torn: bool = False, check=None) -> list[CrashOutcome]:
    """Crash the workload at every ``stride``-th write index and recover.

    ``build_db`` must return a fresh ``Database(wal=True)`` each call
    (deterministic across calls); ``run_steps(db)`` returns the ordered
    list of zero-argument statement thunks.  ``check(db, completed)``,
    when given, asserts workload-specific all-or-nothing invariants
    against the recovered database.
    """
    total = count_writes(build_db, run_steps)
    outcomes = []
    for point in fault_points(total, stride):
        outcomes.append(
            crash_once(build_db, run_steps, point, torn=torn, check=check))
    return outcomes


# ---------------------------------------------------------------------------
# failover matrix: kill the primary, promote a follower, prove zero loss
# ---------------------------------------------------------------------------


@dataclass
class FailoverOutcome:
    """One failover-matrix entry: kill the primary, promote, compare."""

    kill_after: int            # statements acknowledged before the kill
    followers: int
    promoted_name: str
    promoted_applied_lsn: int
    primary_last_lsn: int
    promotion_seconds: float
    doctor_healthy: bool
    diffs: list[str]           # byte-level divergence from the oracle

    @property
    def clean(self) -> bool:
        """Zero acknowledged-write loss: doctor-clean and byte-identical."""
        return self.doctor_healthy and not self.diffs


def _run_embedded(db, step) -> None:
    """Run one workload step against an in-process (oracle) database."""
    from repro.schema.parser import run_script_statement

    if callable(step):
        step(db)
    else:
        run_script_statement(db, step)


def _run_served(primary, client, step) -> None:
    """Run one workload step against the primary, quorum-acknowledged.

    Text goes through the client (the session layer already blocks on
    the sync quorum before acking); a callable runs against the engine
    directly under the server latch -- the only way to ``insert``, which
    has no statement form -- so the harness performs the quorum wait the
    session layer would have.
    """
    if callable(step):
        with primary.sessions.latch:
            step(primary.db)
            lsn = primary.hub.log.last_lsn
        primary.hub.wait_for_sync(lsn)
    else:
        client.execute(step)


def failover_once(setup: list, statements: list, kill_after: int,
                  followers: int = 2, follower_faults=None,
                  sync_timeout: float = 30.0) -> FailoverOutcome:
    """Run one failover-matrix entry.

    Starts a primary server (``sync_replicas=1``: every acknowledged
    write has reached at least one follower) and ``followers`` replica
    servers, runs ``setup`` plus the first ``kill_after`` of
    ``statements``, then kills the primary abruptly (``die()``: no
    drain, no goodbye).  The most caught-up follower is promoted; the
    sync quorum guarantees it holds every acknowledged statement.  The
    promoted engine is then compared byte-for-byte against a fresh
    *oracle* database that executed exactly the acknowledged steps, and
    doctor-checked.

    Workload steps are either statement text (run through a real
    client) or ``callable(db)`` (run under the primary's latch --
    inserts have no statement form); both count as *acknowledged* only
    once the sync quorum holds the entry, and both must be
    deterministic because the oracle re-runs them.

    ``follower_faults``, when given, is a list of
    :class:`~repro.recovery.faults.NetFaultInjector` (one per follower,
    ``None`` entries allowed) armed on the replication links, so the
    matrix also proves the guarantee under a lossy network.
    """
    from repro.recovery.doctor import diff_databases, run_doctor
    from repro.schema.database import Database
    from repro.server.client import connect
    from repro.server.replica import Replica, ReplicaServer
    from repro.server.service import Server

    kill_after = max(0, min(kill_after, len(statements)))
    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=sync_timeout).start()
    servers: list[ReplicaServer] = []
    try:
        for i in range(followers):
            faults = None
            if follower_faults is not None and i < len(follower_faults):
                faults = follower_faults[i]
            replica = Replica((primary.host, primary.port),
                              name=f"follower-{i}", max_lag_statements=-1,
                              poll_wait=0.05, min_backoff=0.01,
                              max_backoff=0.2, jitter_seed=i,
                              net_faults=faults)
            servers.append(ReplicaServer(replica, port=0).start())
        with connect(primary.host, primary.port, retry=False) as client:
            for step in setup:
                _run_served(primary, client, step)
            for step in statements[:kill_after]:
                _run_served(primary, client, step)
        primary_last_lsn = primary.hub.log.last_lsn
        primary.die()

        best = max(servers, key=lambda s: s.replica.applied_lsn)
        promotion = best.replica.promote()
        for server in servers:
            if server is not best:
                server.die()

        oracle = Database(wal=True)
        for step in setup:
            _run_embedded(oracle, step)
        for step in statements[:kill_after]:
            _run_embedded(oracle, step)

        diffs = diff_databases(best.db, oracle, "promoted", "oracle")
        report = run_doctor(best.db)
        return FailoverOutcome(
            kill_after=kill_after, followers=followers,
            promoted_name=best.replica.name,
            promoted_applied_lsn=best.replica.applied_lsn,
            primary_last_lsn=primary_last_lsn,
            promotion_seconds=promotion["seconds"],
            doctor_healthy=report.healthy, diffs=diffs)
    finally:
        primary.die()
        for server in servers:
            server.die()


def failover_matrix(setup: list, statements: list, stride: int = 1,
                    followers: int = 2, faults_factory=None,
                    sync_timeout: float = 30.0) -> list[FailoverOutcome]:
    """Kill the primary after every ``stride``-th statement and fail over.

    Covers ``kill_after`` = 0 (failover with only the setup applied)
    through ``len(statements)`` (primary dies after the full workload).
    ``faults_factory(kill_after)``, when given, must return a *fresh*
    per-follower fault-injector list for that entry (injectors are
    stateful and must not be shared across runs).
    """
    outcomes = []
    for point in fault_points(len(statements) + 1, stride):
        faults = faults_factory(point) if faults_factory is not None else None
        outcomes.append(
            failover_once(setup, statements, kill_after=point,
                          followers=followers, follower_faults=faults,
                          sync_timeout=sync_timeout))
    return outcomes
