"""Set-granularity reader-writer locks with deadlock detection.

Concurrency control happens at the granularity the paper's replication
machinery actually couples data at: **named sets**.  One client's
``replace`` on a replicated terminal field fans out through inverted
paths into hidden-field writes in the *source* set and row writes in the
*replica* set ``S'`` -- so interleaving it with another client's path
scan could observe half-propagated replicas unless both statements lock
every set the propagation touches.

A statement's **lock footprint** is therefore computed *before* it
executes, from its plan plus the replication catalog --
:mod:`repro.query.footprint` has the rules (what a ``retrieve``, a
``replace`` on ``S.repfield``, a lazy read and DDL each hold); this
module grants what that module declares.

Lock requests are **all-or-nothing**: a statement's whole footprint is
granted atomically or the requester waits.  Deadlocks can still arise
between *transactions* (sessions holding locks across statements under
two-phase locking); a wait-for-graph detector finds the cycle and aborts
the youngest waiter with :class:`~repro.errors.DeadlockError`.  Every
wait is bounded by a configurable timeout
(:class:`~repro.errors.LockTimeoutError`).

**Writer priority**: a shared request waits behind an exclusive request
that was already waiting for the same resource, unless that waiter is
blocked by a lock the requester holds.  Statements hold their whole
footprint while they queue for the engine mutex
(:mod:`repro.server.admission`), so without it a few readers in a loop
keep a set share-locked with no gap between them, and a writer starves
until its timeout.

Telemetry: ``lock_waits_total``, ``lock_wait_seconds``,
``deadlocks_total``, ``lock_timeouts_total``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.errors import DeadlockError, LockTimeoutError
from repro.query.footprint import (
    SCHEMA_RESOURCE,
    LockFootprint,
    footprint_for_plan,
)
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.waitevents import LOCK_PREFIX, NULL_WAITS

SHARED = "S"
EXCLUSIVE = "X"

#: lock-wait histogram bounds (seconds).
_WAIT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def footprint_for_statement(db, stmt) -> LockFootprint:
    """Plan a parsed statement and compute its footprint.

    ``stmt`` is a parsed :class:`~repro.query.language.Retrieve`,
    ``Replace``, or ``Delete``.  DDL takes :func:`ddl_footprint` instead.
    """
    from repro.query.runner import plan_statement

    return footprint_for_plan(db, plan_statement(db, stmt)[0])


def ddl_footprint() -> LockFootprint:
    """DDL serializes against every statement via the schema resource."""
    return LockFootprint(exclusive=frozenset({SCHEMA_RESOURCE}))


def maintenance_footprint() -> LockFootprint:
    """verify / doctor / recover / cold: exclusive run of the engine."""
    return LockFootprint(exclusive=frozenset({SCHEMA_RESOURCE}))


# ---------------------------------------------------------------------------
# the lock manager
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcquireInfo:
    """What one :meth:`LockManager.acquire` call cost the caller.

    ``waited`` is the wall-clock wait for the whole footprint (zero when
    it was granted immediately); ``contended`` lists the resources that
    had conflicting holders at any point during the wait, with the mode
    this owner was requesting.  The full wait is attributed to every
    contended resource -- footprints are granted all-or-nothing, so the
    wait is not divisible, and charging each blocker the whole delay is
    what makes the hottest resource stand out.
    """

    waited: float = 0.0
    #: ``(resource, mode)`` pairs, sorted by resource name.
    contended: tuple = ()

    def wait_breakdown(self) -> list[dict]:
        """Per-resource shares, shaped for span attrs / slow-log records."""
        return [
            {"resource": resource, "mode": mode,
             "waited_ms": round(self.waited * 1000.0, 3)}
            for resource, mode in self.contended
        ]


class ContentionProfiler:
    """Per-resource lock-wait statistics: histograms and a top-K.

    Fed by the lock manager on every wait that actually blocked; read by
    the ``stats`` protocol verb and the ``\\top`` dashboard.  All numbers
    are cumulative since server start.
    """

    def __init__(self, buckets: tuple = _WAIT_BUCKETS) -> None:
        self.buckets = buckets
        self._mutex = threading.Lock()
        self._by_resource: dict[str, dict] = {}

    def record(self, resource: str, mode: str, waited: float) -> None:
        with self._mutex:
            stats = self._by_resource.get(resource)
            if stats is None:
                stats = {
                    "waits": 0,
                    "total_s": 0.0,
                    "max_s": 0.0,
                    "by_mode": {},
                    "histogram": [0] * (len(self.buckets) + 1),
                }
                self._by_resource[resource] = stats
            stats["waits"] += 1
            stats["total_s"] += waited
            stats["max_s"] = max(stats["max_s"], waited)
            stats["by_mode"][mode] = stats["by_mode"].get(mode, 0) + 1
            for i, bound in enumerate(self.buckets):
                if waited <= bound:
                    stats["histogram"][i] += 1
                    break
            else:
                stats["histogram"][-1] += 1

    def top(self, k: int = 5) -> list[dict]:
        """The ``k`` hottest resources by cumulative wait time."""
        with self._mutex:
            items = [
                {"resource": name, "waits": s["waits"],
                 "total_wait_s": round(s["total_s"], 6),
                 "max_wait_s": round(s["max_s"], 6),
                 "by_mode": dict(s["by_mode"])}
                for name, s in self._by_resource.items()
            ]
        items.sort(key=lambda item: (-item["total_wait_s"], item["resource"]))
        return items[:k]

    def histogram(self, resource: str) -> list[int] | None:
        """Bucket counts for one resource (bounds: ``self.buckets`` + inf)."""
        with self._mutex:
            stats = self._by_resource.get(resource)
            return list(stats["histogram"]) if stats is not None else None

    def snapshot(self) -> dict:
        with self._mutex:
            return {name: {**s, "by_mode": dict(s["by_mode"]),
                           "histogram": list(s["histogram"])}
                    for name, s in self._by_resource.items()}


@dataclass
class LockOwner:
    """One lock-holding agent (a session / transaction)."""

    id: int
    name: str = ""
    #: transaction age for deadlock-victim selection: refreshed whenever
    #: the owner goes from holding nothing to holding something, so the
    #: *youngest transaction* (not the youngest connection) is aborted.
    birth: int = 0
    held: dict = field(default_factory=dict)   # resource -> mode
    needed: dict | None = None                 # resource -> mode while waiting
    victim: bool = False


class LockManager:
    """Reader-writer locks over named resources, one mutex for the lot."""

    def __init__(self, timeout: float = 10.0, metrics=NULL_METRICS,
                 waits=NULL_WAITS) -> None:
        #: default lock-wait bound, seconds; per-call override allowed.
        self.timeout = timeout
        #: wait-event collector: blocked acquires become ``lock:<resource>``
        #: events (the elapsed wait split evenly across contended resources)
        self.waits = waits if waits is not None else NULL_WAITS
        #: per-resource wait histograms + hottest-resources top-K.
        self.contention = ContentionProfiler()
        self._mutex = threading.Lock()
        self._cv = threading.Condition(self._mutex)
        self._holders: dict = {}               # resource -> {owner_id: mode}
        self._owners: dict[int, LockOwner] = {}
        #: owners blocked in :meth:`acquire` right now (their ``needed``
        #: is set): the wait-for graph's nodes, and the writer-priority queue
        self._waiting: dict[int, LockOwner] = {}
        self._ids = itertools.count(1)
        self._births = itertools.count(1)
        self._m_waits = metrics.counter(
            "lock_waits_total", "lock requests that had to wait")
        self._m_wait_seconds = metrics.histogram(
            "lock_wait_seconds", "time spent waiting for locks",
            buckets=_WAIT_BUCKETS)
        self._m_deadlocks = metrics.counter(
            "deadlocks_total", "lock cycles broken by aborting a victim")
        self._m_timeouts = metrics.counter(
            "lock_timeouts_total", "lock waits that exceeded the timeout")

    # -- owners ------------------------------------------------------------

    def owner(self, name: str = "") -> LockOwner:
        with self._mutex:
            owner = LockOwner(next(self._ids), name)
            self._owners[owner.id] = owner
            return owner

    def forget(self, owner: LockOwner) -> None:
        """Drop an owner (session closed); releases anything it holds."""
        self.release_all(owner)
        with self._mutex:
            self._owners.pop(owner.id, None)

    # -- acquire / release -------------------------------------------------

    def acquire(self, owner: LockOwner, footprint: LockFootprint,
                timeout: float | None = None) -> AcquireInfo:
        """Grant the whole footprint atomically, or wait.

        Returns an :class:`AcquireInfo` describing how long the grant
        took and which resources were contended.  Raises
        :class:`DeadlockError` if this owner is chosen as a deadlock
        victim and :class:`LockTimeoutError` when the wait exceeds the
        (per-call or manager-wide) timeout.  On either error the owner
        keeps what it already held -- the caller decides whether to
        release (end the transaction) or retry.
        """
        with self._cv:
            needed: dict = {}
            for resource in footprint.exclusive:
                if owner.held.get(resource) != EXCLUSIVE:
                    needed[resource] = EXCLUSIVE
            for resource in footprint.shared:
                if resource not in owner.held and resource not in needed:
                    needed[resource] = SHARED
            if not needed:
                return AcquireInfo()
            if not owner.held:
                owner.birth = next(self._births)
            deadline = time.monotonic() + (self.timeout if timeout is None
                                           else timeout)
            waited = False
            wait_start = time.monotonic()
            contended: dict[str, str] = {}
            try:
                while True:
                    if owner.victim:
                        owner.victim = False
                        raise DeadlockError(
                            f"{owner.name or owner.id}: chosen as deadlock "
                            f"victim (youngest waiter in the cycle)")
                    conflicts = self._conflicts(owner, needed)
                    if not conflicts:
                        for resource, mode in needed.items():
                            self._holders.setdefault(resource, {})[owner.id] = mode
                            owner.held[resource] = mode
                        return AcquireInfo(
                            waited=(time.monotonic() - wait_start)
                            if waited else 0.0,
                            contended=tuple(sorted(contended.items())))
                    for resource in conflicts:
                        contended.setdefault(resource, needed[resource])
                    owner.needed = needed
                    self._waiting[owner.id] = owner
                    if not waited:
                        waited = True
                        self._m_waits.inc()
                    victim = self._find_deadlock_victim(owner)
                    if victim is not None:
                        self._m_deadlocks.inc()
                        if victim is owner:
                            raise DeadlockError(
                                f"{owner.name or owner.id}: chosen as deadlock "
                                f"victim (youngest waiter in the cycle)")
                        victim.victim = True
                        self._cv.notify_all()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._m_timeouts.inc()
                        raise LockTimeoutError(
                            f"{owner.name or owner.id}: timed out waiting for "
                            f"{footprint.describe()} (held by "
                            f"{sorted(self._owner_names(self._blockers(owner, needed)))})")
                    # short slices keep the detector live even when no
                    # release wakes us (a cycle formed elsewhere)
                    self._cv.wait(min(remaining, 0.05))
            finally:
                owner.needed = None
                self._waiting.pop(owner.id, None)
                if waited:
                    elapsed = time.monotonic() - wait_start
                    self._m_wait_seconds.observe(elapsed)
                    if contended:
                        # the footprint is granted all-or-nothing, so the
                        # wait is one interval: split it evenly across the
                        # resources that actually blocked
                        share = elapsed / len(contended)
                        for resource, mode in sorted(contended.items()):
                            self.contention.record(resource, mode, elapsed)
                            self.waits.record(LOCK_PREFIX + resource, share)
                    else:
                        self.waits.record(LOCK_PREFIX + "other", elapsed)

    def release_all(self, owner: LockOwner) -> None:
        with self._cv:
            for resource in owner.held:
                holders = self._holders.get(resource)
                if holders is not None:
                    holders.pop(owner.id, None)
                    if not holders:
                        del self._holders[resource]
            owner.held.clear()
            owner.victim = False
            self._cv.notify_all()

    # -- introspection -----------------------------------------------------

    def held_by(self, owner: LockOwner) -> dict:
        with self._mutex:
            return dict(owner.held)

    def _owner_names(self, ids) -> list:
        return [
            (self._owners[i].name or str(i)) if i in self._owners else str(i)
            for i in ids
        ]

    # -- internals (mutex held) -------------------------------------------

    def _conflicts(self, owner: LockOwner, needed: dict) -> dict:
        """Resource -> the owners keeping ``owner`` from it: holders in a
        conflicting mode and, for a shared request, exclusive requests
        that were waiting for the resource before ``owner`` was (writer
        priority) -- unless that waiter is itself blocked by a lock
        ``owner`` holds, which would make the two wait for each other."""
        conflicts = {}
        for resource, mode in needed.items():
            ids = {other_id for other_id, other_mode
                   in self._holders.get(resource, {}).items()
                   if other_id != owner.id  # upgrading our own shared lock
                   and (mode == EXCLUSIVE or other_mode == EXCLUSIVE)}
            if mode == SHARED:
                for waiter in self._waiting.values():  # oldest wait first
                    if waiter is owner:
                        break
                    if (waiter.needed.get(resource) == EXCLUSIVE
                            and not self._holds_against(owner, waiter.needed)):
                        ids.add(waiter.id)
            if ids:
                conflicts[resource] = ids
        return conflicts

    def _blockers(self, owner: LockOwner, needed: dict) -> set:
        return set().union(*self._conflicts(owner, needed).values())

    @staticmethod
    def _holds_against(owner: LockOwner, needed: dict) -> bool:
        """Whether ``owner`` holds a lock that conflicts with ``needed``."""
        return any(owner.held.get(resource) is not None
                   and (mode == EXCLUSIVE or owner.held[resource] == EXCLUSIVE)
                   for resource, mode in needed.items())

    def _find_deadlock_victim(self, start: LockOwner) -> LockOwner | None:
        """Find a wait-for cycle through ``start``; return the youngest
        waiter on it (the victim), or None."""
        waiting = self._waiting
        path: list[LockOwner] = []
        seen: set[int] = set()

        def dfs(node: LockOwner):
            if node.id in seen:
                return None
            seen.add(node.id)
            path.append(node)
            for blocker_id in self._blockers(node, node.needed or {}):
                if blocker_id == start.id:
                    return list(path)
                nxt = waiting.get(blocker_id)
                if nxt is not None:
                    cycle = dfs(nxt)
                    if cycle is not None:
                        return cycle
            path.pop()
            return None

        cycle = dfs(start)
        if not cycle:
            return None
        return max(cycle, key=lambda o: o.birth)
