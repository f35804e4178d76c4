"""Intra-engine concurrency: the admission scheduler, the concurrent
buffer pool, and WAL group commit.

The scheduling properties are proved *deterministically* with barriers
injected through the fault injector's execution probes
(``statement_admitted`` fires inside the admission gate), never by
timing luck:

* two statements with disjoint granted footprints really overlap in
  time (both are inside the gate at the same instant);
* two conflicting statements never do (the second blocks in the lock
  manager, before admission);
* 16 threads hammering one small buffer pool keep every invariant:
  pinned frames are never evicted, every fetch is exactly one hit or
  one miss, and page images stay intact;
* concurrent commits share one WAL force under a group-commit window,
  and an injected flush failure keeps statement atomicity: whatever
  reported success survives recovery, whatever raised rolls back.
"""

import sys
import threading

import pytest

from repro.errors import BufferPoolError, DiskFault
from repro.schema.database import Database
from repro.server import connect
from repro.server.admission import AdmissionController, EngineGate
from repro.server.service import Server
from repro.storage.buffer import BufferPool
from repro.storage.constants import PAGE_SIZE
from repro.storage.disk import SimulatedDisk
from repro.telemetry.metrics import MetricsRegistry
from tests.conftest import define_employee_schema


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, workers=4,
                 queue_depth=16, lock_timeout=5.0, sample_interval=0).start()
    yield srv
    company["db"].faults.probes.clear()
    srv.shutdown()


# ---------------------------------------------------------------------------
# the gate itself
# ---------------------------------------------------------------------------


def test_engine_gate_shared_entries_overlap_and_exclusive_drains():
    gate = EngineGate()
    gate.enter_shared()
    gate.enter_shared()  # two statements in at once
    assert gate.active == 2
    blocked = threading.Event()
    entered = threading.Event()

    def quiesce():
        blocked.set()
        with gate:  # must wait for both shared holders
            entered.set()

    t = threading.Thread(target=quiesce, daemon=True)
    t.start()
    blocked.wait(5.0)
    gate.exit_shared()
    assert not entered.wait(0.05)  # one shared holder still in
    gate.exit_shared()
    assert entered.wait(5.0)
    t.join(5.0)
    assert gate.active == 0


def test_engine_gate_exclusive_is_reentrant_and_admits_its_owner():
    gate = EngineGate()
    with gate:
        with gate:  # reentrant
            gate.enter_shared()  # the quiescing thread's own statement
            assert gate.active == 1
            gate.exit_shared()
    # fully released: a plain shared entry must not block
    gate.enter_shared()
    gate.exit_shared()


def test_admission_controller_tracks_peak():
    registry = MetricsRegistry()
    ctl = AdmissionController(metrics=registry)
    with ctl.admitted() as grant:
        assert grant.waited >= 0.0
        with ctl.admitted():
            assert registry.value("concurrent_statements") == 2
    assert registry.value("concurrent_statements") == 0
    assert registry.value("concurrent_statements_peak") == 2


# ---------------------------------------------------------------------------
# deterministic interleaving: disjoint footprints overlap, conflicts don't
# ---------------------------------------------------------------------------


def test_disjoint_footprint_statements_overlap_in_time(server):
    """Both retrieves must be inside the admission gate at the same
    instant: each blocks on a two-party barrier fired from the
    ``statement_admitted`` probe, which only releases when the *other*
    statement is admitted too.  Under the old global latch this would
    deadlock the barrier (and the test would fail on its timeout)."""
    db = server.db
    barrier = threading.Barrier(2, timeout=10.0)
    db.faults.probes["statement_admitted"] = barrier.wait
    errors = []

    def run(query):
        try:
            with connect(*server.address) as client:
                client.execute(query)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=run, args=("retrieve (Emp1.name)",)),
        threading.Thread(target=run, args=("retrieve (Emp2.name)",)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15.0)
    db.faults.probes.clear()
    assert errors == []
    assert not barrier.broken
    metrics = db.telemetry.metrics
    assert metrics.value("concurrent_statements_peak") >= 2


def test_conflicting_statements_never_overlap(server):
    """A reader of Emp1 must not be admitted while a transaction holds
    X(Emp1): it blocks in the lock manager, *before* the gate.  The
    ``statement_admitted`` probe records exactly when the reader got in:
    only after the writer's commit released its locks."""
    db = server.db
    with connect(*server.address) as writer:
        writer.begin()
        writer.execute("replace (Emp1.salary = 1) "
                       'where Emp1.name = "alice"')  # X(Emp1), held
        reader_admitted = threading.Event()
        db.faults.probes["statement_admitted"] = reader_admitted.set
        rows = []

        def read():
            with connect(*server.address) as client:
                rows.append(client.execute("retrieve (Emp1.salary) "
                                           'where Emp1.name = "alice"'))

        t = threading.Thread(target=read, daemon=True)
        t.start()
        # the reader cannot be admitted while X(Emp1) is held
        assert not reader_admitted.wait(0.4)
        writer.commit()
        t.join(10.0)
        db.faults.probes.clear()
        assert reader_admitted.is_set()
    assert rows and rows[0].rows == [(1,)]


# ---------------------------------------------------------------------------
# the concurrent buffer pool under stress
# ---------------------------------------------------------------------------


def _page_image(page_no: int) -> bytes:
    return bytes([page_no % 251]) * PAGE_SIZE


def test_buffer_pool_latch_stress_keeps_invariants():
    """16 threads fetch/unpin over a pool far smaller than the working
    set, with four frames pinned throughout and a prefetch mixed in.
    Invariants: pinned frames are never evicted, page images never tear,
    and the hit/miss accounting stays exact (hits + misses == logical
    reads, physical reads == misses + prefetched pages)."""
    disk = SimulatedDisk()
    fid = disk.create_file()
    pages = 48
    for pno in range(pages):
        assert disk.allocate_page(fid) == pno
        disk.write_page(fid, pno, _page_image(pno))
    disk.stats.reset()
    pool = BufferPool(disk, capacity=8)

    # pin four frames for the whole run: eviction must always skip them
    pinned = [0, 1, 2, 3]
    for pno in pinned:
        pool.fetch(fid, pno)

    threads, errors = 16, []

    def worker(idx):
        try:
            rng_pages = [(idx * 7 + i * 3) % (pages - 4) + 4
                         for i in range(150)]
            for pno in rng_pages:
                with pool.page(fid, pno) as page:
                    assert bytes(page.data) == _page_image(pno), \
                        f"torn image for page {pno}"
            if idx % 4 == 0:  # a few read-ahead bursts in the mix
                pool.prefetch(fid, range(4, 12))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    workers = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(threads)]
    for thread in workers:
        thread.start()
    # join before asserting, so what a worker raised is what the failure
    # shows
    for thread in workers:
        thread.join(timeout=60.0)
    assert errors == []
    assert not any(thread.is_alive() for thread in workers)

    # the long-pinned frames were never evicted (still resident, and
    # their pins are still accounted)
    resident = pool.resident_keys()
    for pno in pinned:
        assert (fid, pno) in resident
        assert (fid, pno) in pool.pinned_keys()
        pool.unpin(fid, pno)
    assert pool.pinned_keys() == []

    stats = disk.stats.snapshot()
    # every fetch resolved as exactly one hit or one miss
    fetches = 4 + threads * 150
    assert stats.logical_reads == fetches
    misses = fetches - stats.buffer_hits
    # a page moves from disk exactly when a demand miss or a prefetch
    # loads it -- nothing is read twice without an eviction in between
    assert stats.physical_reads == misses + stats.prefetch_issued
    assert stats.physical_writes == 0  # nothing was dirtied


def test_buffer_pool_never_evicts_concurrently_pinned_frames():
    """The no-evict-pinned invariant under a race: a frame pinned after
    the victim scan but before the kill must be skipped (revalidation
    under the frame latch), never evicted out from under its pin."""
    disk = SimulatedDisk()
    fid = disk.create_file()
    for pno in range(6):
        disk.allocate_page(fid)
        disk.write_page(fid, pno, _page_image(pno))
    pool = BufferPool(disk, capacity=2)
    pool.fetch(fid, 0)  # pinned: never a victim
    with pool.page(fid, 1):
        pass  # resident, unpinned: the only legal victim
    # filling a third frame must evict page 1, not page 0
    with pool.page(fid, 2):
        resident = pool.resident_keys()
        assert (fid, 0) in resident
        assert (fid, 1) not in resident
    pool.unpin(fid, 0)


class _ProbeLatch:
    """A frame latch that reports when a second thread wants it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


def test_evicting_a_frame_of_a_file_being_dropped_cannot_deadlock():
    """Eviction takes the victim's latch and then its shard lock; dropping
    the victim's file used to take the shard lock and then the latch.
    The schedule that deadlocked, step by step: the evictor is inside the
    victim's write-back (latch held) when the dropper reaches that frame,
    and only continues once the dropper is waiting for the latch."""
    disk = SimulatedDisk()
    file_a, file_b = disk.create_file(), disk.create_file()
    for pno in range(8):
        disk.allocate_page(file_a)
    disk.allocate_page(file_b)
    pool = BufferPool(disk, capacity=8)
    for pno in range(8):  # a full pool; (A, 0) is the coldest and dirty
        with pool.page(file_a, pno):
            if pno == 0:
                pool.mark_dirty(file_a, 0)
    latch = pool._lookup((file_a, 0)).latch = _ProbeLatch()

    in_writeback = threading.Event()
    write_page = disk.write_page
    errors = []

    def held_write(file_id, page_no, data):
        in_writeback.set()
        if not latch.contended.wait(timeout=10.0):
            errors.append("the dropper never asked for the victim's latch")
        write_page(file_id, page_no, data)

    disk.write_page = held_write

    def run(step):
        try:
            step()
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    def evict():
        with pool.page(file_b, 0):  # a miss on a full pool evicts (A, 0)
            pass

    def drop():
        assert in_writeback.wait(timeout=10.0)
        pool.drop_file_pages(file_a)

    threads = [threading.Thread(target=run, args=(step,), daemon=True)
               for step in (evict, drop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20.0)
    assert errors == []
    assert not any(thread.is_alive() for thread in threads), "deadlock"
    assert pool.resident_keys() == {(file_b, 0)}
    assert pool.pinned_keys() == []
    pool.flush_all()  # the dropped file left nothing to write back
    assert disk.stats.physical_writes == 1


class _CountingLatch:
    """Stands in for a frame latch that is held right now: the same lock,
    but a thread that has to wait for it is counted before it blocks."""

    def __init__(self, lock):
        self._lock = lock
        self.waiters = threading.Semaphore(0)

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.waiters.release()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class _HeldRead:
    """Replaces ``disk.read_page``: the first read stops half-way, until
    the test has queued ``n`` more fetchers of the page on its frame's
    latch; then it completes, or fails if ``fail`` is set."""

    def __init__(self, pool, n, fail=False):
        self.pool, self.n, self.fail = pool, n, fail
        self.started = threading.Event()
        self.latch = None
        self.errors = []
        self._read_page = pool.disk.read_page
        pool.disk.read_page = self

    def __call__(self, file_id, page_no):
        if not self.started.is_set():
            # the frame is in the table by now, latched by this thread
            frame = self.pool._lookup((file_id, page_no))
            self.latch = frame.latch = _CountingLatch(frame.latch)
            self.started.set()
            for __ in range(self.n):
                if not self.latch.waiters.acquire(timeout=10.0):
                    self.errors.append("a fetcher never reached the latch")
            if self.fail:
                raise DiskFault("injected read failure")
        return self._read_page(file_id, page_no)


def _fetch_in_threads(pool, key, n, after):
    """``n`` threads, each fetching ``key`` once ``after`` is set; returns
    the threads and the list their outcomes (page or exception) go to."""
    outcomes = []

    def fetch():
        assert after.wait(timeout=10.0)
        try:
            outcomes.append(pool.fetch(*key))
        except Exception as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=fetch, daemon=True) for __ in range(n)]
    for thread in threads:
        thread.start()
    return threads, outcomes


def _disk_with_pages(pages):
    disk = SimulatedDisk()
    fid = disk.create_file()
    for pno in range(pages):
        disk.allocate_page(fid)
        disk.write_page(fid, pno, _page_image(pno))
    disk.stats.reset()
    return disk, fid


def test_fetchers_of_a_page_being_loaded_share_its_one_read():
    """Seven threads ask for a page while an eighth is reading it in: they
    wait for that read -- no second one -- and get the same Page."""
    disk, fid = _disk_with_pages(2)
    pool = BufferPool(disk, capacity=4)
    read = _HeldRead(pool, n=7)
    threads, outcomes = _fetch_in_threads(pool, (fid, 1), 7, read.started)
    first = pool.fetch(fid, 1)  # returns once all seven are queued
    for thread in threads:
        thread.join(timeout=20.0)
    assert not any(thread.is_alive() for thread in threads)
    assert read.errors == []
    assert len(outcomes) == 7 and all(page is first for page in outcomes)
    assert bytes(first.data) == _page_image(1)
    assert disk.stats.physical_reads == 1
    assert disk.stats.logical_reads == 8 and disk.stats.buffer_hits == 7
    pool.unpin_many([(fid, 1)] * 8)
    assert pool.pinned_keys() == []


def test_a_failed_load_wakes_its_waiters_and_leaves_nothing_behind():
    """The read fails with three fetchers queued behind it: the loader
    gets the fault, its frame leaves the table, and the fetchers retry --
    one of them reads the page, the others share that read."""
    disk, fid = _disk_with_pages(2)
    pool = BufferPool(disk, capacity=4)
    read = _HeldRead(pool, n=3, fail=True)
    threads, outcomes = _fetch_in_threads(pool, (fid, 1), 3, read.started)
    with pytest.raises(DiskFault):
        pool.fetch(fid, 1)
    for thread in threads:
        thread.join(timeout=20.0)
    assert not any(thread.is_alive() for thread in threads)
    assert read.errors == []
    page = pool.fetch(fid, 1)  # a hit by now
    assert len(outcomes) == 3 and all(got is page for got in outcomes)
    assert bytes(page.data) == _page_image(1)
    assert disk.stats.physical_reads == 1  # the retry; the fault read nothing
    pool.unpin_many([(fid, 1)] * 4)
    assert pool.pinned_keys() == []
    assert pool.resident_keys() == {(fid, 1)}


def test_a_failed_load_without_waiters_leaves_no_frame():
    disk, fid = _disk_with_pages(2)
    pool = BufferPool(disk, capacity=1)
    _HeldRead(pool, n=0, fail=True)
    with pytest.raises(DiskFault):
        pool.fetch(fid, 1)
    assert pool._lookup((fid, 1)) is None
    assert pool.resident_keys() == set() and pool.pinned_keys() == []
    with pool.page(fid, 1) as page:  # the next fetch reads again
        assert bytes(page.data) == _page_image(1)
    assert disk.stats.physical_reads == 1
    with pool.page(fid, 0):  # and the one frame is evictable
        pass
    assert pool.resident_keys() == {(fid, 0)}


@pytest.mark.parametrize("read_ahead", [False, True])
def test_eviction_never_selects_a_frame_being_loaded(read_ahead):
    """While page 1 is being read in -- on demand, or by read-ahead, whose
    frame ends up unpinned -- misses on a full pool evict around it, and
    when it is all that is left they fail rather than take it."""
    disk, fid = _disk_with_pages(5)
    pool = BufferPool(disk, capacity=2)
    with pool.page(fid, 0):
        pass
    read = _HeldRead(pool, n=1)
    errors = []

    def load():
        try:
            if read_ahead:
                assert pool.prefetch(fid, [1]) == 1
            else:
                pool.fetch(fid, 1)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    assert read.started.wait(timeout=10.0)
    pool.fetch(fid, 2)  # full pool: evicts page 0, the only legal victim
    assert pool.resident_keys() == {(fid, 1), (fid, 2)}
    with pytest.raises(BufferPoolError, match="all buffer frames are pinned"):
        pool.fetch(fid, 3)
    assert pool.prefetch(fid, [4]) == 0  # read-ahead just gives up
    assert pool.resident_keys() == {(fid, 1), (fid, 2)}
    # let the read finish: one fetcher queued on the frame releases it
    threads, outcomes = _fetch_in_threads(pool, (fid, 1), 1, read.started)
    for thread in threads + [loader]:
        thread.join(timeout=20.0)
    assert not loader.is_alive() and not threads[0].is_alive()
    assert errors == [] and read.errors == []
    assert bytes(outcomes[0].data) == _page_image(1)
    assert disk.stats.physical_reads == 3 and disk.stats.evictions == 1
    pool.unpin(fid, 2)
    pool.unpin_many([(fid, 1)] * (1 if read_ahead else 2))
    assert pool.pinned_keys() == []


def test_concurrent_retrieves_never_share_a_result_file_name(company):
    """Eight threads, each inside the gate in shared mode as a served
    read-only statement is, materialise results at once: every result
    file needs a name of its own (the name used to come from an increment
    followed by a separate read)."""
    db = company["db"]
    gate = EngineGate()
    errors = []

    def reader():
        try:
            for __ in range(200):
                gate.enter_shared()
                try:
                    result = db.execute("retrieve (Emp1.name, Emp1.dept.name)")
                finally:
                    gate.exit_shared()
                assert len(result.rows) == 6
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    readers = [threading.Thread(target=reader, daemon=True)
               for __ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between any two bytecodes
    try:
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert not any(thread.is_alive() for thread in readers)
    assert db.storage.pool.pinned_keys() == []
    assert db.storage.file_names() == sorted(["Org", "Dept", "Emp1", "Emp2"])


# ---------------------------------------------------------------------------
# WAL group commit and flush-failure accounting
# ---------------------------------------------------------------------------


def _wal_db(group_commit_ms: float = 0.0) -> Database:
    db = Database(wal=True)
    define_employee_schema(db)
    if group_commit_ms:
        db.recovery.wal.group_commit_ms = group_commit_ms
    return db


def test_group_commit_batches_concurrent_forces():
    """Four statements committing inside one window share the leader's
    force: strictly fewer physical forces than commits, with at least
    one follower join recorded."""
    db = _wal_db(group_commit_ms=250.0)
    metrics = db.telemetry.metrics
    flushes_before = metrics.value("wal_flushes_total")
    start = threading.Barrier(4, timeout=10.0)
    errors = []
    # one set per writer: embedded inserts bypass the lock manager, so
    # each thread must own its heap file outright
    records = {
        "Org": {"name": "w-org", "budget": 7},
        "Dept": {"name": "w-dept", "budget": 7, "org": None},
        "Emp1": {"name": "w1", "age": 20, "salary": 1, "dept": None},
        "Emp2": {"name": "w2", "age": 21, "salary": 2, "dept": None},
    }

    def insert(set_name, record):
        try:
            start.wait()
            db.insert(set_name, record)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    threads = [threading.Thread(target=insert, args=item)
               for item in records.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15.0)
    assert errors == []
    forced = metrics.value("wal_flushes_total") - flushes_before
    joins = metrics.value("wal_group_commit_joins_total")
    assert forced >= 1
    assert forced + joins >= 4  # every commit either led or joined
    assert joins >= 1 and forced < 4
    for set_name, record in records.items():
        rows = db.execute(f'retrieve ({set_name}.name) '
                        f'where {set_name}.name = "{record["name"]}"').rows
        assert rows == [(record["name"],)]


def test_group_commit_zero_window_forces_each_commit():
    db = _wal_db()  # group_commit_ms = 0.0 -- exact legacy behavior
    metrics = db.telemetry.metrics
    flushes_before = metrics.value("wal_flushes_total")
    for i in range(3):
        db.insert("Emp1", {"name": f"s{i}", "age": 30, "salary": 1,
                           "dept": None})
    assert metrics.value("wal_flushes_total") - flushes_before == 3
    assert metrics.value("wal_group_commit_joins_total") == 0


def test_flush_fault_fires_inside_accounting_not_after():
    """Satellite bugfix: a failing force must not mark records durable
    or count a flush -- the fault fires before ``_flushed`` moves, so
    the statement rolls back cleanly at recovery."""
    db = _wal_db()
    metrics = db.telemetry.metrics
    db.insert("Emp1", {"name": "keep", "age": 30, "salary": 1,
                       "dept": None})
    flushes_ok = metrics.value("wal_flushes_total")
    db.faults.fail_after_flushes(0)
    with pytest.raises(DiskFault):
        db.insert("Emp1", {"name": "lost", "age": 31, "salary": 2,
                           "dept": None})
    # the failed force counted nothing and marked nothing durable
    assert metrics.value("wal_flushes_total") == flushes_ok
    assert metrics.value("faults_injected_total", kind="wal_flush") == 1
    assert db.recovery.needs_recovery
    db.recover()
    names = {row[0] for row in db.execute("retrieve (Emp1.name)").rows}
    assert "keep" in names and "lost" not in names


def test_group_commit_flush_fault_preserves_statement_atomicity():
    """A flush fault under a group-commit window: the leader (and any
    follower whose records the failed force covered) sees the error.
    Whatever reported success must survive recovery; whatever raised
    must be rolled back -- the client's view is always truthful."""
    db = _wal_db(group_commit_ms=150.0)
    db.faults.fail_after_flushes(0)
    start = threading.Barrier(2, timeout=10.0)
    succeeded, failed = [], []

    def insert(idx, set_name):
        try:
            start.wait()
            db.insert(set_name, {"name": f"g{idx}", "age": 40,
                                 "salary": idx, "dept": None})
            succeeded.append((set_name, f"g{idx}"))
        except DiskFault:
            failed.append((set_name, f"g{idx}"))

    threads = [threading.Thread(target=insert, args=(i, "Emp1" if i
                                                     else "Emp2"))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15.0)
    assert failed  # the injected fault hit at least one committer
    db.faults.disarm()
    if db.recovery.needs_recovery:
        db.recover()
    for set_name, name in succeeded:
        rows = db.execute(f'retrieve ({set_name}.name) '
                        f'where {set_name}.name = "{name}"').rows
        assert rows == [(name,)], f"acked statement {name} lost"
    for set_name, name in failed:
        rows = db.execute(f'retrieve ({set_name}.name) '
                        f'where {set_name}.name = "{name}"').rows
        assert rows == [], f"failed statement {name} leaked"
