"""One statement in the engine at a time: the engine mutex, the buffer
pool that relies on it, and the WAL force every commit pays.

The scheduling properties are proved *deterministically* with the fault
injector's execution probes (``statement_admitted`` and
``statement_finishing`` fire inside the engine mutex), never by timing
luck:

* eight clients on disjoint sets never have two statements inside the
  engine at once, even when all of them are waiting at its door;
* two conflicting statements never do either (the second blocks in the
  lock manager, before admission);
* the thread holding the mutex for maintenance may run statements of
  its own (the mutex is reentrant);
* a statement runs on the thread of the connection that sent it, and a
  statement held inside the engine holds up other connections'
  statements only -- at the mutex, not before it;
* two connections hammering an 8-frame pool never see the pool run out
  of frames: every pin belongs to the one statement inside;
* a commit whose log force fails keeps statement atomicity: whatever
  reported success survives recovery, whatever raised rolls back.
"""

import sys
import threading
import time

import pytest

from repro.errors import DiskFault, RemoteError
from repro.schema.database import Database
from repro.server import connect
from repro.server.admission import EngineGate
from repro.server.service import Server
from repro.storage.buffer import BufferPool
from repro.storage.constants import PAGE_SIZE
from repro.storage.disk import SimulatedDisk
from tests.conftest import define_employee_schema
from tests.test_observer_neutrality import _build


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=5.0).start()
    yield srv
    company["db"].faults.probes.clear()
    srv.shutdown()


# ---------------------------------------------------------------------------
# the engine mutex: nobody overlaps, the owner may re-enter
# ---------------------------------------------------------------------------


def test_engine_gate_exclusive_is_reentrant_and_admits_its_owner(server):
    """The thread holding the engine mutex for maintenance runs its own
    statement inside it; once it lets go, another thread gets in."""
    gate = server.sessions.latch
    session = server.sessions.open_session("maintenance")
    with gate:
        with gate:  # reentrant
            rows = session.run_statement("retrieve (Emp1.name)")["rows"]
    assert len(rows) == 6
    entered = threading.Event()

    def statement():
        gate.enter_shared()
        entered.set()
        gate.exit_shared()

    thread = threading.Thread(target=statement, daemon=True)
    thread.start()
    assert entered.wait(10.0)
    thread.join(10.0)


def test_a_statement_runs_on_its_connection_thread(server):
    """No worker threads: a statement runs on the thread that read its
    frame.  While connection A's statement is held inside the engine,
    connection B's ``ping`` and ``stats`` answer at once, and B's
    retrieve waits in ``admission_wait`` -- it does not fail -- until A
    leaves."""
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("repro-worker")]
    db = server.db
    ran_on, held, release = [], threading.Event(), threading.Event()
    gate, b_arrived = server.sessions.latch, threading.Event()

    def admitted():
        ran_on.append(threading.current_thread().name)
        if len(ran_on) == 1:
            held.set()
            release.wait(10.0)

    db.faults.probes["statement_admitted"] = admitted
    rows, errors = {}, []

    def run(name, client, text):
        try:
            rows[name] = client.execute(text).rows
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    with connect(*server.address) as a, connect(*server.address) as b:
        a_thread = threading.Thread(
            target=run, args=("a", a, "retrieve (Emp1.name)"), daemon=True)
        a_thread.start()
        assert held.wait(10.0)
        started = time.perf_counter()
        assert b.ping()
        assert b.stats()["connections"] == 2
        assert time.perf_counter() - started < 1.0
        enter_shared = gate.enter_shared

        def arriving():
            # A is inside, so only B's statement comes to the door now
            b_arrived.set()
            enter_shared()

        gate.enter_shared = arriving
        b_thread = threading.Thread(
            target=run, args=("b", b, "retrieve (Dept.name)"), daemon=True)
        b_thread.start()
        assert b_arrived.wait(10.0), "B never reached the mutex"
        assert "b" not in rows and not errors
        release.set()
        a_thread.join(10.0)
        b_thread.join(10.0)
    assert errors == []
    assert len(rows["a"]) == 6 and len(rows["b"]) == 3
    assert len(ran_on) == 2 and ran_on[0] != ran_on[1]
    assert all(name.startswith("repro-conn-") for name in ran_on)


def test_disjoint_footprint_statements_never_overlap(company, monkeypatch):
    """Eight clients read the four sets -- no two footprints conflict --
    and still only one statement is ever inside the engine.  The first
    one admitted stays there until all eight have reached the mutex, so
    every other client is at its door while it runs."""
    clients, rounds = 8, 25
    db = company["db"]
    srv = Server(db, max_connections=clients).start()
    counts = {"arrived": 0, "admitted": 0, "inside": 0, "peak": 0}
    mutex = threading.Lock()
    everyone_waits = threading.Event()
    stalled = []
    enter_shared = EngineGate.enter_shared

    def arrive(gate):
        with mutex:
            counts["arrived"] += 1
            if counts["arrived"] == clients:
                everyone_waits.set()
        enter_shared(gate)

    def admitted():
        with mutex:
            counts["admitted"] += 1
            counts["inside"] += 1
            counts["peak"] = max(counts["peak"], counts["inside"])
            first = counts["admitted"] == 1
        if first and not everyone_waits.wait(10.0):
            stalled.append("the other clients never reached the mutex")

    def finishing():
        with mutex:
            counts["inside"] -= 1

    monkeypatch.setattr(EngineGate, "enter_shared", arrive)
    db.faults.probes.update(statement_admitted=admitted,
                            statement_finishing=finishing)
    start = threading.Barrier(clients, timeout=10.0)
    errors = []
    sets = ["Org", "Dept", "Emp1", "Emp2"]

    def run(idx):
        try:
            with connect(*srv.address) as client:
                start.wait()
                for __ in range(rounds):
                    client.execute(f"retrieve ({sets[idx % 4]}.name)")
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(clients)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        db.faults.probes.clear()
        srv.shutdown()
    assert errors == [] and stalled == []
    assert not any(t.is_alive() for t in threads)
    assert counts["admitted"] == clients * rounds
    assert counts["peak"] == 1


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


def test_concurrent_retrieves_never_share_a_result_file_name(company):
    """Eight threads, each inside the engine mutex as a served statement
    is, materialise results in turn: every result file needs a name of
    its own (the name used to come from an increment followed by a
    separate read)."""
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
# the pool under the mutex: a shortage is the statement's own
# ---------------------------------------------------------------------------


def _page_image(page_no: int) -> bytes:
    return bytes([page_no % 251]) * PAGE_SIZE


def test_buffer_pool_never_evicts_concurrently_pinned_frames():
    """A frame pinned while a miss looks for a victim is never the
    victim: the miss takes the unpinned frame behind it."""
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


def test_a_failed_load_without_waiters_leaves_no_frame():
    """A read that faults leaves no frame behind: the next fetch reads
    the page again, and the one frame stays evictable."""
    disk = SimulatedDisk()
    fid = disk.create_file()
    for pno in range(2):
        disk.allocate_page(fid)
        disk.write_page(fid, pno, _page_image(pno))
    disk.stats.reset()
    pool = BufferPool(disk, capacity=1)
    read_page = disk.read_page

    def faulty_read(file_id, page_no):
        disk.read_page = read_page  # fail once
        raise DiskFault("injected read failure")

    disk.read_page = faulty_read
    with pytest.raises(DiskFault):
        pool.fetch(fid, 1)
    assert pool.resident_keys() == set() and pool.pinned_keys() == []
    with pool.page(fid, 1) as page:  # the next fetch reads again
        assert bytes(page.data) == _page_image(1)
    assert disk.stats.physical_reads == 1
    with pool.page(fid, 0):  # and the one frame is evictable
        pass
    assert pool.resident_keys() == {(fid, 0)}


def test_a_small_pool_never_fails_a_statement_for_want_of_frames():
    """Two connections interleave 200 retrieves and replaces each over an
    8-frame pool that the scanned set overflows.  No statement fails for
    want of a frame, and once each statement is done -- still inside the
    engine, so nobody else's pins can be there -- no frame is pinned."""
    db = _build(wal=True)
    srv = Server(db, lock_timeout=30.0).start()
    leaked, errors = [], []
    pool = db.storage.pool

    def finishing():
        if pool.pinned_keys():
            leaked.append(pool.pinned_keys())

    db.faults.probes["statement_finishing"] = finishing
    start = threading.Barrier(2, timeout=10.0)

    def run(conn):
        try:
            with connect(*srv.address) as client:
                start.wait()
                for i in range(100):
                    rows = client.execute(
                        "retrieve (Emp.name, Emp.dept.name)").rows
                    assert len(rows) == 120
                    client.execute(
                        f'replace (Dept.name = "c{conn}-{i}") '
                        f"where Dept.budget = {100 + conn}")
        except RemoteError as exc:
            errors.append(f"{exc.code}: {exc}")
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(conn,), daemon=True)
               for conn in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        db.faults.probes.clear()
        srv.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and leaked == []
    assert db.telemetry.metrics.value(
        "server_requests_total", kind="statement") == 400
    assert pool.pinned_keys() == []
    db.verify()


# ---------------------------------------------------------------------------
# the commit force and flush-failure accounting
# ---------------------------------------------------------------------------


def _wal_db() -> Database:
    db = Database(wal=True)
    define_employee_schema(db)
    return db


def test_each_commit_forces_the_log_once():
    db = _wal_db()
    metrics = db.telemetry.metrics
    flushes_before = metrics.value("wal_flushes_total")
    for i in range(3):
        db.insert("Emp1", {"name": f"s{i}", "age": 30, "salary": 1,
                           "dept": None})
    assert metrics.value("wal_flushes_total") - flushes_before == 3


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


@pytest.fixture()
def wal_server():
    db = _wal_db()
    db.insert("Org", {"name": "acme", "budget": 1_000_000})
    for i, name in enumerate(["alice", "bob"]):
        db.insert("Emp1", {"name": name, "age": 30 + i,
                           "salary": 50_000 + 10_000 * i, "dept": None})
    srv = Server(db).start()
    yield srv
    srv.shutdown()


def test_commit_flush_fault_preserves_statement_atomicity(wal_server):
    """Two clients write disjoint sets at once and the first commit
    force fails.  Whatever was acknowledged survives recovery; whatever
    raised -- the statement whose force failed, and any statement the
    crashed engine then refused -- is rolled back: the client's view is
    always truthful."""
    db = wal_server.db
    with connect(*wal_server.address) as client:
        client.execute('replace (Emp1.salary = 7) where Emp1.name = "alice"')
    db.faults.fail_after_flushes(0)
    start = threading.Barrier(2, timeout=10.0)
    succeeded, failed = [], []
    # (set, field, name, value before)
    writes = [("Emp1", "salary", "bob", 60_000),
              ("Org", "budget", "acme", 1_000_000)]

    def write(write):
        set_name, field, name, __ = write
        try:
            with connect(*wal_server.address) as client:
                start.wait()
                client.execute(f"replace ({set_name}.{field} = 99) "
                               f'where {set_name}.name = "{name}"')
            succeeded.append(write)
        except RemoteError:
            failed.append(write)

    threads = [threading.Thread(target=write, args=(item,), daemon=True)
               for item in writes]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15.0)
    assert failed  # the injected fault hit at least one committer
    db.faults.disarm()
    with connect(*wal_server.address) as client:
        client.meta("recover")

        def value(set_name, field, name):
            return client.execute(f"retrieve ({set_name}.{field}) "
                                  f'where {set_name}.name = "{name}"').rows

        # acknowledged before the fault
        assert value("Emp1", "salary", "alice") == [(7,)]
        for set_name, field, name, __ in succeeded:
            assert value(set_name, field, name) == [(99,)], \
                f"acked statement on {name} lost"
        for set_name, field, name, before in failed:
            assert value(set_name, field, name) == [(before,)], \
                f"failed statement on {name} leaked"
