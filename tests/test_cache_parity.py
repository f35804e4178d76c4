"""Result-cache parity: the cache must be invisible except for speed.

Every section compares cache-on answers against a cache-off engine:
corpus x replication-layout parity (including hits after warm-up),
interleaved mutations (invalidation correctness), the WAL crash matrix,
concurrent served sessions, read-your-writes inside transactions, and a
WAL-shipped follower whose cache must track the applied stream.
"""

import threading
import time

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.errors import DiskFault, PlanningError
from repro.server.client import connect
from repro.server.replica import Replica, ReplicaServer
from repro.server.service import Server
from repro.server.session import SessionManager
from tests.conftest import define_employee_schema
from tests.test_executor_parity import _CORPUS, _LAYOUTS, _populate


def _build(layout: str, cache: bool) -> Database:
    db = Database(cache=cache)
    _populate(db, dangling_org=(layout != "collapsed"))
    for path_text, opts in _LAYOUTS[layout]:
        db.replicate(path_text, **opts)
    return db


# ---------------------------------------------------------------------------
# corpus x layouts: cached rows byte-identical, hits serve with zero I/O
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_corpus_rows_identical_with_cache(layout):
    plain = _build(layout, cache=False)
    cached = _build(layout, cache=True)
    for query in _CORPUS:
        try:
            want = plain.execute(query, materialize=False)
        except PlanningError:
            # rejected at planning time -- cache state must not change that
            with pytest.raises(PlanningError):
                cached.execute(query, materialize=False)
            continue
        first = cached.execute(query, materialize=False)
        second = cached.execute(query, materialize=False)
        assert first.columns == want.columns == second.columns, query
        assert first.rows == want.rows, query
        assert second.rows == want.rows, query
        if first.cache == "miss":
            assert second.cache == "hit", query
            assert second.io.total_io == 0, query
        else:
            # lazy layouts drain propagation queues on path reads: a write
            assert first.cache == "bypass" and layout == "lazy", query
        assert cached.storage.pool.pinned_keys() == []
    assert plain.resultcache.hits == 0  # off means off
    assert cached.doctor().healthy


@pytest.mark.parametrize("layout", ["none", "inplace", "separate"])
def test_mutations_interleaved_stay_in_parity(layout):
    """Warm every entry, mutate through every invalidation hook, re-ask."""
    plain = _build(layout, cache=False)
    cached = _build(layout, cache=True)

    def ask_all():
        for query in _CORPUS:
            try:
                want = plain.execute(query, materialize=False)
            except PlanningError:
                continue
            got = cached.execute(query, materialize=False)
            assert got.rows == want.rows, query

    def mutate(db):
        depts = [oid for oid, __ in db.catalog.get_set("Dept").scan()]
        db.update("Dept", depts[1], {"name": "renamed"})   # replicated field
        db.update("Dept", depts[2], {"budget": 1})         # unreplicated
        new = db.insert("Emp1", {"name": "zz-new", "age": 1, "salary": 1,
                                 "dept": depts[0]})
        db.update("Emp1", new, {"salary": 2})
        victims = [oid for oid, __ in db.catalog.get_set("Emp1").scan()]
        db.delete("Emp1", victims[-1])

    ask_all()                     # warm
    mutate(plain)
    mutate(cached)
    ask_all()                     # stale entries must be gone
    ask_all()                     # and the refills must be right too
    assert cached.doctor().healthy


# ---------------------------------------------------------------------------
# WAL crash matrix: recovery flushes the cache, answers stay exact
# ---------------------------------------------------------------------------


def _crash_build() -> Database:
    db = Database(wal=True, buffer_frames=8, cache=True)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 200),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 200),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": 100 * i})
             for i in range(3)]
    for i in range(60):
        db.insert("Emp", {"name": f"emp{i}", "salary": 1000 + i,
                          "dept": depts[i % 3]})
    db.replicate("Emp.dept.name")
    db.checkpoint()
    return db


_CRASH_QUERIES = (
    "retrieve (Emp.name, Emp.dept.name)",
    "retrieve (Emp.dept.name, count(Emp.name)) group by Emp.dept.name",
    "retrieve (Emp.name) order by Emp.salary desc limit 5",
)


@pytest.mark.parametrize("torn", [False, True])
def test_crash_recover_flushes_cache_and_stays_exact(torn):
    db = _crash_build()
    for query in _CRASH_QUERIES:      # warm entries that the crash must kill
        db.execute(query)
    assert len(db.resultcache) == len(_CRASH_QUERIES)
    depts = [oid for oid, __ in db.catalog.get_set("Dept").scan()]
    db.faults.fail_after_writes(3, torn=torn)
    crashed = False
    try:
        for i, dept in enumerate(depts):
            db.update("Dept", dept, {"name": f"renamed{i}" * 20})
    except DiskFault:
        crashed = True
    assert crashed, "workload too small to reach the fault point"
    assert db.recovery.needs_recovery
    assert db.recover().verified
    assert len(db.resultcache) == 0   # restart = cold cache
    db.verify()
    for query in _CRASH_QUERIES:
        warm = db.execute(query)      # refill
        hit = db.execute(query)
        assert hit.cache == "hit"
        db.resultcache.enabled = False
        db.cold_cache()
        truth = db.execute(query)
        db.resultcache.enabled = True
        assert warm.rows == truth.rows == hit.rows, query
    assert db.doctor().healthy


# ---------------------------------------------------------------------------
# served sessions: concurrency, transactions, read-your-writes
# ---------------------------------------------------------------------------


def _served_db() -> Database:
    db = Database(cache=True)
    define_employee_schema(db)
    db.replicate("Emp1.dept.name")
    org = db.insert("Org", {"name": "org", "budget": 1})
    depts = [db.insert("Dept", {"name": f"d{i}", "budget": i, "org": org})
             for i in range(3)]
    for i in range(12):
        db.insert("Emp1", {"name": f"e{i:02d}", "age": 20 + i,
                           "salary": 1000 * i, "dept": depts[i % 3]})
    return db


@pytest.fixture()
def manager():
    mgr = SessionManager(_served_db(), lock_timeout=5.0)
    yield mgr
    mgr.shutdown()


def test_concurrent_sessions_never_see_torn_or_stale_rows(manager):
    """Readers hammer a cached join while a writer flips the replicated
    field; 2PL + footprint invalidation must keep every serve atomic."""
    stop = threading.Event()
    failures: list[str] = []
    query = "retrieve (Emp1.name, Emp1.dept.name)"

    def reader(tag: str):
        session = manager.open_session(tag)
        while not stop.is_set():
            rows = session.run_statement(query)["rows"]
            named = {name for __, name in rows if name is not None}
            # dept d0's name is atomically "d0" or "flip" -- a serve that
            # mixes them caught a torn or stale entry
            if {"d0", "flip"} <= named:
                failures.append(f"{tag}: torn serve {sorted(named)}")
                return
        # after the writer parks on "flip", a fresh read must see it:
        # a stale cache entry surviving the final invalidation would not
        final = session.run_statement(query)["rows"]
        if not any(name == "flip" for __, name in final):
            failures.append(f"{tag}: stale rows after writer quiesced")

    def writer():
        session = manager.open_session("writer")
        for i in range(30):
            target = "flip" if i % 2 == 0 else "d0"
            session.run_statement(
                f'replace (Dept.name = "{target}") where Dept.budget = 0')
        session.run_statement(
            'replace (Dept.name = "flip") where Dept.budget = 0')

    threads = [threading.Thread(target=reader, args=(f"r{i}",))
               for i in range(3)]
    for thread in threads:
        thread.start()
    writer()
    stop.set()
    for thread in threads:
        thread.join(timeout=20.0)
    assert failures == []
    assert manager.db.doctor().healthy
    # the run must actually have exercised the cache
    assert manager.db.resultcache.hits > 0
    assert manager.db.resultcache.invalidations["write"] > 0


def test_served_read_your_writes_regression(manager):
    """begin -> replace -> query -> commit: the querying transaction must
    see its own write, never a cached pre-write answer."""
    session = manager.open_session("t")
    query = "retrieve (Dept.name) where Dept.budget = 0"
    session.run_statement(query)
    assert session.run_statement(query)["cache"] == "hit"
    session.run_statement("begin")
    session.run_statement('replace (Dept.name = "mine") where Dept.budget = 0')
    mid = session.run_statement(query)
    assert mid["cache"] == "bypass"          # no serve, no fill while dirty
    assert mid["rows"] == [["mine"]]         # own write visible
    # a second read inside the same dirty transaction still bypasses
    assert session.run_statement(query)["cache"] == "bypass"
    session.run_statement("commit")
    after = session.run_statement(query)     # entry was invalidated
    assert after["cache"] == "miss"
    assert after["rows"] == [["mine"]]
    assert session.run_statement(query)["cache"] == "hit"


def test_aborted_transaction_does_not_poison_the_cache(manager):
    session = manager.open_session("t")
    query = "retrieve (Dept.name) where Dept.budget = 0"
    session.run_statement("begin")
    session.run_statement('replace (Dept.name = "oops") where Dept.budget = 0')
    assert session.run_statement(query)["cache"] == "bypass"
    session.run_statement("abort")
    # nothing was filled while dirty, so nothing stale can be served now
    fresh = session.run_statement(query)
    assert fresh["cache"] == "miss"


# ---------------------------------------------------------------------------
# follower coherence: a cached read replica tracks the applied WAL stream
# ---------------------------------------------------------------------------


SETUP_DDL = [
    "define type DEPT (name: char[12], floor: int)",
    "define type EMP (name: char[12], age: int, dept: ref DEPT)",
    "create Dept1: {own ref DEPT}",
    "create Emp1: {own ref EMP}",
    "replicate Emp1.dept.name",
]


def _wait_caught_up(replica: Replica, primary: Server,
                    timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if (replica.applied_lsn >= primary.hub.log.last_lsn
                and replica.connected):
            return
        time.sleep(0.01)
    raise AssertionError(
        f"follower stuck at {replica.applied_lsn}, primary at "
        f"{primary.hub.log.last_lsn}")


def test_follower_cache_coheres_with_the_stream():
    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=10.0).start()
    follower = ReplicaServer(
        Replica(primary.address, name="r1", max_lag_statements=64,
                poll_wait=0.05, min_backoff=0.01, max_backoff=0.2),
        port=0).start()
    pclient = connect(*primary.address)
    fclient = connect(*follower.address)
    try:
        for text in SETUP_DDL:
            pclient.execute(text)
        with primary.sessions.latch:
            db = primary.db
            toys = db.insert("Dept1", {"name": "toys", "floor": 3})
            tools = db.insert("Dept1", {"name": "tools", "floor": 1})
            db.insert("Emp1", {"name": "alice", "age": 30, "dept": toys})
            db.insert("Emp1", {"name": "bob", "age": 40, "dept": tools})
        follower.db.resultcache.enabled = True
        _wait_caught_up(follower.replica, primary)
        query = "retrieve (Emp1.name, Emp1.dept.name)"
        first = fclient.execute(query)
        assert first.cache == "miss"
        second = fclient.execute(query)
        assert second.cache == "hit"
        assert second.rows == first.rows
        assert ("alice", "toys") in second.rows
        # a primary write that propagates into Emp1's hidden copies must
        # kill the follower's entry when the stream applies -- before the
        # applied LSN advances, so catching up implies coherence
        pclient.execute(
            'replace (Dept1.name = "games") where Dept1.name = "toys"')
        _wait_caught_up(follower.replica, primary)
        after = fclient.execute(query)
        assert after.cache == "miss"
        assert ("alice", "games") in after.rows
        assert follower.db.resultcache.invalidations["replica"] >= 1
        # DDL on the stream drops everything (schema epoch changed)
        fclient.execute(query)
        pclient.execute("create Dept2: {own ref DEPT}")
        _wait_caught_up(follower.replica, primary)
        assert fclient.execute(query).cache == "miss"
        # the staleness guard still wins over the cache: a stale follower
        # refuses even a warm entry rather than serve beyond the bound
        hot = fclient.execute(query)
        assert hot.cache in ("hit", "miss")
        follower.replica.stop_apply()
        follower.replica.max_lag = 0
        follower.replica.primary_lsn = follower.replica.applied_lsn + 9
        from repro.errors import RemoteError
        with pytest.raises(RemoteError, match="behind the primary"):
            fclient.execute(query)
    finally:
        fclient.close()
        pclient.close()
        follower.die()
        primary.die()
