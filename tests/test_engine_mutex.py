"""Every page access of a served engine happens inside its engine mutex.

The buffer pool takes no lock of its own: a served statement enters the
engine mutex (``sessions.latch``) once its locks are granted, and so
does every maintenance pass.  This test makes that claim checkable.
Every pool method that pins, unpins, loads, dirties, writes back or drops
a page asserts that the calling thread owns the mutex of the engine the pool
belongs to, while served engines run

* the observer-neutrality script with every HTTP endpoint scraped
  between and during statements and /health re-running the doctor on
  every scrape;
* DDL, ``explain`` and ``explain analyze``;
* ``\\doctor``, ``\\verify`` and ``\\cold``;
* a follower applying the replication stream, then promoted.

Served planning runs before admission, so it must touch no page.  A
violation on any thread -- connection, worker, sidecar, the
follower's apply loop -- is recorded (some of those threads swallow
exceptions) and fails the test.
"""

import threading
from urllib.request import urlopen

import pytest

from repro.schema.database import Database
from repro.server import connect
from repro.server.httpexpo import ENDPOINTS, MetricsHTTPServer
from repro.server.replica import Replica, ReplicaServer
from repro.server.service import Server
from repro.storage.buffer import BufferPool
from tests.test_observer_neutrality import _SCRIPT, _build
from tests.test_replication_stream import SETUP_DDL

#: every pool entry point that pins, unpins, loads, dirties, writes or drops
#: a page (a group's misses load inside ``fetch_many``, not through ``fetch``)
_PAGE_ACCESS = ("fetch", "fetch_many", "unpin_many", "new_page", "writable",
                "mark_dirty", "flush_all", "flush_file", "discard_pages",
                "prefetch")


class _Owners:
    """Each watched pool's engine mutex, and every access made without it."""

    def __init__(self) -> None:
        self.mutexes: dict = {}
        self.violations: list[str] = []

    def watch(self, server: Server) -> None:
        self.mutexes[server.db.storage.pool] = server.sessions.latch._mutex

    def check(self, pool: BufferPool, name: str) -> None:
        mutex = self.mutexes.get(pool)
        if mutex is not None and not mutex._is_owned():
            where = f"BufferPool.{name} on {threading.current_thread().name}"
            self.violations.append(where)
            raise AssertionError(f"{where}, outside the engine mutex")


@pytest.fixture()
def owners(monkeypatch):
    owners = _Owners()
    for name in _PAGE_ACCESS:
        def checked(pool, *args, _original=getattr(BufferPool, name),
                    _name=name):
            owners.check(pool, _name)
            return _original(pool, *args)

        monkeypatch.setattr(BufferPool, name, checked)
    return owners


class _Rounds:
    """Counts the rounds a background loop finished; waits on them."""

    def __init__(self) -> None:
        self.done = 0
        self._cond = threading.Condition()

    def finished(self) -> None:
        with self._cond:
            self.done += 1
            self._cond.notify_all()

    def wait_whole_round(self) -> None:
        """Return once a round that began after this call has ended."""
        with self._cond:
            target = self.done + 2
            assert self._cond.wait_for(lambda: self.done >= target, 10.0), \
                "an observer thread stalled"


def _served_script(owners: _Owners) -> None:
    db = _build(wal=True)
    server = Server(db, health_ttl=1e-6)
    owners.watch(server)
    server.start()
    sidecar = MetricsHTTPServer(server).start()
    scrapes, stop = _Rounds(), threading.Event()

    def scrape_loop() -> None:
        while not stop.is_set():
            for path in ENDPOINTS:
                with urlopen(f"http://{sidecar.host}:{sidecar.port}{path}",
                             timeout=10.0) as response:
                    response.read()
            scrapes.finished()

    scraper = threading.Thread(target=scrape_loop, daemon=True)
    scraper.start()
    try:
        with connect(*server.address) as client:
            client.trace_enabled = True
            for text in _SCRIPT:
                scrapes.wait_whole_round()
                client.execute(text)
            client.execute("define type NOTE (text: char[20])")
            client.execute("create Note: {own ref NOTE}")
            assert "Emp" in client.execute(
                "explain retrieve (Emp.name) where Emp.salary > 1100")
            assert "Emp" in client.execute(
                "explain analyze retrieve (Emp.name, Emp.dept.name)")
            assert "no problems found" in client.meta("doctor")
            assert "invariants hold" in client.meta("verify")
            client.meta("cold")
            scrapes.wait_whole_round()
    finally:
        stop.set()
        scraper.join(timeout=10.0)
        sidecar.shutdown()
        server.shutdown()
    assert not scraper.is_alive()


def _follower_then_promoted(owners: _Owners) -> None:
    # sync_replicas=1: a write is acknowledged once the follower applied it
    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=10.0)
    owners.watch(primary)
    primary.start()
    follower = ReplicaServer(
        Replica(primary.address, name="r1", poll_wait=0.05,
                min_backoff=0.01, max_backoff=0.2), port=0)
    owners.watch(follower)
    follower.start()
    try:
        with connect(*primary.address) as client:
            for text in SETUP_DDL:
                client.execute(text)
            with primary.sessions.latch:
                db = primary.db
                toys = db.insert("Dept1", {"name": "toys", "floor": 3})
                tools = db.insert("Dept1", {"name": "tools", "floor": 1})
                db.insert("Emp1", {"name": "alice", "age": 30, "dept": toys})
                db.insert("Emp1", {"name": "bob", "age": 40, "dept": tools})
                lsn = primary.hub.log.last_lsn
            primary.hub.wait_for_sync(lsn)
            client.execute('replace (Dept1.name = "games") '
                           "where Dept1.floor = 3")
        with connect(*follower.address) as reader:
            assert sorted(reader.execute(
                "retrieve (Emp1.name, Emp1.dept.name)").rows) == [
                    ("alice", "games"), ("bob", "tools")]
            primary.die()
            assert reader.promote()["kind"] == "promoted"
            reader.execute('replace (Dept1.name = "shelves") '
                           "where Dept1.floor = 1")
            assert sorted(reader.execute(
                "retrieve (Emp1.name, Emp1.dept.name)").rows) == [
                    ("alice", "games"), ("bob", "shelves")]
    finally:
        follower.die()
        primary.die()


def test_every_page_access_is_inside_the_engine_mutex(owners):
    _served_script(owners)
    _follower_then_promoted(owners)
    assert owners.violations == []
