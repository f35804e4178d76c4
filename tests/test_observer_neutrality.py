"""Observers never move pages.

The paper's results are counts of page I/O, so nothing that *watches*
the engine may change what it reads or writes.  One read + update script
runs against a bare embedded engine and against the same engine with an
observer switched on -- the WAL, ``EXPLAIN ANALYZE`` metering, the
tracer, and the whole served stack (trace propagation, slow log at
threshold 0, statement analytics + ledger, wait events, every HTTP
endpoint scraped in a loop) -- and the per-statement
``(physical_reads, physical_writes)`` lists must be equal.  A served
retrieve writes no result file T, so the served stack is compared with
the bare engine run with ``materialize=False``.

The pool is smaller than ``Emp``, so every scan of it misses whatever
ran before, while the short ``Dept`` reads depend on what is resident:
an observer that drags a page through the pool changes a count.
"""

import threading
import time
from urllib.request import urlopen

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.server import connect
from repro.server.httpexpo import ENDPOINTS, MetricsHTTPServer
from repro.server.service import Server

_FRAMES = 8
_DEPTS = 4
_EMPS = 120

_SCRIPT = tuple(text for i in range(3) for text in (
    "retrieve (Emp.name, Emp.dept.name)",
    "retrieve (Dept.name, Dept.budget)",
    f'replace (Dept.name = "renamed{i}") where Dept.budget = {100 + i}',
    "retrieve (Emp.name) where Emp.salary > 1020",
    f'replace (Emp.salary = {2000 + i}) where Emp.name = "emp{i}"',
    "retrieve (Emp.dept.name)",
))
#: the statements that scan Emp: they miss on every run
_EMP_SCANS = [i for i, text in enumerate(_SCRIPT)
              if text.startswith("retrieve (Emp")]


def _build(wal: bool = False) -> Database:
    db = Database(wal=wal, buffer_frames=_FRAMES)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 200),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 200),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": 100 + i})
             for i in range(_DEPTS)]
    for i in range(_EMPS):
        db.insert("Emp", {"name": f"emp{i}", "salary": 1000 + i,
                          "dept": depts[i % _DEPTS]})
    db.replicate("Emp.dept.name")
    assert db.catalog.get_set("Emp").num_pages() > _FRAMES
    return db


def _page_io(execute) -> list:
    """``(physical_reads, physical_writes)`` of every script statement."""
    page_io = []
    for text in _SCRIPT:
        io = execute(text).io
        page_io.append((io.physical_reads, io.physical_writes))
    return page_io


def _embedded(observer: str, materialize: bool = True) -> list:
    db = _build(wal=observer == "wal")
    tracer = db.telemetry.tracer
    if observer == "tracer":
        tracer.enable()
    options = {"materialize": materialize}
    if observer == "analyze":
        options["analyze"] = True
    db.cold_cache()
    page_io = _page_io(lambda text: db.execute(text, **options))
    db.verify()
    # the observer ran -- and only where it was switched on
    assert (len(tracer.spans) > 0) == (observer == "tracer")
    wal_records = sum(v for __, v in db.telemetry.metrics.counter(
        "wal_records_total").samples())
    assert (wal_records > 0) == (observer == "wal")
    return page_io


def _advance(counter) -> None:
    """Block until ``counter()`` has moved past its current value."""
    start, give_up = counter(), time.monotonic() + 10.0
    while counter() == start:
        assert time.monotonic() < give_up, "an observer thread stalled"
        time.sleep(0.001)


def _served() -> list:
    db = _build(wal=True)
    telemetry = db.telemetry
    telemetry.slowlog.configure(threshold_ms=0.0)
    server = Server(db).start()
    sidecar = MetricsHTTPServer(server).start()
    rounds, stop = [0], threading.Event()

    def scrape_loop() -> None:
        while not stop.is_set():
            for path in ENDPOINTS:
                with urlopen(f"http://{sidecar.host}:{sidecar.port}{path}",
                             timeout=10.0) as response:
                    response.read()
            rounds[0] += 1

    scraper = threading.Thread(target=scrape_loop, daemon=True)
    scraper.start()

    def execute(text: str):
        # a full scrape round lands between every two statements, and
        # scraping keeps running while the statement does
        _advance(lambda: rounds[0])
        result = client.execute(text)
        assert {s["name"] for s in result.trace["spans"]} >= {
            "client_request", "statement", "execute"}
        return result

    try:
        with connect(*server.address) as client:
            client.trace_enabled = True
            # start() and the first /health scrape ran the doctor
            _advance(lambda: rounds[0])
            client.meta("cold")
            page_io = _page_io(execute)
    finally:
        stop.set()
        scraper.join(timeout=10.0)
        sidecar.shutdown()
        server.shutdown()
    assert not scraper.is_alive()
    db.verify()
    # one slow-log record and one fingerprint observation per statement
    assert len(telemetry.slowlog) == len(_SCRIPT)
    assert sum(entry["calls"] for entry in telemetry.statements.entries()) \
        == len(_SCRIPT)
    assert len(db.monitor.ledger()) == 1
    assert telemetry.waits.snapshot()["coverage"] >= 0.95
    return page_io


@pytest.fixture(scope="module")
def bare() -> list:
    return _embedded("bare")


@pytest.fixture(scope="module")
def bare_unmaterialized() -> list:
    """The bare engine run as a server runs a statement: no result file."""
    return _embedded("bare", materialize=False)


@pytest.mark.parametrize("observer", ["wal", "analyze", "tracer", "served"])
def test_observer_moves_no_page(bare, bare_unmaterialized, observer):
    if observer == "served":
        observed, expected = _served(), bare_unmaterialized
    else:
        observed, expected = _embedded(observer), bare
    assert observed == expected
    for page_io in (expected, observed):
        assert all(page_io[i][0] > 0 for i in _EMP_SCANS)
