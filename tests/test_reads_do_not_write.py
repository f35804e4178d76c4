"""An embedded read writes its result file T and nothing else; a served
read writes nothing.

An update leaves the pages it changed dirty in the buffer pool.  An
embedded retrieve that follows writes back the pages of its own output
file T (one page for the 50 rows read here, the paper's C_generate/T); a
served retrieve sends its rows in the response frame and writes no page.
Both leave the update's pages dirty; eviction or a checkpoint writes
them.  The log still describes them, so a crash after update -> read ->
read recovers the same rows.  The paper-model simulation keeps charging
a query for the write-backs it defers, by flushing explicitly.
"""

import functools
import random
from contextlib import nullcontext

import pytest

from repro import Database
from repro.server.client import connect
from repro.server.service import Server
from repro.workloads import generator
from repro.workloads.simulate import run_read_query, run_update_query

#: 500 S objects, one R referencer each; a read returns 50 rows
_CONFIG = generator.WorkloadConfig(n_s=500, f_r=0.1, strategy="inplace",
                                   buffer_frames=256, seed=3)
_READ = ("retrieve (R.field_r, R.sref.repfield) "
         "where R.field_r >= 100 and R.field_r <= 149")
_READ_ALL = "retrieve (R.field_r, R.sref.repfield)"
_UPDATE = ("replace (S.repfield = 'renamed') "
           "where S.field_s >= 120 and S.field_s <= 124")

#: update, read, update, read on ``_CONFIG`` from ``random.Random(7)``:
#: the reads as when every retrieve still flushed the whole pool; the
#: updates read fewer link pages since link objects are built in owner order
_SIMULATED_TOTALS = [21, 20, 23, 21]


@pytest.fixture()
def mdb(monkeypatch):
    """The ``inplace`` R -> S model database with the WAL on."""
    monkeypatch.setattr(generator, "Database",
                        functools.partial(Database, wal=True))
    built = generator.build_model_database(_CONFIG)
    built.db.checkpoint()  # the load is durable: the pool starts clean
    return built


def _dirty(db) -> set:
    return set(db.storage.pool._dirty)


def _check_a_read_writes_only(db, execute, engine, writes) -> None:
    """``execute`` runs a statement; ``engine`` guards a look at the pool;
    each read writes ``writes`` pages, those of its result file T."""
    assert len(execute(_UPDATE)) == 5
    with engine:
        dirtied = _dirty(db)
    assert dirtied, "the update left no dirty page"
    for __ in range(2):
        result = execute(_READ)
        assert len(result) == 50
        assert result.io.physical_writes == writes
        with engine:
            assert _dirty(db) == dirtied
    with engine:
        flushed = db.measure(db.checkpoint)
        assert flushed.physical_writes == len(dirtied)
        assert _dirty(db) == set()


def test_embedded_read_writes_its_result_file_only(mdb):
    _check_a_read_writes_only(mdb.db, mdb.db.execute, nullcontext(),
                              writes=1)  # T's one page


def test_served_read_writes_no_page(mdb):
    server = Server(mdb.db, port=0).start()
    try:
        with connect(*server.address) as client:
            _check_a_read_writes_only(mdb.db, client.execute,
                                      server.sessions.latch, writes=0)
    finally:
        server.shutdown()


def test_a_crash_after_update_then_reads_recovers_the_same_rows(mdb):
    db = mdb.db
    db.execute(_UPDATE)
    rows = sorted(db.execute(_READ_ALL).rows)
    assert [value for __, value in rows].count("renamed") == 5  # f = 1
    assert sorted(db.execute(_READ).rows) == [
        row for row in rows if 100 <= row[0] <= 149]
    assert _dirty(db), "nothing left to lose in the crash"
    db.recovery.wal.mark_crashed()  # the pool, dirty frames included, is lost
    report = db.recover()
    assert report.verified and report.pages_redone > 0
    assert sorted(db.execute(_READ_ALL).rows) == rows
    db.verify()
    assert db.doctor().healthy


def test_the_simulation_still_charges_deferred_write_backs(mdb):
    """``run_*_query`` flush after the statement: an update pays for its
    own pages, a read for T -- the totals the paper figures are built
    from."""
    rng = random.Random(7)
    assert [run_update_query(mdb, rng), run_read_query(mdb, rng),
            run_update_query(mdb, rng), run_read_query(mdb, rng)] \
        == _SIMULATED_TOTALS
