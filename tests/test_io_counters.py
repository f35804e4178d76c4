"""The pool's and the disk's counts, as the registry renders them.

The buffer pool and the simulated disk keep their counts as plain fields
and time each page transfer into a tally of their own; the metrics
registry and the wait collector read those when they are scraped.  These
tests hold the rendered series to the I/O statistics the paper's numbers
come from, a statement's ``buffer_io`` ledger to its own transfers, and
the series to rendering on after ``Telemetry.reset()``.
"""

import functools

import pytest

from repro.errors import BufferPoolError, DiskFault
from repro.schema.database import Database
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.telemetry.waitevents import BUFFER_IO
from repro.workloads import generator
from tests.test_prometheus_conformance import parse_exposition

READ = ("retrieve (R.field_r, R.sref.repfield) "
        "where R.field_r >= {lo} and R.field_r <= {hi}")
UPDATE = ("replace (S.repfield = '{value}') "
          "where S.field_s >= {lo} and S.field_s <= {hi}")
#: a file scan, which reads ahead
SCAN = "retrieve (S.field_s, S.repfield)"


def _database(monkeypatch) -> Database:
    """The paper's R -> S schema, logged, in a 64-frame pool: about a
    sixth of its pages fit."""
    monkeypatch.setattr(generator, "Database",
                        functools.partial(Database, wal=True))
    config = generator.WorkloadConfig(n_s=400, f=5, buffer_frames=64, seed=7)
    return generator.build_model_database(config).db


def _rendered(db) -> dict:
    """``name`` or ``name{label=value}`` -> value, from the exposition."""
    samples, __, __, __ = parse_exposition(
        db.telemetry.metrics.render_prometheus())
    out = {}
    for name, labels, value in samples:
        key = name + "".join(f"{{{k}={v}}}" for k, v in sorted(labels.items()))
        out[key] = value
    return out


def _ledgers(monkeypatch, waits) -> list:
    """Each finished statement's ledger, event -> [seconds, count]."""
    ledgers = []
    finish = waits.finish_statement

    def recording(ctx, duration_s):
        ledgers.append({event: list(slot) for event, slot in ctx.waits.items()})
        return finish(ctx, duration_s)

    monkeypatch.setattr(waits, "finish_statement", recording)
    return ledgers


def test_rendered_counters_equal_the_io_statistics(monkeypatch):
    db = _database(monkeypatch)
    pool = db.storage.pool
    for step in range(12):
        lo = step * 97 % 1900
        db.execute(READ.format(lo=lo, hi=lo + 49))
        db.execute(SCAN)
        lo = step * 31 % 390
        db.execute(UPDATE.format(value=f"u{step}", lo=lo, hi=lo + 9))
    db.checkpoint()
    stats = db.stats
    # the run did what it is here to count
    assert stats.evictions > 0 and stats.dirty_writebacks > 0
    assert stats.prefetch_issued > 0 and stats.prefetch_hits > 0
    rendered = _rendered(db)
    assert rendered["disk_reads_total"] == stats.physical_reads
    assert rendered["disk_writes_total"] == stats.physical_writes
    assert rendered["bufferpool_hits_total"] == stats.buffer_hits
    assert rendered["bufferpool_evictions_total"] == stats.evictions
    assert rendered["bufferpool_writebacks_total"] == stats.dirty_writebacks
    assert rendered["bufferpool_prefetch_issued_total"] == stats.prefetch_issued
    assert rendered["bufferpool_prefetch_hits_total"] == stats.prefetch_hits
    assert rendered["bufferpool_resident_frames"] == len(pool.resident_keys())
    # every transfer is a miss, a read-ahead load or a write-back
    transfers = pool.misses + pool.prefetch_issued + pool.writebacks
    assert rendered["wait_events_total{event=buffer_io}"] == transfers
    assert stats.physical_reads + stats.physical_writes == transfers
    [row] = [r for r in db.telemetry.waits.totals() if r["event"] == BUFFER_IO]
    assert row["count"] == transfers
    assert rendered["wait_seconds_total{event=buffer_io}"] > 0


def test_a_statement_ledger_holds_its_own_transfers(monkeypatch):
    db = _database(monkeypatch)
    pool = db.storage.pool
    ledgers = _ledgers(monkeypatch, db.telemetry.waits)
    db.cold_cache()
    start = pool.io_transfers
    db.execute(UPDATE.format(value="x", lo=100, hi=109))
    updated = pool.io_transfers
    db.checkpoint()  # between the statements: charged to neither
    checkpointed = pool.io_transfers
    db.execute(READ.format(lo=500, hi=549))
    read = pool.io_transfers
    assert updated > start and checkpointed > updated and read > checkpointed
    assert [ledger[BUFFER_IO][1] for ledger in ledgers] == [
        updated - start, read - checkpointed]
    total = db.telemetry.waits.total_for(BUFFER_IO)
    assert sum(ledger[BUFFER_IO][0] for ledger in ledgers) < total


def test_a_failed_request_still_counts_as_requested():
    """A demand request counts its logical read, and the eviction that
    made room for it, whether its read faults or no frame is free; a
    read-ahead whose read faults counts its eviction only."""
    disk = SimulatedDisk()
    fid = disk.create_file()
    for __ in range(3):
        disk.allocate_page(fid)
    pool = BufferPool(disk, capacity=1)
    with pool.page(fid, 0):
        pass
    stats = disk.stats
    stats.reset()
    read_page = disk.read_page

    def fail_once(file_id, page_no):
        disk.read_page = read_page
        raise DiskFault("injected read failure")

    def counts():  # the pool's own misses include page 0's
        return (stats.logical_reads, stats.physical_reads, stats.evictions,
                stats.prefetch_issued, pool.misses, pool.evictions)

    disk.read_page = fail_once
    with pytest.raises(DiskFault):
        pool.fetch(fid, 1)      # evicts page 0, then the read faults
    assert counts() == (1, 0, 1, 0, 1, 1)
    pool.fetch(fid, 1)          # the one frame, pinned
    with pytest.raises(BufferPoolError):
        pool.fetch(fid, 2)
    assert counts() == (3, 1, 1, 0, 2, 1)
    pool.unpin(fid, 1)
    disk.read_page = fail_once
    with pytest.raises(DiskFault):
        pool.prefetch(fid, [2])  # evicts page 1, then the read faults
    assert counts() == (3, 1, 2, 0, 2, 2)


def test_reset_zeroes_every_series_and_they_render_again(company):
    """``Telemetry.reset()`` used to drop the registry's metrics while the
    pool and the wait collector kept feeding the dropped objects, so
    their series never rendered again."""
    db = company["db"]
    query = "retrieve (Emp1.name, Emp1.dept.name)"
    db.cold_cache()
    db.execute(query)
    db.telemetry.reset()
    stats = db.stats
    hits, reads = stats.buffer_hits, stats.physical_reads
    rendered = _rendered(db)
    assert rendered["bufferpool_hits_total"] == 0
    assert rendered["disk_reads_total"] == 0
    assert rendered["bufferpool_resident_frames"] == \
        len(db.storage.pool.resident_keys())  # a level, kept
    assert rendered.get("wait_events_total{event=buffer_io}", 0) == 0

    db.cold_cache()
    db.execute(query)
    rendered = _rendered(db)
    assert rendered["bufferpool_hits_total"] == stats.buffer_hits - hits > 0
    assert rendered["disk_reads_total"] == stats.physical_reads - reads > 0
    assert rendered["wait_events_total{event=cpu}"] == 1
    [row] = [r for r in db.telemetry.waits.totals() if r["event"] == BUFFER_IO]
    assert rendered["wait_events_total{event=buffer_io}"] == row["count"] > 0
    assert db.telemetry.waits.snapshot()["statements"] == 1
