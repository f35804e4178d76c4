"""IOSnapshot arithmetic edge cases + eviction/write-back accounting."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import DROPPED_FILE_ID, IOSnapshot, IOStatistics


def _snap(**kwargs) -> IOSnapshot:
    base = dict(physical_reads=0, physical_writes=0, logical_reads=0,
                buffer_hits=0, evictions=0, dirty_writebacks=0,
                file_reads={}, file_writes={})
    base.update(kwargs)
    return IOSnapshot(**base)


# ---------------------------------------------------------------------------
# snapshot arithmetic
# ---------------------------------------------------------------------------


def test_subtraction_with_disjoint_file_reads():
    later = _snap(physical_reads=5, file_reads={1: 3, 2: 2})
    earlier = _snap(physical_reads=2, file_reads={3: 2})
    delta = later - earlier
    # file 3 never went negative-by-omission: it is simply absent/zero
    assert delta.physical_reads == 3
    assert delta.reads_for(1) == 3
    assert delta.reads_for(2) == 2
    assert delta.reads_for(3) == -2
    assert delta.total_io == 3


def test_zero_traffic_snapshot_subtraction():
    a = _snap()
    b = _snap()
    delta = a - b
    assert delta.total_io == 0
    assert delta.touched_files() == set()
    assert delta == _snap()


def test_subtraction_carries_evictions_and_writebacks():
    later = _snap(physical_writes=4, evictions=7, dirty_writebacks=3)
    earlier = _snap(physical_writes=1, evictions=2, dirty_writebacks=1)
    delta = later - earlier
    assert delta.evictions == 5
    assert delta.dirty_writebacks == 2
    assert delta.physical_writes == 3


def test_stats_snapshot_includes_new_counters():
    stats = IOStatistics()
    stats.count_eviction()
    stats.count_writeback()
    stats.count_writeback()
    snap = stats.snapshot()
    assert snap.evictions == 1
    assert snap.dirty_writebacks == 2
    stats.reset()
    after = stats.snapshot()
    assert after.evictions == 0 and after.dirty_writebacks == 0


# ---------------------------------------------------------------------------
# buffer pool feeds the counters
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_pool():
    disk = SimulatedDisk()
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    pages = []
    for __ in range(4):
        page_no, __page = pool.new_page(fid)
        pool.unpin(fid, page_no)
        pages.append(page_no)
    return disk, pool, fid, pages


def test_evictions_counted_on_lru_pressure(tiny_pool):
    disk, pool, fid, pages = tiny_pool
    # 4 new pages through a 2-frame pool: 2 evictions already happened
    assert disk.stats.evictions == 2
    # evicted pages were dirty (fresh pages), so they were written back
    assert disk.stats.dirty_writebacks == 2
    before = disk.stats.evictions
    with pool.page(fid, pages[0]):
        pass
    assert disk.stats.evictions == before + 1


def test_clean_eviction_does_not_count_writeback(tiny_pool):
    disk, pool, fid, pages = tiny_pool
    pool.invalidate_all()   # flush + empty; resident set now clean
    with pool.page(fid, pages[0]):
        pass
    with pool.page(fid, pages[1]):
        pass
    writebacks = disk.stats.dirty_writebacks
    evictions = disk.stats.evictions
    with pool.page(fid, pages[2]):  # evicts a clean frame
        pass
    assert disk.stats.evictions == evictions + 1
    assert disk.stats.dirty_writebacks == writebacks


def test_flush_all_counts_writebacks_not_evictions(tiny_pool):
    disk, pool, fid, pages = tiny_pool
    pool.invalidate_all()
    with pool.page(fid, pages[0]):
        pool.mark_dirty(fid, pages[0])
    evictions = disk.stats.evictions
    writebacks = disk.stats.dirty_writebacks
    pool.flush_all()
    assert disk.stats.dirty_writebacks == writebacks + 1
    assert disk.stats.evictions == evictions
    pool.flush_all()  # now clean: nothing new
    assert disk.stats.dirty_writebacks == writebacks + 1


def test_measured_delta_attributes_evictions(tiny_pool):
    disk, pool, fid, pages = tiny_pool
    pool.invalidate_all()
    before = disk.stats.snapshot()
    with pool.page(fid, pages[0]):
        pass
    with pool.page(fid, pages[1]):
        pass
    with pool.page(fid, pages[2]):
        pass
    delta = disk.stats.snapshot() - before
    assert delta.evictions == 1
    assert delta.physical_reads == 3


# ---------------------------------------------------------------------------
# dropped files: their counters fold into one bucket
# ---------------------------------------------------------------------------


def test_fold_dropped_file_keeps_totals_and_shrinks_the_dicts():
    stats = IOStatistics()
    for __ in range(2):
        stats.count_read(3)
    stats.count_write(3)
    stats.count_write(4)
    stats.fold_dropped_file(3)
    stats.fold_dropped_file(99)  # never counted: nothing to move
    assert stats.file_reads == {DROPPED_FILE_ID: 2}
    assert stats.file_writes == {DROPPED_FILE_ID: 1, 4: 1}
    assert (stats.physical_reads, stats.physical_writes) == (2, 2)
    stats.count_write(5)
    stats.fold_dropped_file(5)
    assert stats.file_writes == {DROPPED_FILE_ID: 2, 4: 1}


def test_served_retrieves_leave_no_per_file_counters_behind(company):
    """Every retrieve creates, writes and drops a result file; its write
    used to stay in ``file_writes`` under an id of its own for ever, and
    every later statement copied and subtracted the ever larger dicts."""
    db = company["db"]
    query = "retrieve (Emp1.name, Emp1.dept.name)"
    db.execute(query)
    after_first = len(db.stats.file_writes)
    for __ in range(2000):
        db.execute(query)
    live_files = len(db.storage.disk.file_ids())
    assert len(db.stats.file_writes) == after_first <= live_files + 1
    assert len(db.stats.snapshot().file_writes) == after_first
    assert len(db.stats.file_reads) <= live_files + 1

    # the statement's own io still reports T's write, and the per-file
    # counters still add up to the totals
    db.cold_cache()
    cost = db.execute(query).io
    assert cost.writes_for(DROPPED_FILE_ID) == 1 == cost.physical_writes
    assert cost.physical_reads > 0
    assert cost.physical_reads == sum(
        cost.reads_for(f) for f in cost.touched_files())
    assert cost.physical_writes == sum(
        cost.writes_for(f) for f in cost.touched_files())
    breakdown = db.storage.io_breakdown(cost)
    assert breakdown["(dropped)"] == (0, 1)
    assert set(breakdown) == {"(dropped)", "Emp1", "Dept"}
    total = db.stats.snapshot()
    assert total.physical_writes == sum(total.file_writes.values())
    assert total.physical_reads == sum(total.file_reads.values())
