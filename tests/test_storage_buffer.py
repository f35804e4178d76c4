"""Unit tests for the simulated disk and LRU buffer pool."""

import pytest

from repro.errors import BufferPoolError, FileNotFoundInStoreError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.stats import IOStatistics


@pytest.fixture()
def disk():
    return SimulatedDisk(IOStatistics())


def test_disk_create_and_drop_file(disk):
    fid = disk.create_file()
    assert disk.file_exists(fid)
    assert disk.num_pages(fid) == 0
    disk.drop_file(fid)
    assert not disk.file_exists(fid)


def test_disk_unknown_file_raises(disk):
    with pytest.raises(FileNotFoundInStoreError):
        disk.read_page(999, 0)
    with pytest.raises(FileNotFoundInStoreError):
        disk.num_pages(999)


def test_disk_page_out_of_range_raises(disk):
    fid = disk.create_file()
    with pytest.raises(FileNotFoundInStoreError):
        disk.read_page(fid, 0)


def test_disk_counts_physical_io(disk):
    fid = disk.create_file()
    pno = disk.allocate_page(fid)
    assert disk.stats.physical_reads == 0
    disk.read_page(fid, pno)
    assert disk.stats.physical_reads == 1
    disk.write_page(fid, pno, bytes(4096))
    assert disk.stats.physical_writes == 1


def test_disk_write_wrong_size_raises(disk):
    fid = disk.create_file()
    pno = disk.allocate_page(fid)
    with pytest.raises(ValueError):
        disk.write_page(fid, pno, b"short")


def test_buffer_hit_costs_no_physical_read(disk):
    pool = BufferPool(disk, capacity=4)
    fid = disk.create_file()
    pno, page = pool.new_page(fid)
    page.insert(b"x")
    pool.mark_dirty(fid, pno)
    pool.unpin(fid, pno)
    base = disk.stats.physical_reads
    with pool.page(fid, pno):
        pass
    with pool.page(fid, pno):
        pass
    assert disk.stats.physical_reads == base  # both were hits
    assert disk.stats.buffer_hits >= 2


def test_eviction_writes_back_dirty_page(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    pno, page = pool.new_page(fid)
    slot = page.insert(b"durable")
    pool.mark_dirty(fid, pno)
    pool.unpin(fid, pno)
    # Fill the pool so (fid, pno) is evicted.
    for __ in range(3):
        n, __page = pool.new_page(fid)
        pool.unpin(fid, n)
    pool.flush_all()
    raw = disk.read_page(fid, pno)
    assert Page(raw).read(slot) == b"durable"


def test_lru_evicts_least_recently_used(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    pages = []
    for __ in range(2):
        pno, __page = pool.new_page(fid)
        pool.unpin(fid, pno)
        pages.append(pno)
    # Touch page 0 so page 1 becomes LRU.
    with pool.page(fid, pages[0]):
        pass
    pno3, __ = pool.new_page(fid)
    pool.unpin(fid, pno3)
    assert (fid, pages[0]) in pool.resident_keys()
    assert (fid, pages[1]) not in pool.resident_keys()


def test_pinned_pages_are_not_evicted(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    p0 = pool.new_page(fid)[0]  # left pinned
    p1 = pool.new_page(fid)[0]
    pool.unpin(fid, p1)
    p2 = pool.new_page(fid)[0]  # must evict p1, not p0
    pool.unpin(fid, p2)
    assert (fid, p0) in pool.resident_keys()
    pool.unpin(fid, p0)


def test_all_pinned_raises(disk):
    pool = BufferPool(disk, capacity=1)
    fid = disk.create_file()
    pool.new_page(fid)  # pinned
    with pytest.raises(BufferPoolError):
        pool.new_page(fid)


def test_unpin_without_pin_raises(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    pno = pool.new_page(fid)[0]
    pool.unpin(fid, pno)
    with pytest.raises(BufferPoolError):
        pool.unpin(fid, pno)


def test_mark_dirty_nonresident_raises(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    with pytest.raises(BufferPoolError):
        pool.mark_dirty(fid, 0)


def test_invalidate_all_forces_cold_reads(disk):
    pool = BufferPool(disk, capacity=8)
    fid = disk.create_file()
    pno, page = pool.new_page(fid)
    page.insert(b"cold")
    pool.mark_dirty(fid, pno)
    pool.unpin(fid, pno)
    pool.invalidate_all()
    before = disk.stats.physical_reads
    with pool.page(fid, pno) as page2:
        assert page2.read(0) == b"cold"
    assert disk.stats.physical_reads == before + 1


def test_capacity_must_be_positive(disk):
    with pytest.raises(ValueError):
        BufferPool(disk, capacity=0)


def test_drop_file_pages_discards_frames(disk):
    pool = BufferPool(disk, capacity=4)
    fid = disk.create_file()
    pno = pool.new_page(fid)[0]
    pool.unpin(fid, pno)
    pool.drop_file_pages(fid)
    assert (fid, pno) not in pool.resident_keys()


def test_flush_file_writes_back_that_file_only(disk):
    pool = BufferPool(disk, capacity=8)
    ours, theirs = disk.create_file(), disk.create_file()
    for fid in (ours, theirs, ours):
        pno, page = pool.new_page(fid)
        page.insert(b"x")
        pool.unpin(fid, pno)
    pool.flush_file(ours)
    assert disk.stats.file_writes == {ours: 2}
    assert {(theirs, 0)} == {key for key in pool._dirty}
    pool.flush_file(ours)  # now clean: nothing new
    assert disk.stats.physical_writes == 2


def test_writable_needs_a_resident_page(disk):
    pool = BufferPool(disk, capacity=2)
    fid = disk.create_file()
    with pytest.raises(BufferPoolError):
        pool.writable(fid, 0)
    pno = pool.new_page(fid)[0]
    pool.writable(fid, pno)  # no WAL attached: nothing to capture
    pool.unpin(fid, pno)
