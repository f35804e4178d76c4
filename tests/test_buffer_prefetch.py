"""Buffer-pool group-fetch and read-ahead: pinning, eviction guard, counters."""

import pytest

from repro.errors import BufferPoolError, DiskFault
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IOStatistics
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture()
def disk():
    return SimulatedDisk(IOStatistics())


def _file_with_pages(disk, n):
    fid = disk.create_file()
    for __ in range(n):
        disk.allocate_page(fid)
    return fid


# -- fetch_many / unpin_many -------------------------------------------------


def test_fetch_many_pins_each_page_once(disk):
    pool = BufferPool(disk, capacity=8)
    fid = _file_with_pages(disk, 4)
    keys = [(fid, 0), (fid, 1), (fid, 1), (fid, 2)]
    group = pool.fetch_many(keys)
    assert sorted(group) == [(fid, 0), (fid, 1), (fid, 2)]
    assert sorted(pool.pinned_keys()) == [(fid, 0), (fid, 1), (fid, 2)]
    pool.unpin_many(group)
    assert pool.pinned_keys() == []


def test_fetch_many_group_members_protected_by_pins(disk):
    """A later miss in the group cannot evict an earlier member."""
    pool = BufferPool(disk, capacity=2)
    fid = _file_with_pages(disk, 2)
    group = pool.fetch_many([(fid, 0), (fid, 1)])
    assert sorted(pool.resident_keys()) == [(fid, 0), (fid, 1)]
    pool.unpin_many(group)


def test_fetch_many_unwinds_pins_on_failure(disk):
    """If the pool can't hold the group, already-taken pins are released."""
    pool = BufferPool(disk, capacity=2)
    fid = _file_with_pages(disk, 3)
    with pytest.raises(BufferPoolError):
        pool.fetch_many([(fid, 0), (fid, 1), (fid, 2)])
    assert pool.pinned_keys() == []


class _FailNthRead:
    """A ``disk.faults`` stand-in: the n-th physical read raises."""

    armed = True

    def __init__(self, n):
        self._left = n

    def resolve_read(self):
        self._left -= 1
        if self._left == 0:
            raise DiskFault("injected read failure")


def test_fetch_many_unwinds_pins_on_a_read_fault(disk):
    """A disk fault on a later member of the group releases the pins the
    earlier members took: left pinned, their frames could never be
    evicted again."""
    pool = BufferPool(disk, capacity=8)
    fid = _file_with_pages(disk, 12)
    disk.faults = _FailNthRead(3)
    with pytest.raises(DiskFault):
        pool.fetch_many([(fid, pno) for pno in range(4)])
    assert pool.pinned_keys() == []
    assert pool.resident_keys() == {(fid, 0), (fid, 1)}
    for pno in range(4, 12):  # more misses than frames: the pool evicts
        with pool.page(fid, pno):
            pass
    assert pool.resident_keys() == {(fid, pno) for pno in range(4, 12)}
    assert pool.stats.evictions == 2


# -- prefetch ----------------------------------------------------------------


def test_prefetch_loads_pages_and_counts(disk):
    pool = BufferPool(disk, capacity=8)
    fid = _file_with_pages(disk, 4)
    loaded = pool.prefetch(fid, range(4))
    assert loaded == 4
    assert pool.stats.prefetch_issued == 4
    assert pool.stats.physical_reads == 4
    assert pool.pinned_keys() == []  # read-ahead never pins


def test_prefetch_hit_counted_on_first_demand_fetch_only(disk):
    pool = BufferPool(disk, capacity=8)
    fid = _file_with_pages(disk, 2)
    pool.prefetch(fid, range(2))
    with pool.page(fid, 0):
        pass
    with pool.page(fid, 0):  # second demand: a plain hit, not a prefetch hit
        pass
    assert pool.stats.prefetch_hits == 1
    assert pool.stats.buffer_hits == 2
    # the demand fetch of a prefetched page does no physical read
    assert pool.stats.physical_reads == 2


def test_prefetch_skips_resident_pages(disk):
    pool = BufferPool(disk, capacity=8)
    fid = _file_with_pages(disk, 3)
    with pool.page(fid, 1):
        pass
    assert pool.prefetch(fid, range(3)) == 2
    assert pool.stats.prefetch_issued == 2
    # page 1 was demand-loaded, so fetching it again is not a prefetch hit
    with pool.page(fid, 1):
        pass
    assert pool.stats.prefetch_hits == 0


def test_prefetch_never_evicts_pinned_or_same_window_pages(disk):
    pool = BufferPool(disk, capacity=2)
    fid = _file_with_pages(disk, 4)
    page = pool.fetch(fid, 0)  # pinned
    assert page is not None
    # one free frame: the window loads page 1, then stops -- it must not
    # evict the pinned page 0 nor the just-loaded page 1
    assert pool.prefetch(fid, [1, 2, 3]) == 1
    assert sorted(pool.resident_keys()) == [(fid, 0), (fid, 1)]
    pool.unpin(fid, 0)


def test_prefetch_best_effort_on_fully_pinned_pool(disk):
    pool = BufferPool(disk, capacity=1)
    fid = _file_with_pages(disk, 2)
    pool.fetch(fid, 0)
    assert pool.prefetch(fid, [1]) == 0  # no raise, nothing loaded
    pool.unpin(fid, 0)


def test_prefetch_metrics_registered(disk):
    registry = MetricsRegistry()
    pool = BufferPool(disk, capacity=8, metrics=registry)
    fid = _file_with_pages(disk, 2)
    pool.prefetch(fid, range(2))
    with pool.page(fid, 0):
        pass
    assert registry.value("bufferpool_prefetch_issued_total") == 2
    assert registry.value("bufferpool_prefetch_hits_total") == 1


# -- pinned_keys -------------------------------------------------------------


def test_pinned_keys_tracks_pin_counts(disk):
    pool = BufferPool(disk, capacity=4)
    fid = _file_with_pages(disk, 2)
    assert pool.pinned_keys() == []
    pool.fetch(fid, 0)
    pool.fetch(fid, 0)
    assert pool.pinned_keys() == [(fid, 0)]
    pool.unpin(fid, 0)
    assert pool.pinned_keys() == [(fid, 0)]  # one pin still outstanding
    pool.unpin(fid, 0)
    assert pool.pinned_keys() == []


def test_snapshot_carries_prefetch_and_dedup_counters(disk):
    pool = BufferPool(disk, capacity=4)
    fid = _file_with_pages(disk, 2)
    before = pool.stats.snapshot()
    pool.prefetch(fid, range(2))
    with pool.page(fid, 0):
        pass
    pool.stats.count_batch_dedup(3)
    delta = pool.stats.snapshot() - before
    assert delta.prefetch_issued == 2
    assert delta.prefetch_hits == 1
    assert delta.batch_dedup_saved == 3
