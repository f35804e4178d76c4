"""The pool's recency list evicts what the smallest-stamp scan evicted.

The replacement rule the pool used to implement -- *the victim is the
unpinned frame with the smallest access stamp, found by a scan over every
frame* -- lives on here as the reference model.  Pool and model are driven
by the same seeded random operation sequences; after every operation the
victim sequence, the resident set in recency order, the physical counters
(also per file) and the request counters (hits, prefetch hits, logical
reads) must agree.  The model's ``fetch_many`` is one per-page ``fetch``
per key, so a pool group that pins its hits and loads its misses inline
must leave what per-page fetches leave -- also when a read or a
write-back faults part-way through a group of up to 16 pages, the run
``read_many`` pins.
"""

import random

import pytest

from repro.errors import BufferPoolError, DiskFault
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

STAMP, PINS, DIRTY, PREFETCHED = 0, 1, 2, 3


class _StampScanModel:
    """Frames as ``key -> [stamp, pins, dirty, prefetched]``; every touch
    takes the next tick; eviction scans all frames for the smallest
    unpinned stamp."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.frames = {}
        self.tick = 0
        self.victims = []
        self.reads = self.writes = 0
        self.file_reads = {}
        #: page requests, those the pool held, those read ahead before
        self.logical = self.hits = self.prefetch_hits = 0
        self.fail_next_write = self.fail_next_read = False

    def _touch(self, frame):
        self.tick += 1
        frame[STAMP] = self.tick

    def _write_back(self, frame):
        if self.fail_next_write:
            self.fail_next_write = False
            raise DiskFault("injected write failure")
        self.writes += 1
        frame[DIRTY] = False

    def _read(self, key):
        if self.fail_next_read:
            self.fail_next_read = False
            raise DiskFault("injected read failure")
        self.reads += 1
        self.file_reads[key[0]] = self.file_reads.get(key[0], 0) + 1

    def make_room(self, protected=(), best_effort=False):
        if len(self.frames) < self.capacity:
            return True
        unpinned = [(frame[STAMP], key) for key, frame in self.frames.items()
                    if frame[PINS] == 0 and key not in protected]
        if not unpinned:
            if best_effort:
                return False
            raise BufferPoolError("all buffer frames are pinned")
        key = min(unpinned)[1]
        if self.frames[key][DIRTY]:
            self._write_back(self.frames[key])  # a fault keeps the frame
        del self.frames[key]
        self.victims.append(key)
        return True

    def _insert(self, key, pins, dirty=False, prefetched=False):
        frame = self.frames[key] = [0, pins, dirty, prefetched]
        self._touch(frame)

    def recency(self):
        """Resident keys, coldest first."""
        return [key for key, __ in sorted(self.frames.items(),
                                          key=lambda kv: kv[1][STAMP])]

    def fetch(self, key):
        frame = self.frames.get(key)
        if frame is None:
            self.logical += 1  # requested, even if no room is found
            self.make_room()
            self._read(key)  # a fault leaves the victim evicted, no frame
            self._insert(key, pins=1)
        else:
            self.logical += 1
            self.hits += 1
            if frame[PREFETCHED]:
                frame[PREFETCHED] = False
                self.prefetch_hits += 1
            self._touch(frame)
            frame[PINS] += 1

    def unpin(self, key):
        self.frames[key][PINS] -= 1

    def fetch_many(self, keys):
        taken = []
        try:
            for key in keys:
                if key not in taken:
                    self.fetch(key)
                    taken.append(key)
        except (BufferPoolError, DiskFault):
            for key in taken:
                self.unpin(key)
            raise

    def new_page(self, key):
        self.make_room()
        self.logical += 1
        self._insert(key, pins=1, dirty=True)

    def mark_dirty(self, key):
        self.frames[key][DIRTY] = True

    def prefetch(self, keys):
        loaded, protected = 0, set()
        for key in keys:
            if key in self.frames:
                continue
            protected.add(key)
            if not self.make_room(protected, best_effort=True):
                break
            self._read(key)
            self._insert(key, pins=0, prefetched=True)
            loaded += 1
        return loaded

    def flush_all(self):
        for frame in sorted(self.frames.values()):  # coldest first
            if frame[DIRTY]:
                self._write_back(frame)

    def flush_file(self, fid):
        for frame in sorted(frame for key, frame in self.frames.items()
                            if key[0] == fid):
            if frame[DIRTY]:
                self._write_back(frame)

    def discard(self, keys):
        for key in keys:
            self.frames.pop(key, None)


class _FailNext:
    """A ``disk.faults`` stand-in: once ``write`` (``read``) is set, the
    next page write (read) raises."""

    read = write = False

    @property
    def armed(self):
        return self.read or self.write

    def resolve_read(self):
        if self.read:
            self.read = False
            raise DiskFault("injected read failure")

    def on_write(self, new_image, old_image):
        if self.write:
            self.write = False
            raise DiskFault("injected write failure")


class _Driver:
    """Applies one operation to pool and model and compares them."""

    def __init__(self, capacity, seed):
        self.rng = random.Random(seed)
        self.disk = SimulatedDisk()
        self.disk.faults = _FailNext()
        self.files = [self.disk.create_file(), self.disk.create_file()]
        for fid in self.files:
            for __ in range(capacity + 3):  # twice the pool, and a bit
                self.disk.allocate_page(fid)
        self.pool = BufferPool(self.disk, capacity=capacity)
        self.model = _StampScanModel(capacity)
        self.victims = []
        evict = self.pool._evict

        def recording_evict(key, frame):
            evicted = evict(key, frame)
            if evicted:
                self.victims.append(key)
            return evicted

        self.pool._evict = recording_evict
        self.pins = []  # one entry per pin the "client" holds
        #: the kinds of page ``fetch_many`` groups met: "resident",
        #: "prefetched", "missing"
        self.group_kinds = set()

    def _key(self):
        fid = self.rng.choice(self.files)
        return fid, self.rng.randrange(self.disk.num_pages(fid))

    def both(self, on_pool, on_model):
        """Run the two sides; they must fail alike, or not at all.
        Returns the error's type, or None."""
        errors = []
        for side in (on_pool, on_model):
            try:
                side()
                errors.append(None)
            except (BufferPoolError, DiskFault) as exc:
                errors.append(type(exc))
        assert errors[0] is errors[1]
        return errors[0]

    def step(self):
        rng, pool, model = self.rng, self.pool, self.model
        op = rng.choice(["fetch", "fetch", "fetch", "unpin", "unpin", "unpin",
                         "fetch_many", "new_page", "mark_dirty", "prefetch",
                         "flush_all", "flush_file", "discard_pages",
                         "drop_file_pages",
                         "arm_write_fault", "arm_read_fault"])
        if op == "fetch":
            key = self._key()
            if self.both(lambda: pool.fetch(*key),
                         lambda: model.fetch(key)) is None:
                self.pins.append(key)
        elif op == "unpin" and self.pins:
            key = self.pins.pop(rng.randrange(len(self.pins)))
            pool.unpin(*key)
            model.unpin(key)
        elif op == "fetch_many":
            # a group meets read-ahead frames too: draw some keys there
            ahead = [key for key, frame in model.frames.items()
                     if frame[PREFETCHED]]
            keys = sorted(rng.choice(ahead) if ahead and rng.random() < 0.3
                          else self._key()
                          for __ in range(rng.randint(1, 16)))
            for key in keys:
                frame = model.frames.get(key)
                self.group_kinds.add(
                    "missing" if frame is None
                    else "prefetched" if frame[PREFETCHED] else "resident")
            if self.both(lambda: pool.fetch_many(keys),
                         lambda: model.fetch_many(keys)) is None:
                self.pins.extend(set(keys))
        elif op == "new_page":
            fid = rng.choice(self.files)
            page_no = self.disk.num_pages(fid)  # what the pool will allocate
            if self.both(lambda: pool.new_page(fid),
                         lambda: model.new_page((fid, page_no))) is None:
                self.pins.append((fid, page_no))
        elif op == "mark_dirty" and self.pins:
            key = rng.choice(self.pins)
            pool.mark_dirty(*key)
            model.mark_dirty(key)
        elif op == "prefetch":
            fid, first = self._key()
            page_nos = range(first, min(first + rng.randint(1, 6),
                                        self.disk.num_pages(fid)))
            loaded = []
            self.both(
                lambda: loaded.append(pool.prefetch(fid, page_nos)),
                lambda: loaded.append(
                    model.prefetch([(fid, p) for p in page_nos])))
            assert len(set(loaded)) <= 1
        elif op == "flush_all":
            self.both(pool.flush_all, model.flush_all)
        elif op == "flush_file":
            fid = rng.choice(self.files)
            self.both(lambda: pool.flush_file(fid),
                      lambda: model.flush_file(fid))
        elif op == "discard_pages":
            unpinned = sorted(pool.resident_keys() - set(self.pins))
            keys = rng.sample(unpinned, min(len(unpinned), rng.randint(0, 3)))
            pool.discard_pages(keys)
            model.discard(keys)
        elif op == "drop_file_pages":
            fid = rng.choice(self.files)
            if not any(key[0] == fid for key in self.pins):
                pool.drop_file_pages(fid)  # the file itself stays on disk
                model.discard([key for key in model.frames if key[0] == fid])
        elif op == "arm_write_fault":
            self.disk.faults.write = model.fail_next_write = True
        elif op == "arm_read_fault":
            self.disk.faults.read = model.fail_next_read = True
        self.compare()

    def compare(self):
        pool, model, stats = self.pool, self.model, self.disk.stats
        assert self.victims == model.victims
        assert pool.resident_keys() == set(model.frames)
        assert len(model.frames) <= model.capacity
        assert stats.physical_reads == model.reads
        assert stats.physical_writes == model.writes
        assert stats.dirty_writebacks == model.writes
        assert stats.evictions == len(model.victims)
        assert sorted(pool.pinned_keys()) == sorted(set(self.pins))
        assert list(pool._frames) == model.recency()
        assert pool.hits == stats.buffer_hits == model.hits
        assert pool.prefetch_hits == stats.prefetch_hits == model.prefetch_hits
        assert stats.logical_reads == model.logical
        assert stats.file_reads == model.file_reads

    def finish(self):
        for key in self.pins:
            self.pool.unpin(*key)
            self.model.unpin(key)
        self.pins.clear()
        self.compare()
        assert self.pool.pinned_keys() == []


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 8, 64])
def test_pool_evicts_what_the_stamp_scan_evicted(capacity, seed):
    driver = _Driver(capacity, seed)
    for __ in range(300 + 20 * capacity):
        driver.step()
    driver.finish()
    assert driver.victims, "the sequence never filled the pool"
    if capacity > 2:  # room for a group to meet every kind of page
        assert driver.group_kinds == {"resident", "prefetched", "missing"}


def test_a_dirty_victim_whose_write_back_faults_stays_evictable():
    driver = _Driver(capacity=2, seed=0)
    pool, model, (fid, __) = driver.pool, driver.model, driver.files
    for side in (lambda key: pool.fetch(*key), model.fetch):
        side((fid, 0))
    for side in (lambda key: pool.mark_dirty(*key), model.mark_dirty):
        side((fid, 0))
    for side in (lambda key: pool.unpin(*key), model.unpin):
        side((fid, 0))
    driver.both(lambda: pool.prefetch(fid, [1]),
                lambda: model.prefetch([(fid, 1)]))
    driver.disk.faults.write = model.fail_next_write = True
    # the miss picks the dirty page 0; its write-back faults
    assert driver.both(lambda: pool.fetch(fid, 2),
                       lambda: model.fetch((fid, 2))) is DiskFault
    driver.compare()
    assert pool.resident_keys() == {(fid, 0), (fid, 1)}
    assert driver.victims == []
    # the same miss again: page 0 is still the victim, and now it goes
    assert driver.both(lambda: pool.fetch(fid, 2),
                       lambda: model.fetch((fid, 2))) is None
    driver.pins.append((fid, 2))
    driver.compare()
    assert driver.victims == [(fid, 0)]
    assert driver.disk.stats.dirty_writebacks == 1
    driver.finish()


def test_a_miss_whose_read_faults_keeps_its_eviction_and_no_frame():
    driver = _Driver(capacity=2, seed=0)
    pool, model, (fid, __) = driver.pool, driver.model, driver.files
    driver.both(lambda: pool.prefetch(fid, [0, 1]),
                lambda: model.prefetch([(fid, 0), (fid, 1)]))
    driver.disk.faults.read = model.fail_next_read = True
    # the group's first key hits, its miss evicts page 1 and its read faults
    assert driver.both(lambda: pool.fetch_many([(fid, 0), (fid, 2)]),
                       lambda: model.fetch_many([(fid, 0), (fid, 2)])
                       ) is DiskFault
    driver.compare()
    assert pool.resident_keys() == {(fid, 0)}
    assert driver.victims == [(fid, 1)]
    assert driver.disk.stats.logical_reads == 2
    assert pool.pinned_keys() == []
    driver.finish()
