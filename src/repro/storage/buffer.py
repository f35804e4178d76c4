"""A concurrent LRU buffer pool with per-frame latches and pin counts.

The pool caches :class:`~repro.storage.page.Page` images keyed by
``(file_id, page_no)``.  Clients access pages through the :meth:`BufferPool.page`
context manager, which pins the frame for the duration of the block::

    with pool.page(fid, pno) as page:
        page.insert(record)
        pool.mark_dirty(fid, pno)

Unpinned frames are evicted in least-recently-used order; dirty frames are
written back on eviction and on :meth:`flush_all`.  A hit costs nothing
physical; a miss costs one physical read (plus, possibly, one physical write
to evict a dirty victim) -- exactly the accounting the paper's analytical
model abstracts.

Concurrency design (statements now execute in parallel inside one engine):

* the page table is **sharded** -- a key maps to one of a few small dicts,
  each behind its own short lock, so lookups from different statements
  rarely contend;
* each frame carries its own **latch** guarding pin count, dirty flag,
  and life-cycle state; eviction takes *only the victim frame's latch*
  (plus its shard lock for the table removal), never a pool-wide lock;
* recency is a monotonic **access stamp** written at every insert/touch.
  Sequentially this reproduces the old ``OrderedDict`` LRU bit-for-bit:
  the eviction victim is the unpinned frame with the smallest stamp,
  which is exactly "first unpinned frame in LRU order";
* a miss inserts a pre-pinned *loading* placeholder before reading, so a
  concurrent fetch of the same page waits on the load instead of issuing
  a duplicate read, and eviction can never choose a half-loaded frame;
* the no-evict-pinned invariant holds under races: a victim is chosen by
  an unlatched scan but *revalidated under its latch* before being
  killed -- a frame that got pinned in between is simply skipped.

* dirty frames are also listed in a small **dirty index** (its own leaf
  mutex), so :meth:`flush_all` costs what is dirty, not what is resident;
  a key leaves the index only after its write-back succeeded.

Latch ordering (documented in ARCHITECTURE.md): shard lock and frame
latch are below the admission gate and above the WAL log mutex.  The one
nesting is frame latch -> shard lock (eviction's table removal, under the
victim's latch).  It is safe because the reverse never happens: no path
waits on a frame latch while holding a shard lock --
:meth:`drop_file_pages`, :meth:`discard_pages` and :meth:`discard_all`
pop their frames under the shard lock and mark them dead only after
releasing it.  The dirty-index mutex and the statistics mutex are leaves
(nothing is acquired under them) and may be taken under a frame latch.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.errors import BufferPoolError
from repro.storage.constants import DEFAULT_BUFFER_FRAMES
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.waitevents import BUFFER_IO, NULL_WAITS

_PageKey = tuple[int, int]

#: page-table shards; a small power of two keeps the modulo cheap.
_SHARDS = 16


class _Frame:
    __slots__ = ("page", "dirty", "pin_count", "prefetched", "stamp",
                 "latch", "dead", "loading")

    def __init__(self, page: Page | None) -> None:
        self.page = page
        self.dirty = False
        self.pin_count = 0
        #: loaded by read-ahead and not yet demanded (prefetch-hit tracking)
        self.prefetched = False
        #: monotonic recency stamp (smaller = colder); see module docstring
        self.stamp = 0
        self.latch = threading.Lock()
        #: the frame was evicted/discarded; racing fetchers must re-lookup
        self.dead = False
        #: set while the frame's disk read is in flight; waiters block on
        #: this event instead of issuing a duplicate physical read
        self.loading: threading.Event | None = None


class _PinnedPage:
    """``with pool.page(fid, pno) as page``: pin on entry, unpin on exit.

    A plain class, not a ``contextlib`` generator: this is the pool's most
    frequent call site and the generator machinery cost as much as the
    pin itself.
    """

    __slots__ = ("_pool", "_file_id", "_page_no")

    def __init__(self, pool: "BufferPool", file_id: int, page_no: int) -> None:
        self._pool = pool
        self._file_id = file_id
        self._page_no = page_no

    def __enter__(self) -> Page:
        return self._pool.fetch(self._file_id, self._page_no)

    def __exit__(self, *exc_info) -> None:
        self._pool.unpin(self._file_id, self._page_no)


class BufferPool:
    """A fixed-capacity page cache over a :class:`SimulatedDisk`."""

    def __init__(self, disk: SimulatedDisk, capacity: int = DEFAULT_BUFFER_FRAMES,
                 metrics=None) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        #: optional :class:`repro.recovery.wal.WriteAheadLog`; when attached
        #: the pool reports fetches/dirties/allocations to it and forces the
        #: log before any dirty page reaches the disk (WAL-before-data).
        self.wal = None
        #: wait-event collector; page transfers between the pool and the
        #: disk are timed as ``buffer_io`` (the database wires this up)
        self.waits = NULL_WAITS
        self._shards: list[tuple[threading.Lock, dict[_PageKey, _Frame]]] = [
            (threading.Lock(), {}) for __ in range(_SHARDS)]
        self._clock = itertools.count(1)
        #: key -> frame for every live dirty frame; guarded by its own
        #: leaf mutex (see the module docstring)
        self._dirty: dict[_PageKey, _Frame] = {}
        self._dirty_lock = threading.Lock()
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_hits = metrics.counter(
            "bufferpool_hits_total", "page requests served from the pool")
        self._m_misses = metrics.counter(
            "bufferpool_misses_total", "page requests that went to disk")
        self._m_evictions = metrics.counter(
            "bufferpool_evictions_total", "frames evicted to make room")
        self._m_writebacks = metrics.counter(
            "bufferpool_writebacks_total", "dirty pages written back")
        self._m_prefetch_issued = metrics.counter(
            "bufferpool_prefetch_issued_total",
            "pages physically read ahead of demand")
        self._m_prefetch_hits = metrics.counter(
            "bufferpool_prefetch_hits_total",
            "demand fetches served by a read-ahead frame")
        self._g_resident = metrics.gauge(
            "bufferpool_resident_frames", "pages currently cached")

    @property
    def stats(self):
        """The shared I/O statistics object (owned by the disk)."""
        return self.disk.stats

    # -- table helpers ------------------------------------------------------

    def _shard(self, key: _PageKey):
        return self._shards[hash(key) % _SHARDS]

    def _lookup(self, key: _PageKey) -> _Frame | None:
        # no shard lock: one dict.get is atomic, and whatever it returns
        # is revalidated under the frame's latch (the shard locks guard
        # the check-then-insert / pop sequences, not single reads)
        return self._shards[hash(key) % _SHARDS][1].get(key)

    def _resident(self) -> int:
        # advisory only (capacity checks re-run on races); summing live
        # dict lengths without the shard locks is safe in CPython
        return sum(len(table) for __, table in self._shards)

    # -- pin / unpin --------------------------------------------------------

    def fetch(self, file_id: int, page_no: int) -> Page:
        """Pin the page and return its in-memory image.

        The caller must balance every ``fetch`` with an :meth:`unpin`;
        prefer the :meth:`page` context manager.
        """
        key = (file_id, page_no)
        table = self._shards[hash(key) % _SHARDS][1]
        stats = self.disk.stats
        missed = False  # the logical read is counted once, hit or miss
        while True:
            frame = table.get(key)  # lock-free, see _lookup
            if frame is None:
                if not missed:
                    stats.count_logical_read()
                    missed = True
                page = self._load(key)
                if page is not None:
                    return page
                continue  # lost the insert race: the other load is a hit
            wait_for = None
            with frame.latch:
                if frame.dead:
                    pass  # evicted under us: re-lookup
                elif frame.loading is not None:
                    wait_for = frame.loading
                else:
                    if missed:
                        stats.count_buffer_hit()
                    else:
                        stats.count_hit_pin()
                    self._m_hits.inc()
                    if frame.prefetched:
                        frame.prefetched = False
                        stats.count_prefetch_hit()
                        self._m_prefetch_hits.inc()
                    frame.stamp = next(self._clock)
                    if self.wal is not None:
                        # snapshot on first contact: clients mutate the
                        # frame in place before (or without) calling
                        # mark_dirty, so the pre-statement image must be
                        # captured here.
                        self.wal.observe_fetch(key, frame.page.data)
                    frame.pin_count += 1
                    return frame.page
            if wait_for is not None:
                wait_for.wait(timeout=30.0)
            else:
                time.sleep(0)  # dead frame: let the evictor finish removal

    def _load(self, key: _PageKey, prefetch: bool = False,
              protected: set[_PageKey] | None = None) -> Page | None:
        """Read ``key`` from disk into a fresh frame.

        Returns the (pinned, unless prefetching) page, or ``None`` if a
        concurrent load won the table insert (the caller retries and
        takes the hit path).  The placeholder is inserted *pre-pinned and
        loading* before the read: same-key fetchers wait on it, and the
        evictor skips it.
        """
        self._make_room(protected=protected)
        placeholder = _Frame(None)
        placeholder.pin_count = 1
        placeholder.loading = threading.Event()
        placeholder.stamp = next(self._clock)
        lock, table = self._shard(key)
        with lock:
            if key in table:
                return None
            table[key] = placeholder
        try:
            with self.waits.wait(BUFFER_IO,
                                 "prefetch" if prefetch else "read"):
                data = self.disk.read_page(*key)
        except BaseException:
            with placeholder.latch:
                placeholder.dead = True
                loading = placeholder.loading
                placeholder.loading = None
            with lock:
                if table.get(key) is placeholder:
                    del table[key]
            loading.set()
            raise
        with placeholder.latch:
            placeholder.page = Page(data)
            loading = placeholder.loading
            placeholder.loading = None
            if prefetch:
                placeholder.prefetched = True
                placeholder.pin_count = 0
        if prefetch:
            self.stats.count_prefetch()
            self._m_prefetch_issued.inc()
        else:
            self._m_misses.inc()
        self._g_resident.set(self._resident())
        if not prefetch and self.wal is not None:
            self.wal.observe_fetch(key, placeholder.page.data)
        loading.set()
        return placeholder.page

    def unpin(self, file_id: int, page_no: int) -> None:
        """Release one pin on the page."""
        frame = self._lookup((file_id, page_no))
        if frame is not None:
            with frame.latch:
                if frame.pin_count > 0:
                    frame.pin_count -= 1
                    return
        raise BufferPoolError(f"page ({file_id},{page_no}) is not pinned")

    def fetch_many(self, keys) -> dict[_PageKey, Page]:
        """Pin a group of pages in one call (the batched join's group-fetch).

        ``keys`` should arrive sorted in page order so misses turn into one
        ordered sweep over the file.  Pages already fetched within the group
        are pinned once; the caller balances with :meth:`unpin_many` over the
        returned mapping's keys.  While the group is being assembled the
        already-pinned members are protected by their pins, so a later miss
        can never evict an earlier member -- pins, not a pool lock, carry
        the invariant, so it holds under concurrent eviction races too.
        """
        pages: dict[_PageKey, Page] = {}
        try:
            for key in keys:
                if key not in pages:
                    pages[key] = self.fetch(*key)
        except BufferPoolError:
            for key in pages:
                self.unpin(*key)
            raise
        return pages

    def unpin_many(self, keys) -> None:
        """Release one pin on each page of a :meth:`fetch_many` group."""
        for key in keys:
            self.unpin(*key)

    def prefetch(self, file_id: int, page_nos) -> int:
        """Best-effort read-ahead: load pages into unpinned frames.

        Pages already resident are skipped; each loaded page is charged one
        physical read (to the scan that asked for it) and counted as
        ``prefetch_issued``.  Eviction to make room never touches pinned
        frames or pages loaded by this same call -- and rather than raise
        when no victim is evictable, read-ahead simply stops.  Returns the
        number of pages actually loaded.
        """
        loaded = 0
        protected: set[_PageKey] = set()
        for page_no in page_nos:
            key = (file_id, page_no)
            if self._lookup(key) is not None:
                continue
            protected.add(key)
            if not self._make_room(protected=protected, best_effort=True,
                                   probe_only=True):
                break
            if self._load(key, prefetch=True, protected=protected) is not None:
                loaded += 1
        return loaded

    def page(self, file_id: int, page_no: int) -> _PinnedPage:
        """Context manager that pins a page for the duration of the block."""
        return _PinnedPage(self, file_id, page_no)

    def mark_dirty(self, file_id: int, page_no: int) -> None:
        """Record that the cached image differs from the disk image."""
        frame = self._lookup((file_id, page_no))
        if frame is None or frame.dead:
            raise BufferPoolError(f"page ({file_id},{page_no}) is not resident")
        with frame.latch:
            if not frame.dirty:
                frame.dirty = True
                with self._dirty_lock:
                    self._dirty[(file_id, page_no)] = frame
        if self.wal is not None:
            self.wal.observe_dirty((file_id, page_no))

    # -- allocation ---------------------------------------------------------

    def new_page(self, file_id: int) -> tuple[int, Page]:
        """Allocate a fresh page in ``file_id`` and return it pinned & dirty.

        The fresh page is materialised directly in the pool (no physical
        read is charged for a page that has never been written).
        """
        page_no = self.disk.allocate_page(file_id)
        if self.wal is not None:
            self.wal.observe_alloc(file_id, page_no)
        self._make_room()
        frame = _Frame(Page())
        frame.dirty = True
        frame.pin_count = 1
        frame.stamp = next(self._clock)
        lock, table = self._shard((file_id, page_no))
        with lock:
            table[(file_id, page_no)] = frame
        with self._dirty_lock:
            self._dirty[(file_id, page_no)] = frame
        self.stats.count_logical_read()
        self._g_resident.set(self._resident())
        return page_no, frame.page

    # -- flushing / eviction ------------------------------------------------

    def _write_back(self, key: _PageKey, frame: _Frame) -> None:
        """Write one dirty frame to disk; the caller holds its latch."""
        if self.wal is not None:
            # per frame, not once per flush: a concurrent statement may
            # dirty (and log) a page after an earlier force; sequentially
            # this is one force exactly as before
            self.wal.before_data_write()
        with self.waits.wait(BUFFER_IO, "writeback"):
            self.disk.write_page(key[0], key[1], bytes(frame.page.data))
        self.stats.count_writeback()
        self._m_writebacks.inc()
        frame.dirty = False
        with self._dirty_lock:
            if self._dirty.get(key) is frame:
                del self._dirty[key]

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay resident), coldest
        first -- the order a walk over all frames in LRU order gave."""
        with self._dirty_lock:
            dirty = list(self._dirty.items())
        dirty.sort(key=lambda kv: kv[1].stamp)
        for key, frame in dirty:
            with frame.latch:
                if not frame.dead and frame.dirty:
                    self._write_back(key, frame)

    def drop_file_pages(self, file_id: int) -> None:
        """Discard (without writing back) all frames of a dropped file.

        Call before the disk forgets the file: its page count bounds the
        keys that can be resident (a frame is only ever created for an
        allocated page, and rollback discards frames before truncating),
        so the cost follows the file, not the pool.
        """
        if self.wal is not None:
            self.wal.observe_drop_file(file_id)
        self.discard_pages([(file_id, page_no) for page_no
                            in range(self.disk.num_pages(file_id))])

    def invalidate_all(self) -> None:
        """Flush and then empty the pool (simulates a cold cache)."""
        self.flush_all()
        self.discard_all()

    def resident_keys(self) -> set[_PageKey]:
        """Keys of all currently cached pages (for tests)."""
        keys: set[_PageKey] = set()
        for lock, table in self._shards:
            with lock:
                keys.update(table)
        return keys

    def pinned_keys(self) -> list[_PageKey]:
        """Keys of every frame with a nonzero pin count (debug/regression
        accessor: after a statement completes this must be empty)."""
        return [key for __, table in self._shards
                for key, frame in list(table.items()) if frame.pin_count]

    # -- recovery primitives (uncharged) ------------------------------------

    def peek_frame(self, key: _PageKey):
        """The resident image for ``key`` (no pin, no charge), else None."""
        frame = self._lookup(key)
        if frame is None or frame.dead or frame.page is None:
            return None
        return frame.page.data

    def discard_pages(self, keys) -> None:
        """Drop frames without writeback (their disk images were restored,
        or their file is being dropped)."""
        keys = list(keys)
        frames = []
        for key in keys:
            lock, table = self._shard(key)
            with lock:
                frame = table.pop(key, None)
            if frame is not None:
                frames.append(frame)
        with self._dirty_lock:
            for key in keys:
                self._dirty.pop(key, None)
        # only now, holding no shard lock (see the module docstring): the
        # latch waits out an eviction write-back in flight on the frame
        for frame in frames:
            with frame.latch:
                frame.dead = True
        self._g_resident.set(self._resident())

    def discard_all(self) -> None:
        """Empty the pool without writing anything back (a crash loses
        every in-memory frame; recovery rebuilds from disk + log)."""
        self.discard_pages(self.resident_keys())

    def _make_room(self, protected: set[_PageKey] | None = None,
                   best_effort: bool = False,
                   probe_only: bool = False) -> bool:
        """Evict one unpinned LRU frame if the pool is full.

        ``protected`` keys are never chosen as victims (read-ahead must not
        evict the pages of the batch that is being assembled).  With
        ``best_effort=True`` an unevictable pool returns False instead of
        raising -- the caller (read-ahead) simply gives up.
        ``probe_only=True`` additionally skips the eviction itself and just
        answers "could a later load make room?".

        The victim is selected by an unlatched scan (cheapest unpinned
        stamp) and *revalidated under its own latch*: a frame that got
        pinned, killed, or put into loading in between is skipped and the
        scan repeats.  Only the victim's latch is held during writeback.
        """
        while True:
            if self._resident() < self.capacity:
                return True
            best: tuple[_PageKey, _Frame] | None = None
            for lock, table in self._shards:
                with lock:
                    items = list(table.items())
                for key, frame in items:
                    if protected is not None and key in protected:
                        continue
                    if (frame.pin_count == 0 and not frame.dead
                            and frame.loading is None):
                        if best is None or frame.stamp < best[1].stamp:
                            best = (key, frame)
            if best is None:
                if best_effort:
                    return False
                raise BufferPoolError("all buffer frames are pinned")
            if probe_only:
                return True
            if self._evict(*best):
                return True
            # lost a race (victim pinned/vanished meanwhile): rescan

    def _evict(self, key: _PageKey, frame: _Frame) -> bool:
        """Kill one victim frame; True if this thread actually evicted it."""
        with frame.latch:
            if frame.dead or frame.pin_count > 0 or frame.loading is not None:
                return False
            frame.dead = True
            if frame.dirty:
                try:
                    self._write_back(key, frame)
                except BaseException:
                    frame.dead = False  # keep the frame; the fault surfaces
                    raise
            lock, table = self._shard(key)
            with lock:
                if table.get(key) is frame:
                    del table[key]
        self.stats.count_eviction()
        self._m_evictions.inc()
        return True
