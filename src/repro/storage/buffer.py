"""An LRU buffer pool with pin counts.

The pool caches :class:`~repro.storage.page.Page` images keyed by
``(file_id, page_no)``.  Clients access pages through the :meth:`BufferPool.page`
context manager, which pins the frame for the duration of the block::

    with pool.page(fid, pno) as page:
        pool.writable(fid, pno)
        page.insert(record)
        pool.mark_dirty(fid, pno)

Unpinned frames are evicted in least-recently-used order.  A dirty frame
is written back when it is evicted, when its file is flushed
(:meth:`flush_file`: a query writes back its result file and nothing else)
or by :meth:`flush_all` (checkpoint, snapshot save, doctor, cold cache);
a read never pays for the pages an update left dirty.  A hit costs nothing
physical; a miss costs one physical read (plus, possibly, one physical write
to evict a dirty victim) -- exactly the accounting the paper's analytical
model abstracts.  In work a miss is one victim pick, that write-back if the
victim is dirty, one :meth:`SimulatedDisk.read_page` and one frame insert
(:meth:`BufferPool._load`, shared by :meth:`BufferPool.fetch` and
:meth:`BufferPool.fetch_many`): about 3.2 us in a 16-page group on a 2-core
shared box with Python 3.11, 1.4 us of it the disk's read, whatever the
pool's size.

Under a WAL statement a writer calls :meth:`writable` before it first
changes a pinned page, and the log takes the page's pre-statement image
then; a pin, hit or miss, does not touch the log.

Design:

* the page table **is** the recency list: one ``OrderedDict`` from key to
  frame, coldest first.  A frame enters at the MRU end when it is loaded or
  allocated, moves there on every hit, and leaves on eviction or discard.
  Its length is the resident count;
* the eviction victim is the first unpinned frame from the cold end of the
  list, so a pinned frame is never evicted;
* dirty frames are also listed in a small **dirty index**, so
  :meth:`flush_all` costs what is dirty, not what is resident (and
  :meth:`flush_file` what the file holds); a key leaves the index only
  after its write-back succeeded.  Each touch also stamps
  the frame from a monotonic counter, for one purpose: sorting the few
  dirty frames coldest first when they are flushed.

The pool takes no lock.  A served engine runs one statement at a time
(the engine mutex, :mod:`repro.server.admission`), and an embedded
:class:`~repro.schema.database.Database` is single-threaded unless its
caller serialises; so every pin, load and eviction happens on the one
thread inside the engine, and a pool whose every frame is pinned is
pinned by that thread's own statement.

For the same reason the pool's own counts (``hits``, ``misses``,
``evictions``, ``writebacks``, ``prefetch_issued``, ``prefetch_hits``)
are plain integer fields, and every page transfer between pool and disk
is timed with two clock reads into the ``io_seconds`` / ``io_transfers``
tally; the metrics registry and the wait collector read these fields
when they are scraped.  Only the shared I/O statistics keep a mutex,
because observer threads snapshot them while a statement runs.  An
eviction is counted with the request it made room for: a
:meth:`BufferPool.fetch` takes that mutex once for its request, a
:meth:`BufferPool.fetch_many` group once for all its requests, hits and
evictions, and the disk once more for each physical read.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from time import perf_counter

from repro.errors import BufferPoolError
from repro.storage.constants import DEFAULT_BUFFER_FRAMES
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.telemetry.metrics import NULL_METRICS

_PageKey = tuple[int, int]

#: (field, metric, help) of each count the pool publishes
_COUNTERS = (
    ("hits", "bufferpool_hits_total", "page requests served from the pool"),
    ("misses", "bufferpool_misses_total", "page requests that went to disk"),
    ("evictions", "bufferpool_evictions_total", "frames evicted to make room"),
    ("writebacks", "bufferpool_writebacks_total", "dirty pages written back"),
    ("prefetch_issued", "bufferpool_prefetch_issued_total",
     "pages physically read ahead of demand"),
    ("prefetch_hits", "bufferpool_prefetch_hits_total",
     "demand fetches served by a read-ahead frame"),
)


class _Frame:
    __slots__ = ("page", "dirty", "pin_count", "prefetched", "stamp")

    def __init__(self, page: Page, pin_count: int, stamp: int) -> None:
        self.page = page
        self.dirty = False
        self.pin_count = pin_count
        #: loaded by read-ahead and not yet demanded (prefetch-hit tracking)
        self.prefetched = False
        #: monotonic recency stamp (smaller = colder); orders a flush
        self.stamp = stamp


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
        #: the pool reports write intents, dirties and allocations to it
        #: and forces the log before any dirty page reaches the disk
        #: (WAL-before-data).
        self.wal = None
        #: page table and recency list in one, coldest first
        self._frames: OrderedDict[_PageKey, _Frame] = OrderedDict()
        self._clock = itertools.count(1)
        #: key -> frame for every dirty frame
        self._dirty: dict[_PageKey, _Frame] = {}
        self.hits = self.misses = self.evictions = self.writebacks = 0
        self.prefetch_issued = self.prefetch_hits = 0
        #: wall-clock seconds and count of page transfers between the pool
        #: and the disk (loads and write-backs): the ``buffer_io`` wait
        #: event, read by the wait collector
        self.io_seconds = 0.0
        self.io_transfers = 0
        metrics = metrics if metrics is not None else NULL_METRICS
        for attr, name, help_ in _COUNTERS:
            metrics.counter(name, help_).read_through(
                lambda attr=attr: getattr(self, attr))
        metrics.gauge("bufferpool_resident_frames",
                      "pages currently cached").read_through(
            lambda: len(self._frames))

    @property
    def stats(self):
        """The shared I/O statistics object (owned by the disk)."""
        return self.disk.stats

    # -- pin / unpin --------------------------------------------------------

    def fetch(self, file_id: int, page_no: int) -> Page:
        """Pin the page and return its in-memory image.

        The caller must balance every ``fetch`` with an :meth:`unpin`;
        prefer the :meth:`page` context manager.
        """
        key = (file_id, page_no)
        frame = self._frames.get(key)
        stats = self.disk.stats
        if frame is None:
            evictions = self.evictions
            try:
                return self._load(key)
            finally:
                # a request that finds no room, or whose read faults,
                # still counts as requested
                stats.count_requests(1, 0, self.evictions - evictions)
        stats.count_requests(1, 1)
        self.hits += 1
        if frame.prefetched:
            frame.prefetched = False
            stats.count_prefetch_hit()
            self.prefetch_hits += 1
        self._frames.move_to_end(key)
        frame.stamp = next(self._clock)
        frame.pin_count += 1
        return frame.page

    def _load(self, key: _PageKey) -> Page:
        """The one miss path, of :meth:`fetch` and :meth:`fetch_many`:
        make room (the victim written back first if dirty), read ``key``
        and insert its frame, pinned, at the MRU end.  The caller counts
        the request and the eviction.  A failed read raises and leaves no
        frame behind."""
        self._make_room()
        page = Page(self._read(key))
        self._frames[key] = _Frame(page, 1, next(self._clock))
        self.misses += 1
        return page

    def _read(self, key: _PageKey) -> bytearray:
        """One physical read, timed into the ``buffer_io`` tally."""
        started = perf_counter()
        data = self.disk.read_page(*key)
        self.io_seconds += perf_counter() - started
        self.io_transfers += 1
        return data

    def unpin(self, file_id: int, page_no: int) -> None:
        """Release one pin on the page."""
        frame = self._frames.get((file_id, page_no))
        if frame is None or frame.pin_count == 0:
            raise BufferPoolError(f"page ({file_id},{page_no}) is not pinned")
        frame.pin_count -= 1

    def fetch_many(self, keys) -> dict[_PageKey, Page]:
        """Pin a group of pages in one call (the batched join's group-fetch).

        ``keys`` should arrive sorted in page order so misses turn into one
        ordered sweep over the file.  Pages already fetched within the group
        are pinned once; the caller balances with :meth:`unpin_many` over the
        returned mapping's keys.  While the group is being assembled the
        already-pinned members are protected by their pins, so a later miss
        can never evict an earlier member.

        Each page is pinned in the order given, a hit inline and a miss
        through :meth:`_load`, so the group leaves the recency list per-page
        fetches leave; a read-ahead frame goes through :meth:`fetch`.  The
        group's requests, hits and evictions are counted together, in one
        acquisition of the statistics mutex.
        """
        pages: dict[_PageKey, Page] = {}
        frames = self._frames
        requests = hits = 0
        evictions = self.evictions
        try:
            for key in keys:
                if key in pages:
                    continue
                frame = frames.get(key)
                if frame is None:
                    requests += 1
                    pages[key] = self._load(key)
                elif frame.prefetched:
                    pages[key] = self.fetch(*key)
                else:
                    frames.move_to_end(key)
                    frame.stamp = next(self._clock)
                    frame.pin_count += 1
                    pages[key] = frame.page
                    hits += 1
        except BaseException:
            # whatever stopped the group -- no evictable frame, a disk
            # fault on a later member -- its earlier members must not
            # stay pinned
            self.unpin_many(pages)
            raise
        finally:
            if requests or hits:
                self.hits += hits
                self.disk.stats.count_requests(
                    requests + hits, hits, self.evictions - evictions)
        return pages

    def unpin_many(self, keys) -> None:
        """Release one pin on each page of a :meth:`fetch_many` group."""
        frames = self._frames
        for key in keys:
            frame = frames.get(key)
            if frame is None or frame.pin_count == 0:
                raise BufferPoolError(
                    f"page ({key[0]},{key[1]}) is not pinned")
            frame.pin_count -= 1

    def prefetch(self, file_id: int, page_nos) -> int:
        """Best-effort read-ahead: load pages into unpinned frames.

        Pages already resident are skipped; each loaded page is charged one
        physical read (to the scan that asked for it) and counted as
        ``prefetch_issued``.  Eviction to make room never touches pinned
        frames or pages loaded by this same call -- and rather than raise
        when no victim is evictable, read-ahead simply stops.  Returns the
        number of pages actually loaded.
        """
        stats = self.disk.stats
        loaded = 0
        protected: set[_PageKey] = set()
        for page_no in page_nos:
            key = (file_id, page_no)
            if key in self._frames:
                continue
            protected.add(key)
            evicted = self._make_room(protected, best_effort=True)
            if evicted is None:
                break
            try:
                data = self._read(key)
            except BaseException:
                if evicted:
                    stats.count_eviction()
                raise
            frame = self._frames[key] = _Frame(Page(data), 0, next(self._clock))
            frame.prefetched = True
            self.prefetch_issued += 1
            stats.count_prefetch(evicted)
            loaded += 1
        return loaded

    def page(self, file_id: int, page_no: int) -> _PinnedPage:
        """Context manager that pins a page for the duration of the block."""
        return _PinnedPage(self, file_id, page_no)

    def writable(self, file_id: int, page_no: int) -> None:
        """The caller is about to change the pinned page: under a WAL
        statement its pre-statement image is taken now, once per page and
        statement (what live rollback restores and the page's first log
        image).  Call it before the first mutation; a pin alone costs the
        WAL nothing."""
        key = (file_id, page_no)
        frame = self._frames.get(key)
        if frame is None:
            raise BufferPoolError(f"page ({file_id},{page_no}) is not resident")
        if self.wal is not None:
            self.wal.writable(key, frame.page.data)

    def mark_dirty(self, file_id: int, page_no: int, span=None) -> None:
        """Record that the cached image differs from the disk image.

        ``span`` is ``(offset, length)``, the bytes the caller changed,
        when it changed nothing else (slot directory included); None
        means the whole page.  The WAL logs what it is told here, and
        refuses a page the statement changed without :meth:`writable`.
        """
        key = (file_id, page_no)
        frame = self._frames.get(key)
        if frame is None:
            raise BufferPoolError(f"page ({file_id},{page_no}) is not resident")
        if self.wal is not None:
            # first: a page the WAL refuses must not reach the disk
            self.wal.observe_dirty(key, span)
        if not frame.dirty:
            frame.dirty = True
            self._dirty[key] = frame

    # -- allocation ---------------------------------------------------------

    def new_page(self, file_id: int) -> tuple[int, Page]:
        """Allocate a fresh page in ``file_id`` and return it pinned & dirty.

        The fresh page is materialised directly in the pool (no physical
        read is charged for a page that has never been written).
        """
        page_no = self.disk.allocate_page(file_id)
        if self.wal is not None:
            self.wal.observe_alloc(file_id, page_no)
        evicted = self._make_room()
        frame = _Frame(Page(), 1, next(self._clock))
        frame.dirty = True
        self._frames[(file_id, page_no)] = frame
        self._dirty[(file_id, page_no)] = frame
        self.stats.count_requests(1, 0, evicted)
        return page_no, frame.page

    # -- flushing / eviction ------------------------------------------------

    def _write_back(self, key: _PageKey, frame: _Frame) -> None:
        """Write one dirty frame to disk; it stays resident."""
        if self.wal is not None:
            # a no-op once the log is forced: only the first write-back of
            # a flush pays for the force
            self.wal.before_data_write()
        started = perf_counter()
        self.disk.write_page(key[0], key[1], bytes(frame.page.data))
        self.io_seconds += perf_counter() - started
        self.io_transfers += 1
        self.writebacks += 1
        self.stats.count_writeback()
        frame.dirty = False
        del self._dirty[key]

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay resident), coldest
        first -- the order a walk over all frames in LRU order gave."""
        self._flush(self._dirty.items())

    def flush_file(self, file_id: int) -> None:
        """Write back the dirty frames of one file, coldest first; other
        files' dirty frames stay dirty.  Like :meth:`drop_file_pages`, the
        cost follows the file, not the pool."""
        dirty = self._dirty
        keys = ((file_id, page_no)
                for page_no in range(self.disk.num_pages(file_id)))
        self._flush([(key, dirty[key]) for key in keys if key in dirty])

    def _flush(self, items) -> None:
        for key, frame in sorted(items, key=lambda kv: kv[1].stamp):
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
        return set(self._frames)

    def pinned_keys(self) -> list[_PageKey]:
        """Keys of every frame with a nonzero pin count (debug/regression
        accessor: after a statement completes this must be empty)."""
        return [key for key, frame in self._frames.items() if frame.pin_count]

    # -- recovery primitives (uncharged) ------------------------------------

    def peek_frame(self, key: _PageKey):
        """The resident image for ``key`` (no pin, no charge), else None."""
        frame = self._frames.get(key)
        return frame.page.data if frame is not None else None

    def discard_pages(self, keys) -> None:
        """Drop frames without writeback (their disk images were restored,
        or their file is being dropped)."""
        for key in keys:
            self._frames.pop(key, None)
            self._dirty.pop(key, None)

    def discard_all(self) -> None:
        """Empty the pool without writing anything back (a crash loses
        every in-memory frame; recovery rebuilds from disk + log)."""
        self.discard_pages(self.resident_keys())

    def _make_room(self, protected: set[_PageKey] | frozenset = frozenset(),
                   best_effort: bool = False) -> int | None:
        """Evict one unpinned LRU frame if the pool is full (the one
        victim pick); returns the number of frames evicted (0 or 1), for
        the caller to count with the request it made room for.

        ``protected`` keys are never chosen as victims (read-ahead must not
        evict the pages of the batch that is being assembled).  With
        ``best_effort=True`` an unevictable pool returns None instead of
        raising -- the caller (read-ahead) simply gives up.

        The victim is the first unpinned frame from the cold end of the
        recency list, so the walk is as long as the pinned or protected
        frames colder than it are many.  Every pin belongs to the thread
        inside the engine, so the error below is a self-deadlock check:
        the calling statement's own pins fill the pool.
        """
        frames = self._frames
        if len(frames) < self.capacity:
            return 0
        for key in frames:
            frame = frames[key]
            if not frame.pin_count and key not in protected:
                return self._evict(key, frame)
        if best_effort:
            return None
        raise BufferPoolError("all buffer frames are pinned")

    def _evict(self, key: _PageKey, frame: _Frame) -> int:
        """Drop one unpinned victim frame, written back first if dirty (a
        write-back fault keeps the frame and surfaces).  The one eviction
        site; returns 1, the frames evicted."""
        if frame.dirty:
            self._write_back(key, frame)
        del self._frames[key]
        self.evictions += 1
        return 1
