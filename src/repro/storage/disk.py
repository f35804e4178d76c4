"""A simulated disk.

The disk is a set of numbered files, each an extendable array of fixed-size
pages held in memory.  It is the *only* component that increments the
physical I/O counters, so every page that crosses the disk boundary --
whether through the buffer pool or a bulk loader -- is accounted for
exactly once.

The paper's cost model charges one I/O per page touched and does not
distinguish sequential from random I/O ("we initially distinguished between
the two, but found that it did not significantly change our results",
Section 6.5); the simulated disk therefore does the same.

A served engine reaches the disk only from the thread inside its engine
mutex (:mod:`repro.server.admission`), and an embedded one from its one
thread, so disk operations do not overlap.  The disk keeps one small
reentrant mutex anyway: uncontended it costs one acquisition per
operation, it keeps each operation atomic for a caller that does share
a disk between threads, and the fault-injector hooks run inside it, so
their fire-on-the-Nth-write countdowns stay exact.

The disk's own counts (``reads``, ``writes``, ``allocated``) are plain
fields, changed under that mutex; the metrics registry reads them, and
the file and page totals, when it is scraped.
"""

from __future__ import annotations

import threading

from repro.errors import DiskFault, FileNotFoundInStoreError
from repro.storage.constants import PAGE_SIZE
from repro.storage.stats import IOStatistics
from repro.telemetry.metrics import NULL_METRICS


class SimulatedDisk:
    """An in-memory collection of paged files with physical I/O counting."""

    def __init__(self, stats: IOStatistics | None = None, metrics=None,
                 faults=None) -> None:
        self.stats = stats if stats is not None else IOStatistics()
        #: optional :class:`repro.recovery.faults.FaultInjector`; consulted
        #: on every physical read/write only while armed, so the default
        #: (no faults) I/O path is unchanged.
        self.faults = faults
        self._mutex = threading.RLock()
        self._files: dict[int, list[bytearray]] = {}
        #: live pages across all files
        self._pages = 0
        self._next_file_id = 1
        #: pages read, written and ever allocated
        self.reads = 0
        self.writes = 0
        self.allocated = 0
        metrics = metrics if metrics is not None else NULL_METRICS
        counter, gauge = metrics.counter, metrics.gauge
        counter("disk_reads_total", "pages read from the simulated disk").read_through(
            lambda: self.reads)
        counter("disk_writes_total", "pages written to the simulated disk").read_through(
            lambda: self.writes)
        counter("disk_pages_allocated_total", "pages ever allocated").read_through(
            lambda: self.allocated)
        gauge("disk_files", "live files").read_through(lambda: len(self._files))
        gauge("disk_pages", "live pages across all files").read_through(
            lambda: self._pages)

    # -- file management ----------------------------------------------------

    def create_file(self) -> int:
        """Allocate a new empty file and return its id."""
        with self._mutex:
            file_id = self._next_file_id
            self._next_file_id += 1
            self._files[file_id] = []
            return file_id

    def file_ids(self) -> list[int]:
        """Ids of every live file, ascending."""
        with self._mutex:
            return sorted(self._files)

    @property
    def next_file_id(self) -> int:
        """The id the next created file will get (the file-id cursor)."""
        return self._next_file_id

    def sync_file_cursor(self, next_file_id: int) -> None:
        """Adopt a peer's file-id cursor.

        A replication follower calls this before applying a shipped DDL
        entry: both engines allocate file ids sequentially, but transient
        output files (created and dropped mid-query) advance the cursor
        without leaving a file behind, so the cursors drift apart between
        DDL statements.  Moving the cursor is safe exactly because those
        intermediate ids are dropped; a live file at or past the target
        means the engines truly diverged, which is refused loudly.
        """
        with self._mutex:
            if any(fid >= next_file_id for fid in self._files):
                raise ValueError(
                    f"cannot move the file-id cursor to {next_file_id}: a "
                    f"live file at or past it exists (ids "
                    f"{sorted(f for f in self._files if f >= next_file_id)})")
            self._next_file_id = next_file_id

    def drop_file(self, file_id: int) -> None:
        """Delete a file and all its pages."""
        with self._mutex:
            pages = self._require(file_id)
            del self._files[file_id]
            self._pages -= len(pages)

    def file_exists(self, file_id: int) -> bool:
        """Whether ``file_id`` names a live file."""
        with self._mutex:
            return file_id in self._files

    def num_pages(self, file_id: int) -> int:
        """Number of pages currently allocated to ``file_id``."""
        with self._mutex:
            return len(self._require(file_id))

    def data_bytes(self) -> int:
        """Bytes of every live page of every file: the database's size."""
        return PAGE_SIZE * self._pages

    # -- page I/O -----------------------------------------------------------

    def allocate_page(self, file_id: int) -> int:
        """Extend ``file_id`` by one zeroed page; return the new page number.

        Allocation itself is free; the write that initialises the page is
        charged when it happens.
        """
        with self._mutex:
            pages = self._require(file_id)
            pages.append(bytearray(PAGE_SIZE))
            self.allocated += 1
            self._pages += 1
            return len(pages) - 1

    def read_page(self, file_id: int, page_no: int) -> bytearray:
        """Return a *copy* of the page image, charging one physical read."""
        with self._mutex:
            pages = self._require(file_id)
            self._check_page(pages, file_id, page_no)
            if self.faults is not None and self.faults.armed:
                self.faults.resolve_read()
            self.stats.count_read(file_id)
            self.reads += 1
            return bytearray(pages[page_no])

    def write_page(self, file_id: int, page_no: int, data: bytes) -> None:
        """Overwrite a page image, charging one physical write."""
        with self._mutex:
            pages = self._require(file_id)
            self._check_page(pages, file_id, page_no)
            if len(data) != PAGE_SIZE:
                raise ValueError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(data)}")
            if self.faults is not None and self.faults.armed:
                torn = self.faults.on_write(data, pages[page_no])
                if torn is not None:
                    # torn write: the corrupt half-image reaches the platter
                    # (and is charged) before the fault surfaces.
                    self.stats.count_write(file_id)
                    self.writes += 1
                    pages[page_no] = bytearray(torn)
                    raise DiskFault(
                        "injected torn write: page "
                        f"({file_id},{page_no}) persisted half-written")
            self.stats.count_write(file_id)
            self.writes += 1
            pages[page_no] = bytearray(data)

    # -- recovery primitives (uncharged) ------------------------------------

    def peek_page(self, file_id: int, page_no: int) -> bytes:
        """Read a page image without charging I/O (WAL/recovery internal)."""
        with self._mutex:
            pages = self._require(file_id)
            self._check_page(pages, file_id, page_no)
            return bytes(pages[page_no])

    def restore_page(self, file_id: int, page_no: int, data: bytes) -> None:
        """Overwrite a page from a log image without charging I/O.

        Recovery I/O is reported by the recovery layer itself so the
        paper's per-query physical figures stay clean.
        """
        with self._mutex:
            pages = self._require(file_id)
            self._check_page(pages, file_id, page_no)
            if len(data) != PAGE_SIZE:
                raise ValueError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(data)}")
            pages[page_no] = bytearray(data)

    def ensure_pages(self, file_id: int, count: int) -> None:
        """Grow ``file_id`` to at least ``count`` zeroed pages (redo of
        ALLOC records); never shrinks, never charges I/O."""
        with self._mutex:
            pages = self._require(file_id)
            while len(pages) < count:
                pages.append(bytearray(PAGE_SIZE))
                self.allocated += 1
                self._pages += 1

    def truncate_file(self, file_id: int, num_pages: int) -> None:
        """Drop pages allocated by a rolled-back statement (undo of ALLOC)."""
        with self._mutex:
            pages = self._require(file_id)
            if num_pages < 0:
                raise ValueError("cannot truncate to a negative size")
            if num_pages < len(pages):
                self._pages += num_pages - len(pages)
                del pages[num_pages:]

    # -- helpers ------------------------------------------------------------

    def _require(self, file_id: int) -> list[bytearray]:
        try:
            return self._files[file_id]
        except KeyError:
            raise FileNotFoundInStoreError(f"no file with id {file_id}") from None

    @staticmethod
    def _check_page(pages: list[bytearray], file_id: int, page_no: int) -> None:
        if not 0 <= page_no < len(pages):
            raise FileNotFoundInStoreError(
                f"file {file_id} has {len(pages)} pages; page {page_no} out of range"
            )
