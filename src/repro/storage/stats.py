"""I/O statistics.

Every experiment in the paper is stated in units of disk I/O, so the engine
threads a single :class:`IOStatistics` object through the simulated disk and
buffer pool.  ``snapshot`` / subtraction make it easy to measure the cost of
one query::

    before = stats.snapshot()
    run_query()
    cost = stats.snapshot() - before
    print(cost.total_io)

Counters are also kept **per file**, which decomposes a query's cost the
way the paper's cost terms do (C_read/R, C_read/S, C_read/L, ...)::

    cost.reads_for(emp_file_id)     # pages of Emp1 read by the query
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Per-file bucket that inherits the counters of dropped files.  Disk file
#: ids start at 1, so 0 never names a live file.  Without it every result
#: file a retrieve creates and drops would leave a key behind for ever and
#: each statement's snapshot/subtract would grow with statements served.
DROPPED_FILE_ID = 0


def _sub_counts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) - value
    return {key: value for key, value in out.items() if value}


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time copy of the counters."""

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    buffer_hits: int = 0
    #: buffer frames evicted to make room (LRU victims only).
    evictions: int = 0
    #: dirty pages written back (on eviction *and* on explicit flushes) --
    #: these writes also appear in ``physical_writes``; the separate count
    #: explains why a read-only query can show write I/O.
    dirty_writebacks: int = 0
    #: pages physically read ahead of demand by scan read-ahead (these
    #: reads also appear in ``physical_reads``).
    prefetch_issued: int = 0
    #: demand fetches served by a frame that read-ahead loaded.
    prefetch_hits: int = 0
    #: object reads avoided because a sort-and-dedupe batch had already
    #: resolved the same OID (the batched join's saved functional joins).
    batch_dedup_saved: int = 0
    file_reads: dict = field(default_factory=dict)
    file_writes: dict = field(default_factory=dict)

    @property
    def total_io(self) -> int:
        """Physical reads plus physical writes -- the paper's cost unit."""
        return self.physical_reads + self.physical_writes

    def reads_for(self, file_id: int) -> int:
        """Physical reads charged to one file."""
        return self.file_reads.get(file_id, 0)

    def writes_for(self, file_id: int) -> int:
        """Physical writes charged to one file."""
        return self.file_writes.get(file_id, 0)

    def io_for(self, file_id: int) -> int:
        """Total physical I/O charged to one file."""
        return self.reads_for(file_id) + self.writes_for(file_id)

    def touched_files(self) -> set[int]:
        """Ids of every file this snapshot charged I/O to."""
        return set(self.file_reads) | set(self.file_writes)

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            physical_reads=self.physical_reads - other.physical_reads,
            physical_writes=self.physical_writes - other.physical_writes,
            logical_reads=self.logical_reads - other.logical_reads,
            buffer_hits=self.buffer_hits - other.buffer_hits,
            evictions=self.evictions - other.evictions,
            dirty_writebacks=self.dirty_writebacks - other.dirty_writebacks,
            prefetch_issued=self.prefetch_issued - other.prefetch_issued,
            prefetch_hits=self.prefetch_hits - other.prefetch_hits,
            batch_dedup_saved=self.batch_dedup_saved - other.batch_dedup_saved,
            file_reads=_sub_counts(self.file_reads, other.file_reads),
            file_writes=_sub_counts(self.file_writes, other.file_writes),
        )


class IOStatistics:
    """Mutable I/O counters shared by a disk and its buffer pool.

    Observer threads read them while a statement runs, so every mutation
    happens under one small mutex (a leaf lock: nothing is called while
    it is held).  ``snapshot`` takes the same mutex so a reader never
    sees a half-applied update.  The pool counts its requests with
    :meth:`count_requests`, each eviction with the request it made room
    for: once per single-page fetch, hit or miss, and once per page group
    for all its requests, hits and evictions.  The disk adds one
    :meth:`count_read` per physical read.
    """

    __slots__ = (
        "physical_reads",
        "physical_writes",
        "logical_reads",
        "buffer_hits",
        "evictions",
        "dirty_writebacks",
        "prefetch_issued",
        "prefetch_hits",
        "batch_dedup_saved",
        "file_reads",
        "file_writes",
        "_mutex",
    )

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.physical_reads = 0
        self.physical_writes = 0
        self.logical_reads = 0
        self.buffer_hits = 0
        self.evictions = 0
        self.dirty_writebacks = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0
        self.batch_dedup_saved = 0
        self.file_reads: dict[int, int] = {}
        self.file_writes: dict[int, int] = {}

    def reset(self) -> None:
        """Zero all counters."""
        with self._mutex:
            self.physical_reads = 0
            self.physical_writes = 0
            self.logical_reads = 0
            self.buffer_hits = 0
            self.evictions = 0
            self.dirty_writebacks = 0
            self.prefetch_issued = 0
            self.prefetch_hits = 0
            self.batch_dedup_saved = 0
            self.file_reads.clear()
            self.file_writes.clear()

    def count_read(self, file_id: int) -> None:
        """Charge one physical read to ``file_id``."""
        with self._mutex:
            self.physical_reads += 1
            self.file_reads[file_id] = self.file_reads.get(file_id, 0) + 1

    def count_write(self, file_id: int) -> None:
        """Charge one physical write to ``file_id``."""
        with self._mutex:
            self.physical_writes += 1
            self.file_writes[file_id] = self.file_writes.get(file_id, 0) + 1

    def count_requests(self, requests: int, hits: int = 0,
                       evicted: int = 0) -> None:
        """``requests`` pages asked of the buffer pool (one page, or a
        page group), ``hits`` of them served from the pool, and the
        ``evicted`` frames that made room for the rest, in one mutex
        acquisition (the pool's hot path)."""
        with self._mutex:
            self.logical_reads += requests
            self.buffer_hits += hits
            self.evictions += evicted

    def fold_dropped_file(self, file_id: int) -> None:
        """Move a dropped file's per-file counters into the
        :data:`DROPPED_FILE_ID` bucket, so ``physical_* == sum(per file)``
        keeps holding while the dicts stay as small as the live files."""
        with self._mutex:
            for counts in (self.file_reads, self.file_writes):
                gone = counts.pop(file_id, 0)
                if gone:
                    counts[DROPPED_FILE_ID] = (
                        counts.get(DROPPED_FILE_ID, 0) + gone)

    def count_eviction(self) -> None:
        """Record one buffer frame evicted to make room."""
        with self._mutex:
            self.evictions += 1

    def count_writeback(self) -> None:
        """Record one dirty page written back from the pool."""
        with self._mutex:
            self.dirty_writebacks += 1

    def count_prefetch(self, evicted: int = 0) -> None:
        """Record one page physically read by scan read-ahead, and the
        ``evicted`` frames (0 or 1) that made room for it."""
        with self._mutex:
            self.prefetch_issued += 1
            self.evictions += evicted

    def count_prefetch_hit(self) -> None:
        """Record one demand fetch served by a read-ahead frame."""
        with self._mutex:
            self.prefetch_hits += 1

    def count_batch_dedup(self, saved: int) -> None:
        """Record object reads a sort-and-dedupe batch avoided."""
        with self._mutex:
            self.batch_dedup_saved += saved

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        with self._mutex:
            return IOSnapshot(
                physical_reads=self.physical_reads,
                physical_writes=self.physical_writes,
                logical_reads=self.logical_reads,
                buffer_hits=self.buffer_hits,
                evictions=self.evictions,
                dirty_writebacks=self.dirty_writebacks,
                prefetch_issued=self.prefetch_issued,
                prefetch_hits=self.prefetch_hits,
                batch_dedup_saved=self.batch_dedup_saved,
                file_reads=dict(self.file_reads),
                file_writes=dict(self.file_writes),
            )

    @property
    def total_io(self) -> int:
        """Physical reads plus physical writes."""
        return self.physical_reads + self.physical_writes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStatistics(pr={self.physical_reads}, pw={self.physical_writes}, "
            f"lr={self.logical_reads}, hits={self.buffer_hits}, "
            f"ev={self.evictions}, wb={self.dirty_writebacks})"
        )
