"""The storage manager: the top of the storage layer.

A :class:`StorageManager` bundles one simulated disk, one buffer pool, and a
name -> heap-file directory.  Everything above this layer (object store,
indexes, replication, queries) allocates its files here, so a single
``StorageManager`` instance *is* a database's physical storage, and its
``stats`` member is the single source of truth for I/O accounting.
"""

from __future__ import annotations

from repro.errors import DuplicateNameError, FileNotFoundInStoreError
from repro.storage.buffer import BufferPool
from repro.storage.constants import DEFAULT_BUFFER_FRAMES
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.stats import DROPPED_FILE_ID, IOSnapshot, IOStatistics


class StorageManager:
    """Owns the disk, the buffer pool, and the file directory."""

    def __init__(self, buffer_frames: int = DEFAULT_BUFFER_FRAMES,
                 metrics=None, faults=None) -> None:
        self.stats = IOStatistics()
        self.disk = SimulatedDisk(self.stats, metrics=metrics, faults=faults)
        self.pool = BufferPool(self.disk, capacity=buffer_frames, metrics=metrics)
        self._files_by_name: dict[str, HeapFile] = {}
        self._files_by_id: dict[int, HeapFile] = {}
        self._names_by_id: dict[int, str] = {}

    def attach_wal(self, wal) -> None:
        """Route buffer-pool events through a write-ahead log."""
        self.pool.wal = wal

    def heap_files(self):
        """All managed heap files (recovery refreshes their caches)."""
        return list(self._files_by_id.values())

    # -- file directory -----------------------------------------------------

    def create_file(self, name: str) -> HeapFile:
        """Create a named heap file."""
        if name in self._files_by_name:
            raise DuplicateNameError(f"file {name!r} already exists")
        file_id = self.disk.create_file()
        heap = HeapFile(self.pool, file_id)
        self._files_by_name[name] = heap
        self._files_by_id[file_id] = heap
        self._names_by_id[file_id] = name
        return heap

    def create_raw_file(self, name: str) -> int:
        """Create a named file managed by its user (e.g. a B+-tree), not by
        a heap; returns the file id."""
        if name in self._files_by_name or name in self._names_by_id.values():
            raise DuplicateNameError(f"file {name!r} already exists")
        file_id = self.disk.create_file()
        self._names_by_id[file_id] = name
        return file_id

    def file(self, name: str) -> HeapFile:
        """Look a heap file up by name."""
        try:
            return self._files_by_name[name]
        except KeyError:
            raise FileNotFoundInStoreError(f"no file named {name!r}") from None

    def file_by_id(self, file_id: int) -> HeapFile:
        """Look a heap file up by its numeric id."""
        try:
            return self._files_by_id[file_id]
        except KeyError:
            raise FileNotFoundInStoreError(f"no file with id {file_id}") from None

    def file_name(self, file_id: int) -> str:
        """Return the name under which ``file_id`` was created."""
        try:
            return self._names_by_id[file_id]
        except KeyError:
            raise FileNotFoundInStoreError(f"no file with id {file_id}") from None

    def has_file(self, name: str) -> bool:
        """Whether a file of that name exists."""
        return name in self._files_by_name

    def drop_file(self, name: str) -> None:
        """Delete a file, its pages, and any buffered frames."""
        heap = self.file(name)
        self.pool.drop_file_pages(heap.file_id)
        self.disk.drop_file(heap.file_id)
        self.stats.fold_dropped_file(heap.file_id)
        del self._files_by_name[name]
        del self._files_by_id[heap.file_id]
        del self._names_by_id[heap.file_id]

    def drop_raw_file(self, file_id: int) -> None:
        """Delete a raw (non-heap) file, its frames, and its name."""
        self.pool.drop_file_pages(file_id)
        self.disk.drop_file(file_id)
        self.stats.fold_dropped_file(file_id)
        self._names_by_id.pop(file_id, None)

    def file_names(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._files_by_name)

    # -- measurement helpers ------------------------------------------------

    def io_breakdown(self, snapshot: IOSnapshot) -> dict[str, tuple[int, int]]:
        """Decompose a snapshot into ``{file_name: (reads, writes)}``.

        This is the empirical analogue of the cost model's per-term
        decomposition (C_read/R, C_read/S, C_read/L, ...).
        """
        out: dict[str, tuple[int, int]] = {}
        for file_id in sorted(snapshot.touched_files()):
            name = "(dropped)" if file_id == DROPPED_FILE_ID else \
                self._names_by_id.get(file_id, f"file{file_id}")
            out[name] = (snapshot.reads_for(file_id), snapshot.writes_for(file_id))
        return out

    def snapshot(self) -> IOSnapshot:
        """Snapshot the I/O counters (delegates to :class:`IOStatistics`)."""
        return self.stats.snapshot()

    def cold_cache(self) -> None:
        """Flush and empty the buffer pool, as before a cold-start query."""
        self.pool.invalidate_all()

    def measure(self, fn) -> IOSnapshot:
        """Run ``fn()`` and return the I/O it generated."""
        before = self.snapshot()
        fn()
        return self.snapshot() - before
