"""Statement atomicity and crash recovery for one database.

The :class:`RecoveryManager` is the thin layer that turns the WAL and the
fault-injected disk into a usable contract:

* :meth:`statement` wraps every DML statement (and the replication /
  link / index maintenance it cascades into) in one WAL statement scope.
  A logical error (refused delete, bad field, dangling reference) rolls
  the statement back *live*: the pages it dirtied go back to the images
  the statement took as it declared them writable, allocations are
  truncated, and the session keeps going.  A :class:`DiskFault` instead
  leaves the incomplete tail in the log and flags the database as
  crashed -- only :meth:`recover` (the "restart") makes it usable again.
* :meth:`recover` discards the buffer pool (a crash loses memory) and is
  redo-only: every page the log names is rebuilt by
  :func:`repro.recovery.wal.redo` from its first image since the
  checkpoint (or a fresh page for an ``ALLOC``) plus the spans of the
  committed statements in log order, which also heals torn pages; the
  trailing incomplete statement contributes nothing and its page
  allocations are truncated.  Then every session cache (heap free-space
  maps, B+-tree meta, index statistics, lazy-queue mirrors) is rebuilt
  and replication is re-verified.
* :meth:`install` puts rebuilt pages in place -- for recovery, live
  rollback and a replication follower alike -- and keeps derived state
  per page installed, not per file.
* :meth:`checkpoint` flushes the pool and truncates the log; DDL
  statements checkpoint implicitly so the log only ever describes DML,
  and a served primary checkpoints between statements once the log
  outgrows the data (:mod:`repro.server.session`).

Recovery writes bypass the I/O statistics: recovery I/O is reported in
the :class:`RecoveryReport` instead, so the paper's per-query figures
stay clean.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.recovery.faults import DiskFault
from repro.recovery.wal import Redo, WriteAheadLog, redo


@dataclass
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover` call did."""

    statements_replayed: int = 0
    statements_discarded: int = 0
    #: pages rebuilt with at least one committed span
    pages_redone: int = 0
    #: pages reset to their image: only the incomplete statement changed them
    pages_rolled_back: int = 0
    pages_truncated: int = 0
    files_touched: set = field(default_factory=set)
    verified: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"recovery: {self.statements_replayed} statement(s) redone, "
            f"{self.statements_discarded} discarded; "
            f"{self.pages_redone} page(s) redone, "
            f"{self.pages_rolled_back} rolled back, "
            f"{self.pages_truncated} truncated; "
            f"{len(self.files_touched)} file(s) touched"
            + ("; replication verified" if self.verified else "")
        )


class RecoveryManager:
    """Owns the WAL and the recovery path of one :class:`Database`."""

    def __init__(self, db, wal: bool = False) -> None:
        self.db = db
        self.enabled = wal
        self.wal = (WriteAheadLog(db.telemetry.metrics,
                                  telemetry=db.telemetry,
                                  faults=db.faults)
                    if wal else None)
        # statement scopes nest per executing thread (a served statement
        # runs on its connection's thread); so does the last-statement
        # attribution
        self._local = threading.local()
        self._m_recoveries = db.telemetry.metrics.counter(
            "recoveries_total", "crash-recovery passes completed")
        if self.wal is not None:
            db.storage.attach_wal(self.wal)

    @property
    def needs_recovery(self) -> bool:
        """Whether a disk fault interrupted a statement since the last
        recovery (the database refuses new statements until recovered)."""
        return self.wal is not None and self.wal.needs_recovery

    # -- statement scoping ---------------------------------------------------

    @contextmanager
    def statement(self, note: str = ""):
        """Make the enclosed mutations one atomic unit.

        Reentrant: nested scopes (the ``Database.update_many`` a replace
        runs, a lazy refresh triggered mid-query) join the outer
        statement.
        """
        if self.wal is None:
            yield
            return
        self.check_ready()
        depth = getattr(self._local, "depth", 0)
        if depth > 0:
            self._local.depth = depth + 1
            try:
                yield
            finally:
                self._local.depth = depth
            return
        self._local.depth = 1
        self._local.last_lsn = 0
        self.wal.begin(note)
        try:
            yield
        except DiskFault:
            self.wal.mark_crashed()
            raise
        except BaseException:
            self._rollback_live()
            raise
        else:
            try:
                self._local.last_lsn = self.wal.commit(self._current_image)
            except DiskFault:
                # the commit force failed: the mutation is applied in
                # memory but not durable -- only recovery, which rolls the
                # statement back from its before-images, may touch the
                # database now
                self.wal.mark_crashed()
                raise
        finally:
            self._local.depth = 0

    def check_ready(self) -> None:
        """Refuse statements until a crashed database has recovered."""
        if self.wal is not None and self.wal.needs_recovery:
            # refusing outright beats mutating resident frames the coming
            # recovery would silently discard
            raise DiskFault(
                "the database crashed mid-statement; run recover() before "
                "issuing new statements")

    def last_statement_lsn(self) -> int:
        """Commit LSN of the last top-level statement scope completed on
        this thread (0 for read-only, rolled-back, or crashed ones)."""
        return getattr(self._local, "last_lsn", 0)

    def last_statement_wal_bytes(self) -> int:
        """WAL bytes appended by the last statement scope on this thread."""
        return self.wal.last_statement_bytes() if self.wal is not None else 0

    def _current_image(self, key):
        """The statement's final image of a page (frame, else disk)."""
        storage = self.db.storage
        frame_data = storage.pool.peek_frame(key)
        if frame_data is not None:
            return frame_data
        return storage.disk.peek_page(key[0], key[1])

    def _rollback_live(self) -> None:
        """Undo the active statement in a running (non-crashed) engine:
        its dirtied pages go back to their write-intent snapshots, its
        allocations are truncated."""
        images, allocated = self.wal.abort()
        live = self.db.storage.disk.file_exists
        # file ids are never reused, so a missing file was dropped after
        # the statement touched it -- nothing of it is left to roll back
        undo = Redo({key: image for key, image in images.items()
                     if live(key[0])})
        for file_id, page_no in allocated:
            if live(file_id):
                undo.truncations[file_id] = min(
                    undo.truncations.get(file_id, page_no), page_no)
        self.install(undo)

    # -- crash recovery ------------------------------------------------------

    def recover(self, verify: bool = True) -> RecoveryReport:
        """Restart after a crash: rebuild every page the log describes
        from its first image and the committed statements' spans, and
        truncate what the incomplete statement allocated."""
        if self.wal is None:
            raise DiskFault(
                "recovery requires the write-ahead log (Database(wal=True))")
        self.db.faults.disarm()  # recovery runs on repaired hardware
        self.db.storage.pool.discard_all()  # the crash lost every frame
        # records for files dropped after they were written (temp files,
        # dropped indexes) describe storage that no longer exists
        done = redo(self.wal.records, live=self.db.storage.disk.file_exists)
        report = RecoveryReport(
            statements_replayed=done.committed,
            statements_discarded=done.discarded,
            pages_redone=len(done.redone),
            pages_rolled_back=len(done.pages) - len(done.redone),
            files_touched={file_id for file_id, __ in done.pages})
        report.pages_truncated = self.install(done, restart=True)
        self.wal.needs_recovery = False
        self.wal.checkpoint()  # the disk image is now the whole truth
        if verify:
            self.db.replication.verify()
            report.verified = True
        self._m_recoveries.inc()
        return report

    def checkpoint(self) -> None:
        """Force dirty pages to disk, then truncate the log."""
        if self.wal is None:
            return
        self.wal.flush()
        try:
            self.db.storage.pool.flush_all()
        except DiskFault:
            # the flush may have torn a committed page on its way down;
            # only recovery may touch the database now
            self.wal.mark_crashed()
            raise
        self.wal.checkpoint()

    def on_ddl(self) -> None:
        """DDL ran outside statement scope: its pages must become durable
        before the log can describe later DML against them."""
        if self.wal is not None and not self.wal.in_statement:
            self.checkpoint()

    # -- installing pages ----------------------------------------------------

    def install(self, done: Redo, restart: bool = False) -> int:
        """Make ``done``'s pages the disk's, grow and truncate its files,
        drop the pool's frames of every page so changed and bring the
        state derived from them up to date; returns the pages truncated.

        Crash recovery (and so a snapshot's WAL tail), live rollback and
        a follower's apply all end here.  Derived state follows the
        pages installed, unless ``restart`` (recovery), which rebuilds
        all of it.
        """
        storage = self.db.storage
        disk = storage.disk
        for file_id, size in done.sizes.items():
            disk.ensure_pages(file_id, size)
        for (file_id, page_no), image in done.pages.items():
            disk.restore_page(file_id, page_no, image)
        cut = [(file_id, page_no)
               for file_id, size in done.truncations.items()
               for page_no in range(size, disk.num_pages(file_id))]
        storage.pool.discard_pages([*done.pages, *cut])
        for file_id, size in done.truncations.items():
            disk.truncate_file(file_id, size)
        self._refresh(None if restart else done)
        return len(cut)

    def _refresh(self, done: Redo | None) -> None:
        """Bring state derived from pages up to date with the pages
        ``done`` installed: a heap page's free-space entry is read off
        its image; an index whose file took a page reopens its tree and
        rebuilds its statistics.  ``None`` (a restart) rebuilds all of
        it, lazy-queue mirrors included."""
        db = self.db
        heaps = {heap.file_id: heap for heap in db.storage.heap_files()}
        if done is None:
            touched = None
            for heap in heaps.values():
                heap._rebuild_free_space()
        else:
            touched = {file_id for file_id, __ in done.pages}
            touched.update(done.truncations)
            for (file_id, page_no), image in done.pages.items():
                heap = heaps.get(file_id)
                if heap is not None:
                    heap.installed(page_no, image)
            for file_id, size in done.truncations.items():
                heap = heaps.get(file_id)
                if heap is not None:
                    heap.truncated(size)
        for info in db.catalog.indexes.values():
            tree = info.index.tree
            if touched is None or tree.file_id in touched:
                tree.reopen_meta()
                info.index.rebuild_stats()
        if done is None:
            for path in db.catalog.paths.values():
                if path.lazy:
                    db.replication.lazy.reload(path)
