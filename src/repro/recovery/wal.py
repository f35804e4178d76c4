"""A page-level write-ahead log with statement-scoped commit records.

Replication maintenance is exactly the kind of multi-page mutation the
paper's update-cost analysis is about: one in-place update touches up to
*f* referencing objects plus link pages (Section 4.1), and a separate-path
update must keep ``S'`` in lockstep with ``S`` (Section 5.2).  The WAL
makes each DML statement -- *including every propagation it triggers* --
an atomic unit:

* when a statement first touches a page, the pre-statement image is
  captured (at fetch time, before the client can mutate the frame) and
  written as a ``PAGE_BEFORE`` record the moment the page is dirtied;
* pages the statement allocates are logged as ``ALLOC`` records;
* at commit, the statement's final image of every page it dirtied is
  written as ``PAGE_AFTER`` records followed by a ``COMMIT`` record;
* the buffer pool calls :meth:`WriteAheadLog.before_data_write` before
  any dirty page reaches the disk, enforcing the WAL rule: *log records
  describing a change are durable before the changed page is*.

Recovery (see :mod:`repro.recovery.manager`) redoes committed statements
from their after-images and rolls the (at most one, single-writer) trailing
incomplete statement back from its before-images -- so torn or half-flushed
pages are always overwritten by a full known-good image.

The log itself lives on a dedicated durable device: appends never touch
the simulated data disk, never count against the paper's I/O figures, and
survive injected data-disk faults -- mirroring a real log on its own
spindle/NVRAM.  Its I/O is accounted separately (``wal_records_total``,
``wal_flushes_total``, ``wal_bytes_total``).

Record wire format (also used when a snapshot carries a WAL tail)::

    frame  := length:u32 crc32:u32 body
    body   := type:u8 stmt_id:u64 payload
    BEGIN  := note_len:u16 note(utf-8)
    PAGE_* := file_id:u32 page_no:u32 image[PAGE_SIZE]
    ALLOC  := file_id:u32 page_no:u32
    COMMIT := (empty)
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

from repro.errors import WalError
from repro.storage.constants import PAGE_SIZE
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.tracing import NULL_SPAN
from repro.telemetry.waitevents import WAL_FLUSH

__all__ = ["WAL_MAGIC", "WalError", "WalRecord", "WalRecordType",
           "WriteAheadLog"]

_PageKey = tuple[int, int]

_FRAME = struct.Struct(">II")
_BODY_HEAD = struct.Struct(">BQ")
_NOTE_LEN = struct.Struct(">H")
_PAGE_HEAD = struct.Struct(">II")

WAL_MAGIC = b"FRWAL001"


class WalRecordType(IntEnum):
    BEGIN = 1
    PAGE_BEFORE = 2
    PAGE_AFTER = 3
    ALLOC = 4
    COMMIT = 5


#: framed bytes of a record of each type, less its page image and note
_FIXED_BYTES = {
    WalRecordType.BEGIN: _FRAME.size + _BODY_HEAD.size + _NOTE_LEN.size,
    WalRecordType.PAGE_BEFORE: _FRAME.size + _BODY_HEAD.size + _PAGE_HEAD.size,
    WalRecordType.PAGE_AFTER: _FRAME.size + _BODY_HEAD.size + _PAGE_HEAD.size,
    WalRecordType.ALLOC: _FRAME.size + _BODY_HEAD.size + _PAGE_HEAD.size,
    WalRecordType.COMMIT: _FRAME.size + _BODY_HEAD.size,
}


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record; ``image`` is empty except for PAGE_* records."""

    type: WalRecordType
    stmt_id: int
    file_id: int = 0
    page_no: int = 0
    image: bytes = b""
    note: str = ""

    def encode(self) -> bytes:
        """Serialize to the framed wire format (length + crc + body)."""
        body = _BODY_HEAD.pack(self.type, self.stmt_id)
        if self.type is WalRecordType.BEGIN:
            raw = self.note.encode("utf-8")
            body += _NOTE_LEN.pack(len(raw)) + raw
        elif self.type in (WalRecordType.PAGE_BEFORE, WalRecordType.PAGE_AFTER):
            if len(self.image) != PAGE_SIZE:
                raise WalError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(self.image)}")
            body += _PAGE_HEAD.pack(self.file_id, self.page_no) + self.image
        elif self.type is WalRecordType.ALLOC:
            body += _PAGE_HEAD.pack(self.file_id, self.page_no)
        return _FRAME.pack(len(body), zlib.crc32(body)) + body

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["WalRecord", int]:
        """Decode one framed record at ``offset``; returns (record, next).

        Raises :class:`WalError` -- and only :class:`WalError` -- on *any*
        malformed input: truncated frames, bad CRCs, unknown record types,
        short or oversized payloads, undecodable notes.  Records now also
        arrive off the replication wire, so a struct/Unicode exception
        escaping here would let one corrupted frame kill a follower's
        apply loop instead of tripping its reconnect path.
        """
        if offset < 0 or offset > len(data):
            raise WalError("WAL record offset out of range")
        if offset + _FRAME.size > len(data):
            raise WalError("truncated WAL record frame")
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        body = bytes(data[start:start + length])
        if len(body) != length:
            raise WalError("truncated WAL record body")
        if zlib.crc32(body) != crc:
            raise WalError("WAL record failed its CRC check")
        try:
            rtype = WalRecordType(body[0])
            (__, stmt_id) = _BODY_HEAD.unpack_from(body, 0)
        except (ValueError, struct.error, IndexError) as exc:
            raise WalError(f"malformed WAL record: {exc}") from None
        pos = _BODY_HEAD.size
        file_id = page_no = 0
        image = b""
        note = ""
        try:
            if rtype is WalRecordType.BEGIN:
                (note_len,) = _NOTE_LEN.unpack_from(body, pos)
                end = pos + _NOTE_LEN.size + note_len
                if end != len(body):
                    raise WalError(
                        f"BEGIN note length {note_len} disagrees with the "
                        f"record body ({len(body) - pos - _NOTE_LEN.size} "
                        f"byte(s) present)")
                note = body[pos + _NOTE_LEN.size:end].decode("utf-8")
            elif rtype in (WalRecordType.PAGE_BEFORE, WalRecordType.PAGE_AFTER):
                file_id, page_no = _PAGE_HEAD.unpack_from(body, pos)
                image = body[pos + _PAGE_HEAD.size:]
                if len(image) != PAGE_SIZE:
                    raise WalError("WAL page image has the wrong size")
            elif rtype is WalRecordType.ALLOC:
                file_id, page_no = _PAGE_HEAD.unpack_from(body, pos)
                if pos + _PAGE_HEAD.size != len(body):
                    raise WalError("ALLOC record carries trailing bytes")
            elif pos != len(body):
                raise WalError(
                    f"{rtype.name} record carries trailing bytes")
        except (struct.error, UnicodeDecodeError) as exc:
            raise WalError(f"malformed WAL record payload: {exc}") from None
        return cls(rtype, stmt_id, file_id, page_no, image, note), start + length


@dataclass
class StatementLog:
    """All records of one statement, grouped for replay."""

    stmt_id: int
    note: str = ""
    committed: bool = False
    befores: list[WalRecord] = field(default_factory=list)
    afters: list[WalRecord] = field(default_factory=list)
    allocs: list[WalRecord] = field(default_factory=list)


class _Scope:
    """Per-thread bookkeeping of one active WAL statement.

    One scope object per executing thread (a served statement runs on a
    worker thread, inside the engine mutex).  The global log
    (``records``) holds every scope's records in append order; each
    scope also remembers *its* records (by identity) so
    commit/abort/read-only-removal touch exactly the right entries.
    """

    __slots__ = ("stmt_id", "note", "records", "snapshots", "dirty",
                 "dirty_set", "allocated", "any_flushed", "bytes")

    def __init__(self, note: str = "") -> None:
        self.stmt_id = 0
        self.note = note
        self.records: list[WalRecord] = []
        self.snapshots: dict[_PageKey, bytes] = {}
        self.dirty: list[_PageKey] = []
        self.dirty_set: set[_PageKey] = set()
        self.allocated: set[_PageKey] = set()
        #: a log force made (at least) this scope's BEGIN durable; a
        #: read-only commit must then retain its records instead of
        #: silently un-writing durable bytes.
        self.any_flushed = False
        #: framed bytes this scope appended (the statement's wal_bytes).
        self.bytes = 0


class WriteAheadLog:
    """The statement-scoped physical log of one database.

    A served engine runs one statement at a time (the engine mutex), so
    records are appended by one statement at a time; the short
    ``_log_mutex`` keeps the tail consistent for the threads that read
    it meanwhile (a snapshot, the replication hub), and per-statement
    state lives in thread-local :class:`_Scope` objects.  Commit-listener
    dispatch happens under a separate ``_commit_mutex`` *after* the
    commit is durable, so the replication hub observes commits in LSN
    order with no gaps.  Every commit forces the log immediately.
    """

    def __init__(self, metrics=None, telemetry=None, faults=None) -> None:
        metrics = metrics if metrics is not None else NULL_METRICS
        #: optional Telemetry bundle: when its tracer is enabled, real log
        #: forces are recorded as ``wal_flush`` spans (the WAL is accounted
        #: on its own device, so the span carries no page I/O).
        self._telemetry = telemetry
        #: optional :class:`repro.recovery.faults.FaultInjector`; its
        #: :meth:`on_wal_flush` hook fires inside :meth:`flush` *before*
        #: any record is marked durable.
        self.faults = faults
        # an update appends a hundred records: hold the bound series, one
        # per record type, whose inc() builds no label key per call
        records = metrics.counter(
            "wal_records_total", "records appended to the write-ahead log")
        self._m_records = {rtype: records.labels(kind=rtype.name.lower())
                           for rtype in WalRecordType}
        self._m_flushes = metrics.counter(
            "wal_flushes_total", "log forces (WAL-before-data and commits)")
        self._m_bytes = metrics.counter(
            "wal_bytes_total", "bytes appended to the write-ahead log"
        ).labels()
        self.records: list[WalRecord] = []
        self._flushed = 0  # records known durable
        self._next_stmt_id = 1
        #: durable log-sequence number: committed statements since this
        #: log was created.  Monotonic across :meth:`checkpoint` (which
        #: truncates ``records`` but never rewinds the stream position),
        #: so replication consumers can address "the N-th committed
        #: statement" forever.
        self.commit_lsn = 0
        #: ``cb(lsn, note, records)`` called after each commit becomes
        #: durable, with the statement's full record tuple -- the tail
        #: stream replication ships to followers.  Listeners run inside
        #: the committing thread under ``_commit_mutex``, so entries are
        #: observed in commit order.
        self.commit_listeners: list = []
        # _log_mutex guards records/_flushed/_next_stmt_id/_scopes; it is
        # an RLock so scope teardown can run from paths that already hold it
        self._log_mutex = threading.RLock()
        self._commit_mutex = threading.Lock()
        self._local = threading.local()
        self._scopes: list[_Scope] = []
        #: set when a statement died on a :class:`DiskFault`; the log keeps
        #: its incomplete tail and the database must ``recover()``.
        self.needs_recovery = False

    # -- statement lifecycle -------------------------------------------------

    def _scope(self) -> _Scope | None:
        return getattr(self._local, "scope", None)

    def _require_scope(self) -> _Scope:
        scope = self._scope()
        if scope is None:
            raise WalError("no WAL statement is active")
        return scope

    @property
    def in_statement(self) -> bool:
        """Whether any thread currently has an open statement scope."""
        return bool(self._scopes)

    def begin(self, note: str = "") -> int:
        """Open a statement; every page touched until commit belongs to it."""
        if self._scope() is not None:
            raise WalError("a WAL statement is already active")
        scope = _Scope(note)
        with self._log_mutex:
            scope.stmt_id = self._next_stmt_id
            self._next_stmt_id += 1
            self._scopes.append(scope)
            self._append_locked(
                WalRecord(WalRecordType.BEGIN, scope.stmt_id, note=note),
                scope)
        self._local.scope = scope
        return scope.stmt_id

    def commit(self, read_image) -> int:
        """Log after-images of every dirty page, then the commit record.

        ``read_image((file_id, page_no)) -> bytes`` must return the
        statement's final image of the page (buffer frame or disk).
        Returns the commit LSN for a mutating statement, else 0.
        """
        scope = self._require_scope()
        if not scope.dirty:
            with self._log_mutex:
                if not scope.any_flushed:
                    # read-only statement: leave no trace in the log
                    self._remove_scope_records(scope)
                    self._end_scope(scope)
                    return 0
            # a force made the BEGIN durable mid-statement; close the
            # statement with an (empty) commit record instead
        afters = [(key, bytes(read_image(key))) for key in scope.dirty]
        with self._log_mutex:
            for key, image in afters:
                self._append_locked(
                    WalRecord(WalRecordType.PAGE_AFTER, scope.stmt_id,
                              key[0], key[1], image), scope)
            self._append_locked(
                WalRecord(WalRecordType.COMMIT, scope.stmt_id), scope)
        try:
            self.flush()
        except BaseException:
            # the force failed before these records became durable: a
            # crash at this instant loses the redo tail, leaving an
            # incomplete statement that recovery rolls back from its
            # (already-durable, WAL-before-data) before-images.
            with self._log_mutex:
                doomed = {id(r) for r in scope.records
                          if r.type in (WalRecordType.PAGE_AFTER,
                                        WalRecordType.COMMIT)}
                self.records[:] = [r for r in self.records
                                   if id(r) not in doomed]
                self._flushed = min(self._flushed, len(self.records))
                scope.records = [r for r in scope.records
                                 if id(r) not in doomed]
            raise
        shipped = tuple(scope.records)
        mutated = any(r.type in (WalRecordType.PAGE_AFTER,
                                 WalRecordType.ALLOC) for r in shipped)
        self._end_scope(scope)
        if not mutated:
            return 0
        with self._commit_mutex:
            self.commit_lsn += 1
            lsn = self.commit_lsn
            note = shipped[0].note if shipped and \
                shipped[0].type is WalRecordType.BEGIN else ""
            for listener in list(self.commit_listeners):
                listener(lsn, note, shipped)
        return lsn

    def abort(self) -> tuple[list[WalRecord], list[WalRecord]]:
        """Roll the active statement out of the log (live rollback).

        Returns ``(before_records, alloc_records)`` in log order so the
        caller can restore images (reversed) and truncate allocations; the
        statement's records are dropped from the tail.
        """
        scope = self._require_scope()
        with self._log_mutex:
            self._remove_scope_records(scope)
        befores = [r for r in scope.records
                   if r.type is WalRecordType.PAGE_BEFORE]
        allocs = [r for r in scope.records
                  if r.type is WalRecordType.ALLOC]
        self._end_scope(scope)
        return befores, allocs

    def mark_crashed(self) -> None:
        """A disk fault killed the statement: keep the incomplete tail."""
        scope = self._scope()
        if scope is not None:
            self._end_scope(scope)
        self.needs_recovery = True

    def last_statement_bytes(self) -> int:
        """Framed WAL bytes appended by the most recently closed
        statement scope *on this thread* (the per-statement ``wal_bytes``
        attribution -- a global counter delta would blend concurrent
        statements together)."""
        return getattr(self._local, "last_bytes", 0)

    def _end_scope(self, scope: _Scope) -> None:
        with self._log_mutex:
            try:
                self._scopes.remove(scope)
            except ValueError:
                pass
        self._local.scope = None
        self._local.last_bytes = scope.bytes

    def _remove_scope_records(self, scope: _Scope) -> None:
        """Drop ``scope``'s records from the shared tail (mutex held).

        Sequentially the scope's records are exactly the tail, so the
        fast path is a tail truncation -- byte-identical to the old
        single-writer ``del records[stmt_start:]``.  Under concurrency
        they may interleave with other scopes' records and are removed
        by identity.
        """
        n = len(scope.records)
        if n == 0:
            return
        if len(self.records) >= n and all(
                a is b for a, b in zip(self.records[-n:], scope.records)):
            del self.records[-n:]
        else:
            doomed = {id(r) for r in scope.records}
            self.records[:] = [r for r in self.records
                               if id(r) not in doomed]
        self._flushed = min(self._flushed, len(self.records))

    # -- buffer-pool hooks ---------------------------------------------------

    def observe_fetch(self, key: _PageKey, data) -> None:
        """Capture the pre-statement image of a page on first contact."""
        scope = self._scope()
        if scope is None:
            return
        if key in scope.snapshots or key in scope.dirty_set:
            return
        scope.snapshots[key] = bytes(data)

    def observe_dirty(self, key: _PageKey) -> None:
        """A fetched page was mutated: promote its snapshot to an undo record."""
        scope = self._scope()
        if scope is None:
            return
        if key in scope.dirty_set:
            return
        if key in scope.allocated:
            scope.dirty.append(key)
            scope.dirty_set.add(key)
            return
        try:
            image = scope.snapshots.pop(key)
        except KeyError:
            raise WalError(
                f"page {key} dirtied without a prior fetch in this statement"
            ) from None
        with self._log_mutex:
            self._append_locked(
                WalRecord(WalRecordType.PAGE_BEFORE, scope.stmt_id,
                          key[0], key[1], image), scope)
        scope.dirty.append(key)
        scope.dirty_set.add(key)

    def observe_alloc(self, file_id: int, page_no: int) -> None:
        """A page is about to be allocated for the active statement."""
        scope = self._scope()
        if scope is None:
            return
        with self._log_mutex:
            self._append_locked(
                WalRecord(WalRecordType.ALLOC, scope.stmt_id,
                          file_id, page_no), scope)
        key = (file_id, page_no)
        scope.allocated.add(key)
        scope.dirty.append(key)
        scope.dirty_set.add(key)

    def observe_drop_file(self, file_id: int) -> None:
        """A file was dropped mid-statement (e.g. a query's materialised
        temp file): forget everything the active statement knows about it,
        including already-appended undo/alloc records."""
        scope = self._scope()
        if scope is None:
            return
        scope.dirty = [k for k in scope.dirty if k[0] != file_id]
        scope.dirty_set = {k for k in scope.dirty_set if k[0] != file_id}
        scope.allocated = {k for k in scope.allocated if k[0] != file_id}
        scope.snapshots = {k: v for k, v in scope.snapshots.items()
                           if k[0] != file_id}
        doomed = {id(r) for r in scope.records
                  if r.type in (WalRecordType.PAGE_BEFORE,
                                WalRecordType.ALLOC)
                  and r.file_id == file_id}
        if not doomed:
            return
        with self._log_mutex:
            self.records[:] = [r for r in self.records
                               if id(r) not in doomed]
            self._flushed = min(self._flushed, len(self.records))
        scope.records = [r for r in scope.records if id(r) not in doomed]

    def before_data_write(self) -> None:
        """WAL ordering rule: force the log before a dirty page hits disk."""
        self.flush()

    def flush(self) -> None:
        """Make every appended record durable (accounted, instantaneous).

        Ordering matters for failure accounting: the fault hook fires
        (and may raise) *inside* the tracer span and **before**
        ``_flushed`` moves or ``wal_flushes_total`` increments, so a
        failed force is observable as exactly that -- no records marked
        durable, no flush counted.
        """
        with self._log_mutex:
            target = len(self.records)
            pending = target - self._flushed
            if pending <= 0:
                return
            telemetry = self._telemetry
            span = (telemetry.tracer.span("wal_flush", records=pending)
                    if telemetry is not None else NULL_SPAN)
            waits = telemetry.waits if telemetry is not None else None
            started = (time.perf_counter()
                       if waits is not None and waits.enabled else None)
            try:
                with span:
                    if self.faults is not None:
                        self.faults.on_wal_flush()
                    self._flushed = target
                    for scope in self._scopes:
                        if scope.records:
                            scope.any_flushed = True
                    self._m_flushes.inc()
            finally:
                if started is not None:
                    waits.record(WAL_FLUSH, time.perf_counter() - started)

    # -- replay / persistence ------------------------------------------------

    def statements(self) -> list[StatementLog]:
        """Group the log into statements in append order."""
        with self._log_mutex:
            records = list(self.records)
        out: list[StatementLog] = []
        by_id: dict[int, StatementLog] = {}
        for record in records:
            stmt = by_id.get(record.stmt_id)
            if stmt is None:
                stmt = StatementLog(record.stmt_id)
                by_id[record.stmt_id] = stmt
                out.append(stmt)
            if record.type is WalRecordType.BEGIN:
                stmt.note = record.note
            elif record.type is WalRecordType.PAGE_BEFORE:
                stmt.befores.append(record)
            elif record.type is WalRecordType.PAGE_AFTER:
                stmt.afters.append(record)
            elif record.type is WalRecordType.ALLOC:
                stmt.allocs.append(record)
            elif record.type is WalRecordType.COMMIT:
                stmt.committed = True
        return out

    def serialize(self) -> bytes:
        """The whole log as bytes (magic + framed records)."""
        with self._log_mutex:
            records = list(self.records)
        return WAL_MAGIC + b"".join(r.encode() for r in records)

    def load(self, data: bytes) -> int:
        """Replace the log with a serialized image; returns record count."""
        with self._log_mutex:
            if self._scopes:
                raise WalError("cannot load a WAL while a statement is active")
            if data[:len(WAL_MAGIC)] != WAL_MAGIC:
                raise WalError("bad WAL magic")
            records: list[WalRecord] = []
            offset = len(WAL_MAGIC)
            while offset < len(data):
                record, offset = WalRecord.decode(data, offset)
                records.append(record)
            self.records = records
            self._flushed = len(records)
            if records:
                self._next_stmt_id = max(r.stmt_id for r in records) + 1
            return len(records)

    def checkpoint(self) -> None:
        """Truncate the log (caller guarantees the disk image is current)."""
        with self._log_mutex:
            if self._scopes:
                raise WalError("cannot checkpoint mid-statement")
            self.records.clear()
            self._flushed = 0

    @property
    def has_records(self) -> bool:
        return bool(self.records)

    # -- internals -----------------------------------------------------------

    def _append_locked(self, record: WalRecord, scope: _Scope | None) -> None:
        self.records.append(record)
        if scope is not None:
            scope.records.append(record)
        self._m_records[record.type].inc()
        # size accounting without re-encoding full images on the hot path
        size = _FIXED_BYTES[record.type] + len(record.image)
        if record.note:  # BEGIN records only
            size += len(record.note.encode("utf-8"))
        self._m_bytes.inc(size)
        if scope is not None:
            scope.bytes += size
