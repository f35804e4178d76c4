"""A page-level write-ahead log with statement-scoped redo records.

Replication maintenance is exactly the kind of multi-page mutation the
paper's update-cost analysis is about: one in-place update touches up to
*f* referencing objects plus link pages (Section 4.1), and a separate-path
update must keep ``S'`` in lockstep with ``S`` (Section 5.2).  The WAL
makes each DML statement -- *including every propagation it triggers* --
an atomic unit, and it logs what the statement changed, not the pages it
changed it on:

* when a statement first intends to write a page, the pre-statement
  image is captured (``pool.writable``, before the writer mutates the
  frame) and held in memory for live rollback; a page the statement only
  reads is never copied, and dirtying a page with no such image is a
  :class:`WalError`, so a write site that forgot to declare its intent
  fails loudly instead of rolling back wrongly;
* the first time a page is dirtied after a checkpoint, that image is
  also logged, as a ``PAGE_BEFORE`` record: the base recovery rebuilds
  the page from (so a torn page always heals);
* pages the statement allocates are logged as ``ALLOC`` records (a
  fresh page is its own base);
* each write site reports the byte span it changed with
  ``pool.mark_dirty(file, page, (offset, length))``, or nothing, which
  means the whole page; at commit the statement appends **one** ``REDO``
  record holding ``(file, page, offset, after-bytes)`` for every span,
  sliced from the frames, followed by a ``COMMIT`` record;
* the buffer pool calls :meth:`WriteAheadLog.before_data_write` before
  any dirty page reaches the disk, enforcing the WAL rule: *log records
  describing a change are durable before the changed page is*.

Recovery (see :mod:`repro.recovery.manager`) is redo-only, and
:func:`redo` is its one span applier, which a replication follower runs
too: every page the records name starts from its first image (or a fresh
page for an ``ALLOC``; a follower, whose stream carries no images, starts
from its own disk page) and gets the spans of the committed statements in
log order; the (at most one, single-writer) trailing incomplete statement
contributes nothing but the images it logged.

The log itself lives on a dedicated durable device: appends never touch
the simulated data disk, never count against the paper's I/O figures, and
survive injected data-disk faults -- mirroring a real log on its own
spindle/NVRAM.  Its I/O is accounted separately (``wal_records_total``,
``wal_flushes_total``, ``wal_bytes_total``).

Record wire format (also used when a snapshot carries a WAL tail, and on
the replication stream)::

    frame       := length:u32 crc32:u32 body
    body        := type:u8 stmt_id:u64 payload
    BEGIN       := note_len:u16 note(utf-8)
    PAGE_BEFORE := file_id:u32 page_no:u32 image[PAGE_SIZE]
    REDO        := count:u32 span{count}
    span        := file_id:u32 page_no:u32 offset:u16 length:u16 bytes[length]
    ALLOC       := file_id:u32 page_no:u32
    COMMIT      := (empty)

A serialized log starts with :data:`WAL_MAGIC`, which names the format
version; a log in another version is refused, not misread.
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

__all__ = ["WAL_MAGIC", "Redo", "WalError", "WalRecord", "WalRecordType",
           "WriteAheadLog", "redo"]

_PageKey = tuple[int, int]

_FRAME = struct.Struct(">II")
_BODY_HEAD = struct.Struct(">BQ")
_NOTE_LEN = struct.Struct(">H")
_PAGE_HEAD = struct.Struct(">II")
_SPAN_COUNT = struct.Struct(">I")
_SPAN_HEAD = struct.Struct(">IIHH")

#: the format version a serialized log carries; bumped whenever a record
#: layout changes (FRWAL001 logged every dirtied page's after-image)
WAL_MAGIC = b"FRWAL002"
_MAGIC_FAMILY = WAL_MAGIC[:5]


class WalRecordType(IntEnum):
    BEGIN = 1
    PAGE_BEFORE = 2
    ALLOC = 4
    COMMIT = 5
    REDO = 6


#: framed bytes of a record of each type, less its image, note and payload
_FIXED_BYTES = {
    WalRecordType.BEGIN: _FRAME.size + _BODY_HEAD.size + _NOTE_LEN.size,
    WalRecordType.PAGE_BEFORE: _FRAME.size + _BODY_HEAD.size + _PAGE_HEAD.size,
    WalRecordType.ALLOC: _FRAME.size + _BODY_HEAD.size + _PAGE_HEAD.size,
    WalRecordType.COMMIT: _FRAME.size + _BODY_HEAD.size,
    WalRecordType.REDO: _FRAME.size + _BODY_HEAD.size,
}

#: the one range of a page whose write site named no span
_WHOLE_PAGE = ((0, PAGE_SIZE),)


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record.  ``image`` is a PAGE_BEFORE's page; ``payload`` is
    a REDO's spans, packed as on the wire (build one with :meth:`redo`,
    read them back with :attr:`spans`)."""

    type: WalRecordType
    stmt_id: int
    file_id: int = 0
    page_no: int = 0
    image: bytes = b""
    note: str = ""
    payload: bytes = b""

    @classmethod
    def redo(cls, stmt_id: int, spans) -> "WalRecord":
        """A REDO record of ``(file_id, page_no, offset, after_bytes)``
        spans, each of which must lie inside its page."""
        if not spans:
            raise WalError("a REDO record needs at least one span")
        parts = [_SPAN_COUNT.pack(len(spans))]
        for file_id, page_no, offset, data in spans:
            if not data or offset + len(data) > PAGE_SIZE:
                raise WalError(
                    f"redo span of {len(data)} byte(s) at offset {offset} "
                    f"does not lie inside a page")
            parts.append(_SPAN_HEAD.pack(file_id, page_no, offset, len(data)))
            parts.append(data)
        return cls(WalRecordType.REDO, stmt_id, payload=b"".join(parts))

    @property
    def spans(self) -> tuple:
        """A REDO's ``(file_id, page_no, offset, after_bytes)`` spans."""
        return _decode_spans(self.payload) if self.payload else ()

    def encode(self) -> bytes:
        """Serialize to the framed wire format (length + crc + body)."""
        body = _BODY_HEAD.pack(self.type, self.stmt_id)
        if self.type is WalRecordType.BEGIN:
            raw = self.note.encode("utf-8")
            body += _NOTE_LEN.pack(len(raw)) + raw
        elif self.type is WalRecordType.PAGE_BEFORE:
            if len(self.image) != PAGE_SIZE:
                raise WalError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(self.image)}")
            body += _PAGE_HEAD.pack(self.file_id, self.page_no) + self.image
        elif self.type is WalRecordType.REDO:
            body += self.payload
        elif self.type is WalRecordType.ALLOC:
            body += _PAGE_HEAD.pack(self.file_id, self.page_no)
        return _FRAME.pack(len(body), zlib.crc32(body)) + body

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["WalRecord", int]:
        """Decode one framed record at ``offset``; returns (record, next).

        Raises :class:`WalError` -- and only :class:`WalError` -- on *any*
        malformed input: truncated frames, bad CRCs, unknown record types,
        short or oversized payloads, undecodable notes, redo spans that
        leave their page or disagree with their count.  Records also
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
        image = payload = b""
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
            elif rtype is WalRecordType.PAGE_BEFORE:
                file_id, page_no = _PAGE_HEAD.unpack_from(body, pos)
                image = body[pos + _PAGE_HEAD.size:]
                if len(image) != PAGE_SIZE:
                    raise WalError("WAL page image has the wrong size")
            elif rtype is WalRecordType.REDO:
                payload = body[pos:]
                _decode_spans(payload)  # refuses what it cannot read
            elif rtype is WalRecordType.ALLOC:
                file_id, page_no = _PAGE_HEAD.unpack_from(body, pos)
                if pos + _PAGE_HEAD.size != len(body):
                    raise WalError("ALLOC record carries trailing bytes")
            elif pos != len(body):
                raise WalError(
                    f"{rtype.name} record carries trailing bytes")
        except (struct.error, UnicodeDecodeError) as exc:
            raise WalError(f"malformed WAL record payload: {exc}") from None
        return (cls(rtype, stmt_id, file_id, page_no, image, note, payload),
                start + length)


def _decode_spans(payload: bytes) -> tuple:
    """A REDO payload's spans, each checked to lie inside its page."""
    (count,) = _SPAN_COUNT.unpack_from(payload, 0)
    pos = _SPAN_COUNT.size
    if count == 0:
        raise WalError("REDO record carries no span")
    # every span is a head and at least one byte: a count the payload
    # cannot hold is refused before the loop trusts it
    if count * (_SPAN_HEAD.size + 1) > len(payload) - pos:
        raise WalError(
            f"REDO span count {count} disagrees with the record body "
            f"({len(payload) - pos} byte(s) present)")
    spans = []
    for __ in range(count):
        file_id, page_no, offset, length = _SPAN_HEAD.unpack_from(payload, pos)
        pos += _SPAN_HEAD.size
        if length == 0:
            raise WalError("REDO span is empty")
        if offset + length > PAGE_SIZE:
            raise WalError(
                f"REDO span [{offset}, {offset + length}) runs past the "
                f"{PAGE_SIZE}-byte page")
        if pos + length > len(payload):
            raise WalError("REDO span is truncated")
        spans.append((file_id, page_no, offset, payload[pos:pos + length]))
        pos += length
    if pos != len(payload):
        raise WalError("REDO record carries trailing bytes")
    return tuple(spans)


def _record_bytes(record: WalRecord) -> int:
    """Framed size of ``record``, without encoding it."""
    size = (_FIXED_BYTES[record.type] + len(record.image)
            + len(record.payload))
    if record.note:  # BEGIN records only
        size += len(record.note.encode("utf-8"))
    return size


def _merged(ranges: list) -> list:
    """``(offset, length)`` ranges sorted, with overlapping and adjacent
    ones joined."""
    out: list[list[int]] = []
    for offset, length in sorted(ranges):
        if out and offset <= out[-1][1]:
            out[-1][1] = max(out[-1][1], offset + length)
        else:
            out.append([offset, offset + length])
    return [(start, end - start) for start, end in out]


class _Scope:
    """Per-thread bookkeeping of one active WAL statement.

    One scope object per executing thread (a served statement runs on
    its connection's thread, inside the engine mutex).  The global log
    (``records``) holds every scope's records in append order; each
    scope also remembers *its* records (by identity) so
    commit/abort/read-only-removal touch exactly the right entries.
    """

    __slots__ = ("stmt_id", "note", "records", "snapshots", "spans",
                 "allocated", "imaged", "any_flushed", "bytes")

    def __init__(self, note: str = "") -> None:
        self.stmt_id = 0
        self.note = note
        self.records: list[WalRecord] = []
        #: pre-statement image of every page the statement declared
        #: writable: what a live rollback restores
        self.snapshots: dict[_PageKey, bytes] = {}
        #: every page the statement dirtied, in dirtying order, with the
        #: ``(offset, length)`` ranges its write sites reported -- or None
        #: for the whole page
        self.spans: dict[_PageKey, list | None] = {}
        self.allocated: set[_PageKey] = set()
        #: pages whose first image since the checkpoint this scope logged
        self.imaged: list[_PageKey] = []
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
        # hold the bound series, one per record type, whose inc() builds
        # no label key per call
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
        #: framed bytes of ``records``: what the log holds since the last
        #: checkpoint (a served primary's checkpoint trigger reads it)
        self.log_bytes = 0
        self._flushed = 0  # records known durable
        self._next_stmt_id = 1
        #: pages whose image (or ALLOC) the log holds since the last
        #: checkpoint: a later statement dirtying one logs spans only
        self._imaged: set[_PageKey] = set()
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
        """Log the statement's redo spans, then the commit record.

        ``read_image((file_id, page_no))`` must return the statement's
        final image of the page (buffer frame or disk); each span's
        after-bytes are sliced from it.  Returns the commit LSN for a
        mutating statement, else 0.
        """
        scope = self._require_scope()
        if not scope.spans:
            with self._log_mutex:
                if not scope.any_flushed:
                    # read-only statement: leave no trace in the log
                    self._discard(list(scope.records))
                    self._end_scope(scope)
                    return 0
            # a force made the BEGIN durable mid-statement; close the
            # statement with an (empty) commit record instead
        # the REDO payload, packed as it goes: one head and one slice of
        # the final image per span
        parts = [b""]
        for key, ranges in scope.spans.items():
            image = read_image(key)
            if ranges is None:
                ranges = _WHOLE_PAGE
            elif len(ranges) > 1:
                ranges = _merged(ranges)
            for offset, length in ranges:
                if length:
                    parts.append(_SPAN_HEAD.pack(key[0], key[1], offset,
                                                 length))
                    parts.append(image[offset:offset + length])
        count = (len(parts) - 1) // 2
        tail = [WalRecord(WalRecordType.COMMIT, scope.stmt_id)]
        if count:
            parts[0] = _SPAN_COUNT.pack(count)
            tail.insert(0, WalRecord(WalRecordType.REDO, scope.stmt_id,
                                     payload=b"".join(parts)))
        with self._log_mutex:
            for record in tail:
                self._append_locked(record, scope)
        try:
            self.flush()
        except BaseException:
            # the force failed before these records became durable: a
            # crash at this instant loses the redo tail, leaving an
            # incomplete statement that recovery discards (its images,
            # already durable by WAL-before-data, stay the pages' bases)
            with self._log_mutex:
                self._discard(tail)
            raise
        shipped = tuple(scope.records)
        self._end_scope(scope)
        if not count:
            return 0
        with self._commit_mutex:
            self.commit_lsn += 1
            lsn = self.commit_lsn
            note = shipped[0].note if shipped and \
                shipped[0].type is WalRecordType.BEGIN else ""
            for listener in list(self.commit_listeners):
                listener(lsn, note, shipped)
        return lsn

    def abort(self) -> tuple[dict[_PageKey, bytes], list[_PageKey]]:
        """Roll the active statement out of the log (live rollback).

        Returns ``(images, allocated)``: the pre-statement image of every
        page the statement dirtied (from its write-intent snapshots) and the
        pages it allocated, so the caller can restore the one and
        truncate the other; the statement's records are dropped from the
        tail, and the pages it imaged first will be imaged again by the
        next statement to dirty them.
        """
        scope = self._require_scope()
        with self._log_mutex:
            self._discard(list(scope.records))
            self._imaged.difference_update(scope.imaged)
        images = {key: scope.snapshots[key] for key in scope.spans
                  if key not in scope.allocated}
        allocated = [key for key in scope.spans if key in scope.allocated]
        self._end_scope(scope)
        return images, allocated

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

    def _discard(self, doomed: list[WalRecord]) -> None:
        """Drop ``doomed`` (records of the active scope) from the shared
        tail and from their scope (mutex held).

        Sequentially they are exactly the tail, so the fast path is a
        tail truncation; otherwise they are removed by identity.
        """
        n = len(doomed)
        if n == 0:
            return
        ids = {id(r) for r in doomed}
        if len(self.records) >= n and all(
                a is b for a, b in zip(self.records[-n:], doomed)):
            del self.records[-n:]
        else:
            self.records[:] = [r for r in self.records if id(r) not in ids]
        self._flushed = min(self._flushed, len(self.records))
        self.log_bytes -= sum(_record_bytes(r) for r in doomed)
        scope = self._scope()
        if scope is not None:
            scope.records = [r for r in scope.records if id(r) not in ids]

    # -- buffer-pool hooks ---------------------------------------------------

    def writable(self, key: _PageKey, data) -> None:
        """A page is about to be written: capture its pre-statement image,
        unless the statement already holds one or allocated the page."""
        scope = getattr(self._local, "scope", None)
        if scope is None:
            return
        if key in scope.snapshots or key in scope.allocated:
            return
        scope.snapshots[key] = bytes(data)

    def observe_dirty(self, key: _PageKey, span=None) -> None:
        """A writable page was mutated inside ``span`` (``(offset,
        length)``; None: anywhere).  The first time since the checkpoint
        that a page is dirtied, its snapshot is logged as its image."""
        scope = getattr(self._local, "scope", None)
        if scope is None:
            return
        spans = scope.spans
        if key in spans:
            ranges = spans[key]
            if ranges is not None:
                if span is None:
                    spans[key] = None
                else:
                    ranges.append(span)
            return
        image = scope.snapshots.get(key)
        if image is None:
            raise WalError(
                f"page {key} dirtied without a prior writable() in this "
                f"statement")
        if key not in self._imaged:
            with self._log_mutex:
                self._append_locked(
                    WalRecord(WalRecordType.PAGE_BEFORE, scope.stmt_id,
                              key[0], key[1], image), scope)
            self._imaged.add(key)
            scope.imaged.append(key)
        spans[key] = None if span is None else [span]

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
        scope.spans[key] = None
        if key not in self._imaged:
            self._imaged.add(key)
            scope.imaged.append(key)

    def observe_drop_file(self, file_id: int) -> None:
        """A file was dropped mid-statement (e.g. a query's materialised
        temp file): forget everything the active statement knows about it,
        including already-appended image/alloc records."""
        scope = self._scope()
        if scope is None:
            return
        scope.spans = {k: v for k, v in scope.spans.items()
                       if k[0] != file_id}
        scope.allocated = {k for k in scope.allocated if k[0] != file_id}
        scope.snapshots = {k: v for k, v in scope.snapshots.items()
                           if k[0] != file_id}
        gone = [k for k in scope.imaged if k[0] == file_id]
        if gone:
            self._imaged.difference_update(gone)
            scope.imaged = [k for k in scope.imaged if k[0] != file_id]
        doomed = [r for r in scope.records
                  if r.type in (WalRecordType.PAGE_BEFORE,
                                WalRecordType.ALLOC)
                  and r.file_id == file_id]
        if doomed:
            with self._log_mutex:
                self._discard(doomed)

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

    # -- persistence ---------------------------------------------------------

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
            magic = data[:len(WAL_MAGIC)]
            if magic != WAL_MAGIC:
                if magic[:len(_MAGIC_FAMILY)] == _MAGIC_FAMILY:
                    raise WalError(
                        f"WAL format {magic.decode('ascii', 'replace')} is "
                        f"not readable by this build (it reads "
                        f"{WAL_MAGIC.decode('ascii')})")
                raise WalError("bad WAL magic")
            records: list[WalRecord] = []
            offset = len(WAL_MAGIC)
            while offset < len(data):
                record, offset = WalRecord.decode(data, offset)
                records.append(record)
            self.records = records
            self.log_bytes = sum(_record_bytes(r) for r in records)
            self._flushed = len(records)
            self._imaged.clear()
            if records:
                self._next_stmt_id = max(r.stmt_id for r in records) + 1
            return len(records)

    def checkpoint(self) -> None:
        """Truncate the log (caller guarantees the disk image is current)."""
        with self._log_mutex:
            if self._scopes:
                raise WalError("cannot checkpoint mid-statement")
            self.records.clear()
            self.log_bytes = 0
            self._flushed = 0
            self._imaged.clear()

    @property
    def has_records(self) -> bool:
        return bool(self.records)

    # -- internals -----------------------------------------------------------

    def _append_locked(self, record: WalRecord, scope: _Scope | None) -> None:
        self.records.append(record)
        if scope is not None:
            scope.records.append(record)
        self._m_records[record.type].inc()
        # size accounting without encoding the record
        size = _record_bytes(record)
        self._m_bytes.inc(size)
        self.log_bytes += size
        if scope is not None:
            scope.bytes += size


@dataclass
class Redo:
    """What :func:`redo` rebuilt from a run of log records."""

    #: the image of every page the records describe, as they leave it
    pages: dict[_PageKey, bytearray] = field(default_factory=dict)
    #: the pages at least one committed span reached
    redone: set[_PageKey] = field(default_factory=set)
    #: file -> the pages it must hold for the committed allocations
    sizes: dict[int, int] = field(default_factory=dict)
    #: file -> its size before the incomplete statement allocated
    truncations: dict[int, int] = field(default_factory=dict)
    #: every file the records name, the dropped ones included
    file_ids: set[int] = field(default_factory=set)
    committed: int = 0
    discarded: int = 0


def _no_image(file_id: int, page_no: int) -> bytes:
    raise WalError(f"the log holds a committed span on page "
                   f"({file_id},{page_no}), which has no image in the log")


def redo(records, base=_no_image, live=None) -> Redo:
    """Rebuild the pages a run of log records describes, in log order.

    The one span applier: crash recovery feeds it the whole log, a
    follower one shipped statement.  A page starts from its first
    ``PAGE_BEFORE`` image, from a fresh page at a committed ``ALLOC``,
    or else from ``base(file_id, page_no)``: by default a
    :class:`WalError`, since the log cannot say what the rest of that
    page holds; a follower passes its own disk.  The committed
    statements' spans are then patched in log order.  An incomplete
    statement contributes only the images it logged, and its allocations
    become truncations.  ``live(file_id)`` skips files dropped since
    their records were written.
    """
    committed = {r.stmt_id for r in records
                 if r.type is WalRecordType.COMMIT}
    out = Redo()
    pages = out.pages
    for record in records:
        kind = record.type
        if kind is WalRecordType.PAGE_BEFORE or kind is WalRecordType.ALLOC:
            file_id, page_no = record.file_id, record.page_no
            out.file_ids.add(file_id)
            if live is not None and not live(file_id):
                continue
            key = (file_id, page_no)
            if kind is WalRecordType.PAGE_BEFORE:
                if key not in pages:
                    pages[key] = bytearray(record.image)
            elif record.stmt_id in committed:
                pages.setdefault(key, bytearray(PAGE_SIZE))
                out.sizes[file_id] = max(out.sizes.get(file_id, 0),
                                         page_no + 1)
            else:
                out.truncations[file_id] = min(
                    out.truncations.get(file_id, page_no), page_no)
        elif kind is WalRecordType.REDO and record.stmt_id in committed:
            for file_id, page_no, offset, data in record.spans:
                out.file_ids.add(file_id)
                if live is not None and not live(file_id):
                    continue
                key = (file_id, page_no)
                page = pages.get(key)
                if page is None:
                    page = pages[key] = bytearray(base(file_id, page_no))
                page[offset:offset + len(data)] = data
                out.redone.add(key)
    out.committed = len(committed)
    out.discarded = len({r.stmt_id for r in records}) - out.committed
    return out
