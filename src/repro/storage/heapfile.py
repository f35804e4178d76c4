"""Heap files: unordered collections of variable-length records.

A heap file stores records on slotted pages accessed through the buffer
pool.  Record ids -- ``(page_no, slot)`` -- are *stable*: when an update
grows a record past what its home page can hold, the record is relocated
and a 7-byte *forward stub* is left in the home slot, exactly the technique
the paper assumes when in-place replication widens objects through
subtyping ("such changes are easily handled through subtyping", Section 4).
Forward chains never exceed length one: relocating an already-forwarded
record rewrites the original stub.

Records larger than a page -- the paper's own example is a link object for
a department with a thousand employees -- are stored as a chain of chunk
records with a small *descriptor* in the home slot, so arbitrarily large
payloads keep one stable rid.

Two framing layers are applied to every stored record:

* a **location marker** (``NORMAL`` / ``FORWARD`` / ``MOVED``) handling
  relocation, then
* a **payload wrapper** (``PLAIN`` / ``LARGE`` descriptor / ``CHUNK``)
  handling multi-page payloads.

Scans surface every record exactly once, under its home rid, assembled.

Two ways to change a stored record: :meth:`HeapFile.update` replaces the
whole payload (any size; it may relocate the record), and
:meth:`HeapFile.in_place` overwrites bytes *inside* payloads where they
lie, for a caller that changes fixed-width fields of many records -- an
update propagation -- and hands the record ids over in page order.
:meth:`HeapFile.update_many` is ``update`` for many records at a pin per
page -- what ``replicate`` does when it widens a loaded set -- as
:meth:`HeapFile.insert_many` is ``insert`` for many.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import Callable, Iterator

from repro.errors import PageFullError, RecordNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.constants import MAX_RECORD_BYTES
from repro.storage.page import Page

#: A record id within one file: ``(page_no, slot)``.
RID = tuple[int, int]

# location markers
_NORMAL = 0x00
_FORWARD = 0x01
_MOVED = 0x02

# payload wrappers
_PLAIN = 0x00
_LARGE = 0x01
_CHUNK = 0x02

_FWD = struct.Struct(">IH")
_LARGE_HEAD = struct.Struct(">BI IH")  # wrapper, total length, first-chunk rid
_CHUNK_HEAD = struct.Struct(">B IH")  # wrapper, next-chunk rid (NULL at end)

_NULL_RID: RID = (0xFFFFFFFF, 0xFFFF)

#: Payload bytes per chunk record (location marker + chunk header deducted).
_CHUNK_PAYLOAD = MAX_RECORD_BYTES - 1 - _CHUNK_HEAD.size

#: Largest payload stored without chunking (marker + wrapper deducted).
_INLINE_LIMIT = MAX_RECORD_BYTES - 2


class HeapFile:
    """A paged heap of records with stable record ids."""

    def __init__(self, pool: BufferPool, file_id: int) -> None:
        self.pool = pool
        self.file_id = file_id
        # Approximate free bytes per page.  This is session metadata that a
        # real engine would keep in a free-space map; rebuilding it from the
        # pages is always safe.
        self._free_space: dict[int, int] = {}
        self._rebuild_free_space()

    # -- public API ---------------------------------------------------------

    def insert(self, payload: bytes) -> RID:
        """Store a record of any size; returns its stable rid."""
        return self._place(_NORMAL, self._wrap(payload), avoid=None)

    def insert_many(self, payloads) -> list[RID]:
        """Store records exactly where a loop of :meth:`insert` would put
        them, holding one pin (and one ``mark_dirty``) per page filled
        instead of two pins per record.

        While the page it holds is the file's top page, a run of records
        goes onto it in one :meth:`Page.append`.  A record the append
        refuses -- the page has a free slot, or room only after compaction
        -- and every record bound for a lower page take the per-record
        path, :meth:`Page.insert`.  A chunked payload pins pages of its
        own, so the append lets go of its page around it.
        """
        pool, file_id = self.pool, self.file_id
        rids: list[RID] = []
        page_no = page = None  # the page this append currently pins
        is_top = False

        def release() -> None:
            nonlocal page
            if page is not None:
                self._free_space[page_no] = page.total_free()
                pool.unpin(file_id, page_no)
                page = None

        head = bytes((_NORMAL, _PLAIN))
        try:
            for chunked, run in groupby(
                    payloads, key=lambda payload: len(payload) > _INLINE_LIMIT):
                if chunked:
                    for payload in run:
                        release()
                        rids.append(self.insert(payload))
                    continue
                records = [head + payload for payload in run]
                index = 0
                while index < len(records):
                    record = records[index]
                    # insert() offers every record to the top page first
                    # and only then looks further; so may this append, as
                    # long as the page it pins still is the top one and
                    # has room
                    if page is None or not is_top \
                            or not page.has_room_for(len(record)):
                        release()
                        page_no = self._find_page_with_room(len(record))
                        page = pool.fetch(file_id, page_no)
                        is_top = page_no == max(self._free_space)
                        pool.writable(file_id, page_no)
                        pool.mark_dirty(file_id, page_no)
                    slots = page.append(records, index) if is_top else None
                    if slots:
                        rids.extend((page_no, slot) for slot in slots)
                        index += len(slots)
                    else:
                        rids.append((page_no, page.insert(record)))
                        index += 1
        finally:
            release()
        return rids

    def read(self, rid: RID) -> bytes:
        """Return the record payload, following a forward stub if present."""
        return self.read_sliced(rid, _payload)

    def read_sliced(self, rid: RID, slice_: Callable, page: Page | None = None):
        """``slice_(data, start, end)`` over the payload of the record at
        ``rid``, which lies in ``data[start:end]``; returns what it returns.

        A plain record is sliced where it lies, on its pinned page; so is
        one behind a forward stub, on the page it was moved to.  A chunked
        record is assembled first and handed over as bytes.  The pages
        pinned, and their order, are :meth:`read`'s: the home page, then
        the stub's target or the chunks.  ``page`` is ``rid``'s home page
        when the caller already holds it pinned: a plain record on it
        costs no pin of its own.

        Raises :class:`RecordNotFoundError` for an empty slot, a dangling
        stub, and a slot that holds no record of its own: a relocated
        payload or an overflow chunk that took the slot of a deleted
        record.
        """
        page_no, slot = rid
        if page is not None:
            offset, length = page.span(slot)
            data = page.data
            if data[offset] == _NORMAL and data[offset + 1] == _PLAIN:
                return slice_(data, offset + 2, offset + length)
        pool, file_id = self.pool, self.file_id
        body = target = None
        with pool.page(file_id, page_no) as home:
            offset, length = home.span(slot)
            data = home.data
            if data[offset] == _FORWARD:
                target = _rid_unpack(data, offset + 1)
            else:
                _check_home(rid, data[offset], data[offset + 1])
                if data[offset + 1] == _PLAIN:
                    return slice_(data, offset + 2, offset + length)
                body = bytes(data[offset + 1:offset + length])
        if target is not None:
            with pool.page(file_id, target[0]) as moved:
                offset, length = moved.span(target[1])
                data = moved.data
                if data[offset] != _MOVED:
                    raise RecordNotFoundError(f"dangling forward stub at {rid}")
                if data[offset + 1] == _PLAIN:
                    return slice_(data, offset + 2, offset + length)
                body = bytes(data[offset + 1:offset + length])
        payload = self._unwrap(body)
        return slice_(payload, 0, len(payload))

    def update(self, rid: RID, payload: bytes) -> None:
        """Replace the record payload; relocates on overflow, rid stays
        valid.  A plain record whose new image fits its page is rewritten
        under the pin that read its marker."""
        page_no, slot = rid
        with self.pool.page(self.file_id, page_no) as page:
            offset, length = page.span(slot)
            data = page.data
            if (data[offset] == _NORMAL and data[offset + 1] == _PLAIN
                    and len(payload) <= _INLINE_LIMIT
                    and self._rewrite(page, rid,
                                      bytes((_NORMAL, _PLAIN)) + payload)):
                return
            raw = bytes(data[offset:offset + length])
        if raw[0] == _FORWARD:
            self._free_payload(self._read_raw(_rid_unpack(raw[1:]))[1:])
            target = _rid_unpack(raw[1:])
            self._update_at(target, _MOVED, payload, home=rid)
            return
        _check_home(rid, raw[0], raw[1])
        self._free_payload(raw[1:])
        self._update_at(rid, _NORMAL, payload, home=rid)

    def update_many(self, rids, change: Callable[[RID, bytes], bytes]) -> None:
        """Replace the payload of each record of ``rids`` (distinct) with
        ``change(rid, payload)``, leaving every record -- and every record
        it displaces -- exactly where a loop of :meth:`update` would.

        Consecutive rids on one page share one pin.  Each plain record is
        sliced out of the pinned page and handed to ``change`` as it is
        met; whether its new image fits is decided the way :meth:`update`
        decides it, from the page's free bytes at that point of the loop.
        A record that no longer fits is placed elsewhere at once, where
        :meth:`update` would put it, and leaves a forward stub; the images
        that stay are written together when the page is let go, with at
        most one compaction (:meth:`Page.replace`).  ``change`` must not
        touch the buffer pool.  A forwarded or chunked record, or one that
        grows past a page, takes :meth:`update` itself, after the page's
        pending images are written.
        """
        pool, file_id = self.pool, self.file_id
        head = bytes((_NORMAL, _PLAIN))
        for page_no, run in groupby(rids, key=lambda rid: rid[0]):
            with pool.page(file_id, page_no) as page:
                images: dict[int, bytes] = {}  # slot -> record, not yet written
                free = page.total_free()
                for rid in run:
                    offset, length = page.span(rid[1])
                    data = page.data
                    payload = (
                        change(rid, bytes(data[offset + 2:offset + length]))
                        if data[offset] == _NORMAL and data[offset + 1] == _PLAIN
                        else None)
                    if payload is not None and len(payload) <= _INLINE_LIMIT:
                        record = head + payload
                        if len(record) - length > free:
                            target = self._place(_MOVED, record[1:],
                                                 avoid=page_no)
                            record = bytes([_FORWARD]) + _rid_pack(target)
                        images[rid[1]] = record
                        free -= len(record) - length
                        continue
                    # update() itself, on the page as the loop leaves it
                    self._write_images(page, page_no, images)
                    images = {}
                    if payload is None:
                        payload = change(rid, self.read(rid))
                    self.update(rid, payload)
                    free = page.total_free()
                self._write_images(page, page_no, images)

    def _write_images(self, page: Page, page_no: int,
                      images: dict[int, bytes]) -> None:
        if images:
            self.pool.writable(self.file_id, page_no)
            page.replace(images)
            self.pool.mark_dirty(self.file_id, page_no)
            self._free_space[page_no] = page.total_free()

    def in_place(self) -> "_InPlace":
        """``with heap.in_place() as records``: overwrite bytes inside
        records where they lie, one pin per page (see :class:`_InPlace`)."""
        return _InPlace(self)

    def delete(self, rid: RID) -> None:
        """Remove the record (chunks and relocated payload included)."""
        page_no, slot = rid
        with self.pool.page(self.file_id, page_no) as page:
            raw = page.read(slot)
            if raw[0] != _FORWARD:
                _check_home(rid, raw[0], raw[1])
            self.pool.writable(self.file_id, page_no)
            page.delete(slot)
            self.pool.mark_dirty(self.file_id, page_no)
            self._free_space[page_no] = page.total_free()
        if raw[0] == _FORWARD:
            target = _rid_unpack(raw[1:])
            traw = self._read_raw(target)
            self._free_payload(traw[1:])
            self._delete_slot(target)
        else:
            self._free_payload(raw[1:])

    def exists(self, rid: RID) -> bool:
        """Whether ``rid`` addresses a live record."""
        try:
            self.read(rid)
            return True
        except RecordNotFoundError:
            return False

    def scan(self, readahead: int = 0) -> Iterator[tuple[RID, bytes]]:
        """Yield ``(rid, payload)`` in physical order (see
        :meth:`scan_sliced`)."""
        return self.scan_sliced(_payload, readahead)

    def scan_sliced(self, slice_: Callable,
                    readahead: int = 0) -> Iterator[tuple[RID, object]]:
        """Yield ``(rid, slice_(data, start, end))`` for every record, in
        physical order, where ``data[start:end]`` is the record's payload
        (see :meth:`read_sliced`).

        Records are reported under their *home* rid, fully assembled;
        parked payloads and overflow chunks are skipped where they live.
        Each page is pinned once and its plain records are sliced under
        that pin; no pin is held while the caller has a record.  A record
        behind a forward stub is read after the page is let go, by
        :meth:`read_sliced`, and a chunked one assembled then, so the pages
        pinned are those a scan that copied each page's records out and
        read the others one by one would pin, in the same order.

        ``readahead > 0`` prefetches the next window of pages into
        unpinned frames before the cursor reaches them (best effort; the
        pool's eviction guard keeps read-ahead from displacing pinned or
        same-window pages).  Physical reads per scan are unchanged -- only
        their ordering moves ahead of demand -- so only set-oriented
        callers opt in.
        """
        total = self.num_pages()
        for page_no in range(total):
            if readahead > 0 and page_no % readahead == 0:
                # strictly *ahead*: the current page stays a demand fetch
                # (a miss when cold), the next window arrives behind it
                self.pool.prefetch(
                    self.file_id,
                    range(page_no + 1, min(page_no + 1 + readahead, total)),
                )
            # (slot, kind, item): a plain record's slice, made under the
            # pin, or what is left once the page is let go -- a forward
            # stub to follow, or the body of a chunked record
            entries = []
            with self.pool.page(self.file_id, page_no) as page:
                data = page.data
                for slot, offset, length in page.live_spans():
                    marker = data[offset]
                    if marker == _MOVED:
                        continue
                    if marker == _FORWARD:
                        entries.append((slot, "follow", None))
                        continue
                    wrapper = data[offset + 1]
                    if wrapper == _PLAIN:
                        entries.append((slot, "sliced", slice_(
                            data, offset + 2, offset + length)))
                    elif wrapper != _CHUNK:
                        entries.append((slot, "assemble",
                                        bytes(data[offset + 1:offset + length])))
            for slot, kind, item in entries:
                rid = (page_no, slot)
                if kind == "follow":
                    item = self.read_sliced(rid, slice_)
                elif kind == "assemble":
                    payload = self._unwrap(item)
                    item = slice_(payload, 0, len(payload))
                yield rid, item

    def num_pages(self) -> int:
        """Pages currently allocated to this file."""
        return self.pool.disk.num_pages(self.file_id)

    def count(self) -> int:
        """Number of live records (a full scan)."""
        return sum(1 for __ in self.scan())

    def for_each_page(self, fn: Callable[[int, Page], None]) -> None:
        """Run ``fn(page_no, page)`` over every page, pinned one at a time."""
        for page_no in range(self.num_pages()):
            with self.pool.page(self.file_id, page_no) as page:
                fn(page_no, page)

    # -- payload wrapping (large records) --------------------------------

    def _wrap(self, payload: bytes) -> bytes:
        if len(payload) <= _INLINE_LIMIT:
            return bytes([_PLAIN]) + payload
        first = _NULL_RID
        # write chunks back to front so each can point at its successor
        for start in range(
            ((len(payload) - 1) // _CHUNK_PAYLOAD) * _CHUNK_PAYLOAD, -1, -_CHUNK_PAYLOAD
        ):
            chunk = payload[start:start + _CHUNK_PAYLOAD]
            body = _CHUNK_HEAD.pack(_CHUNK, *first) + chunk
            first = self._place(_NORMAL, body, avoid=None)
        return _LARGE_HEAD.pack(_LARGE, len(payload), *first)

    def _unwrap(self, body: bytes) -> bytes:
        wrapper = body[0]
        if wrapper == _PLAIN:
            return body[1:]
        if wrapper == _LARGE:
            __, total, page_no, slot = _LARGE_HEAD.unpack_from(body, 0)
            parts: list[bytes] = []
            rid: RID = (page_no, slot)
            while rid != _NULL_RID:
                raw = self._read_raw(rid)
                __w, npage, nslot = _CHUNK_HEAD.unpack_from(raw, 1)
                parts.append(raw[1 + _CHUNK_HEAD.size:])
                rid = (npage, nslot)
            data = b"".join(parts)
            if len(data) != total:
                raise RecordNotFoundError(
                    f"large record chain truncated ({len(data)} of {total} bytes)"
                )
            return data
        raise RecordNotFoundError("rid addresses an overflow chunk, not a record")

    def _free_payload(self, body: bytes) -> None:
        """Free the overflow chunks of a (wrapped) payload, if any."""
        if not body or body[0] != _LARGE:
            return
        __, __total, page_no, slot = _LARGE_HEAD.unpack_from(body, 0)
        rid: RID = (page_no, slot)
        while rid != _NULL_RID:
            raw = self._read_raw(rid)
            __w, npage, nslot = _CHUNK_HEAD.unpack_from(raw, 1)
            self._delete_slot(rid)
            rid = (npage, nslot)

    # -- placement / relocation ---------------------------------------------

    def _place(self, marker: int, body: bytes, avoid: int | None) -> RID:
        record = bytes([marker]) + body
        page_no = self._find_page_with_room(len(record), avoid=avoid)
        with self.pool.page(self.file_id, page_no) as page:
            self.pool.writable(self.file_id, page_no)
            slot = page.insert(record)
            self.pool.mark_dirty(self.file_id, page_no)
            self._free_space[page_no] = page.total_free()
        return (page_no, slot)

    def _update_at(self, rid: RID, marker: int, payload: bytes, home: RID) -> None:
        """Write a fresh payload at ``rid``, relocating if it cannot fit."""
        body = self._wrap(payload)
        with self.pool.page(self.file_id, rid[0]) as page:
            if self._rewrite(page, rid, bytes([marker]) + body):
                return
        # Relocate: park the payload elsewhere, stub at home.
        if rid != home:
            self._delete_slot(rid)
        target = self._place(_MOVED, body, avoid=home[0])
        hpage, hslot = home
        with self.pool.page(self.file_id, hpage) as page:
            self.pool.writable(self.file_id, hpage)
            page.update(hslot, bytes([_FORWARD]) + _rid_pack(target))
            self.pool.mark_dirty(self.file_id, hpage)
            self._free_space[hpage] = page.total_free()

    def _rewrite(self, page: Page, rid: RID, record: bytes) -> bool:
        """Replace the record at ``rid`` on its pinned ``page``; False
        (and nothing changed) when the page cannot absorb the growth.
        A record of the same length is overwritten where it lies, so only
        its bytes changed; any other length changes the slot directory."""
        offset, length = page.span(rid[1])
        self.pool.writable(self.file_id, rid[0])
        try:
            page.update(rid[1], record)
        except PageFullError:
            return False
        self.pool.mark_dirty(self.file_id, rid[0],
                             (offset, length) if len(record) == length
                             else None)
        self._free_space[rid[0]] = page.total_free()
        return True

    # -- low-level helpers ----------------------------------------------------

    def _read_raw(self, rid: RID) -> bytes:
        page_no, slot = rid
        with self.pool.page(self.file_id, page_no) as page:
            return page.read(slot)

    def _delete_slot(self, rid: RID) -> None:
        page_no, slot = rid
        with self.pool.page(self.file_id, page_no) as page:
            self.pool.writable(self.file_id, page_no)
            page.delete(slot)
            self.pool.mark_dirty(self.file_id, page_no)
            self._free_space[page_no] = page.total_free()

    def _find_page_with_room(self, record_len: int, avoid: int | None = None) -> int:
        # Prefer the highest-numbered page with room: appends stay physically
        # clustered in insertion order, which the paper's file layouts assume.
        # The highest page is where an append lands in the common case, so
        # try it alone first before paying for the full descending scan.
        top = max(self._free_space, default=None)
        if top is not None and top != avoid \
                and self._free_space[top] >= record_len:
            with self.pool.page(self.file_id, top) as page:
                if page.has_room_for(record_len):
                    return top
                self._free_space[top] = page.total_free()
        for page_no in sorted(self._free_space, reverse=True):
            if page_no == avoid:
                continue
            # pre-filter only; has_room_for() is the exact check (a freed
            # slot entry may be reusable, so no slot-entry slack is added)
            if self._free_space[page_no] >= record_len:
                with self.pool.page(self.file_id, page_no) as page:
                    if page.has_room_for(record_len):
                        return page_no
                    self._free_space[page_no] = page.total_free()
        page_no, page = self.pool.new_page(self.file_id)
        self._free_space[page_no] = page.total_free()
        self.pool.unpin(self.file_id, page_no)
        return page_no

    def _rebuild_free_space(self) -> None:
        self._free_space.clear()
        for page_no in range(self.num_pages()):
            with self.pool.page(self.file_id, page_no) as page:
                self._free_space[page_no] = page.total_free()

    def installed(self, page_no: int, image) -> None:
        """Redo or rollback wrote ``image`` under the pool: its free-space
        entry is read off the image, with no pin."""
        self._free_space[page_no] = Page(image).total_free()

    def truncated(self, num_pages: int) -> None:
        """The pages from ``num_pages`` on were cut off the file."""
        for page_no in [p for p in self._free_space if p >= num_pages]:
            del self._free_space[page_no]


class _InPlace:
    """Overwrites bytes inside stored records where they lie.

    :meth:`payload` hands out a writable view of one record's payload on
    its pinned page; the caller assigns same-length slices of it and then
    calls :meth:`wrote` with the range of the view it changed.  The view
    ends where the payload ends and a slice assignment cannot change a
    length, so no byte outside the record is reachable and the slot
    directory, the record's length and the page's space accounting stay
    as they are.  The page is written by
    the ordinary ``pool.fetch`` -> ``pool.writable`` -> mutate ->
    ``pool.mark_dirty`` sequence (the view is handed out only after the
    page was declared writable, which is when the WAL takes its
    before-image), and each :meth:`wrote` reports that range, moved to
    where the payload lies in the page, as the span changed: the bytes
    the caller wrote, not the record.

    One page is pinned at a time.  It stays pinned across consecutive
    records that lie on it, so record ids taken in page order cost one
    pin per home page.  Following a forward stub lets go of the home page
    and pins the page the payload was moved to: a stub costs two pins,
    and the pool sees the pages one :meth:`HeapFile.read` per record
    would touch, in that order, less the immediate repeats -- so the same
    frames are evicted.  :meth:`release` unpins early, for a caller that
    is about to touch other pages.
    """

    __slots__ = ("_heap", "_page_no", "_page", "_payload_at")

    def __init__(self, heap: HeapFile) -> None:
        self._heap = heap
        self._page_no: int | None = None  # the page this cursor pins
        self._page: Page | None = None
        #: where in the page the payload last handed out starts
        self._payload_at: int | None = None

    def __enter__(self) -> "_InPlace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def payload(self, rid: RID) -> memoryview | None:
        """The payload of the record at ``rid`` as a writable view, valid
        until the next call on this cursor -- or ``None`` for a record
        stored in chunks, which has no one place to overwrite."""
        page = self._pin(rid[0])
        offset, length = page.span(rid[1])
        if page.data[offset] == _FORWARD:
            target = _rid_unpack(page.data, offset + 1)
            page = self._pin(target[0])
            offset, length = page.span(target[1])
            if page.data[offset] != _MOVED:
                raise RecordNotFoundError(f"dangling forward stub at {rid}")
        else:
            _check_home(rid, page.data[offset], page.data[offset + 1])
        if page.data[offset + 1] != _PLAIN:
            return None
        self._heap.pool.writable(self._heap.file_id, self._page_no)
        self._payload_at = offset + 2
        return memoryview(page.data)[offset + 2:offset + length]

    def wrote(self, start: int, length: int) -> None:
        """The ``length`` bytes from ``start`` of the view :meth:`payload`
        last returned were written to."""
        self._heap.pool.mark_dirty(self._heap.file_id, self._page_no,
                                   (self._payload_at + start, length))

    def release(self) -> None:
        """Unpin the page this cursor holds, if any."""
        if self._page_no is not None:
            self._heap.pool.unpin(self._heap.file_id, self._page_no)
            self._page_no = self._page = None

    def _pin(self, page_no: int) -> Page:
        if page_no != self._page_no:
            self.release()
            self._page = self._heap.pool.fetch(self._heap.file_id, page_no)
            self._page_no = page_no
        return self._page


def _payload(data, start: int, end: int) -> bytes:
    """The slice :meth:`HeapFile.read` makes: the payload's bytes."""
    return bytes(data[start:end])


def _check_home(rid: RID, marker: int, wrapper: int) -> None:
    """Refuse a home rid whose slot holds no record of its own.  A slot a
    deleted record freed can take a payload parked there by a relocation
    (``MOVED``) or a chunk of a large record; a stale rid that names it
    must not read, change or free what another record owns."""
    if marker == _MOVED:
        raise RecordNotFoundError(
            f"rid {rid} addresses a relocated payload, not a record")
    if wrapper == _CHUNK:
        raise RecordNotFoundError("rid addresses an overflow chunk, not a record")


def _rid_pack(rid: RID) -> bytes:
    return _FWD.pack(rid[0], rid[1])


def _rid_unpack(data, offset: int = 0) -> RID:
    page_no, slot = _FWD.unpack_from(data, offset)
    return (page_no, slot)
