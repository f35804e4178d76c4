"""Slotted pages.

A page is a fixed-size ``bytearray`` organised as::

    +-----------+---------------------------+---------------------+
    | header 8B | record data (grows ->)    | <- slot directory   |
    +-----------+---------------------------+---------------------+

Header: ``num_slots`` (2 bytes) and ``free_offset`` (2 bytes, the end of the
used data region), plus 4 reserved bytes.  Slot-directory entries are 4
bytes -- ``(offset, length)`` -- and grow backwards from the end of the
page.  A slot whose offset is :data:`EMPTY_SLOT_OFFSET` is free and may be
reused, which keeps slot numbers (and hence physically based OIDs) stable
across deletions.

Deletions leave holes in the data region; :meth:`Page.insert` compacts the
page transparently when the contiguous free region is too small but the
total free space suffices.  :meth:`Page.append` stores a run of records
the way a loop of :meth:`Page.insert` would while that loop would only
append -- no free slot to reuse, no compaction -- at one header write for
the run.  :meth:`Page.replace` rewrites several records as a loop of
:meth:`Page.update` would, with at most one compaction for all of them.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import PageFullError, RecordNotFoundError, RecordTooLargeError
from repro.storage.constants import (
    EMPTY_SLOT_OFFSET,
    MAX_RECORD_BYTES,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    SLOT_ENTRY_BYTES,
)

_HEADER = struct.Struct(">HH4x")
_SLOT = struct.Struct(">HH")
_NUM_SLOTS = struct.Struct(">H")


class Page:
    """An in-memory image of one slotted disk page.

    Records go in one at a time through :meth:`insert`, which reuses a
    free slot and compacts as needed, or as a run through :meth:`append`,
    which places them where those inserts would while no slot is free and
    no compaction is needed.
    """

    __slots__ = ("data", "_live_bytes", "_free_slots")

    def __init__(self, data: bytearray | None = None) -> None:
        if data is None:
            data = bytearray(PAGE_SIZE)
            _HEADER.pack_into(data, 0, 0, PAGE_HEADER_BYTES)
        elif len(data) != PAGE_SIZE:
            raise ValueError(f"page image must be {PAGE_SIZE} bytes, got {len(data)}")
        self.data = data
        # Space accounting (live record bytes, free slot-directory entries)
        # is cached on the wrapper and maintained incrementally: computing
        # it from the slot directory on every insert made record placement
        # quadratic in page fill.  Lazily rebuilt from the image on first
        # use, so wrappers around non-slotted pages (B-tree nodes) never
        # pay for it.
        self._live_bytes: int | None = None
        self._free_slots = 0

    def _ensure_space_cache(self) -> None:
        if self._live_bytes is None:
            live = free = 0
            for offset, length in self._slots():
                if offset == EMPTY_SLOT_OFFSET:
                    free += 1
                else:
                    live += length
            self._live_bytes = live
            self._free_slots = free

    # -- header accessors ---------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Number of slot-directory entries (live or free)."""
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def free_offset(self) -> int:
        """Offset one past the end of the used data region."""
        return _HEADER.unpack_from(self.data, 0)[1]

    def _set_header(self, num_slots: int, free_offset: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, free_offset)

    # -- slot directory -----------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return PAGE_SIZE - (slot + 1) * SLOT_ENTRY_BYTES

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.num_slots:
            raise RecordNotFoundError(f"slot {slot} out of range (page has {self.num_slots})")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    # -- space accounting ---------------------------------------------------

    def contiguous_free(self) -> int:
        """Bytes available between the data region and the slot directory."""
        return PAGE_SIZE - self.free_offset - self.num_slots * SLOT_ENTRY_BYTES

    def total_free(self) -> int:
        """Free bytes counting holes left by deleted / shrunken records."""
        self._ensure_space_cache()
        return (PAGE_SIZE - PAGE_HEADER_BYTES - self._live_bytes
                - self.num_slots * SLOT_ENTRY_BYTES)

    def _slots(self) -> Iterator[tuple[int, int]]:
        for slot in range(self.num_slots):
            yield _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _find_free_slot(self) -> int | None:
        self._ensure_space_cache()
        if self._free_slots == 0:
            return None
        for slot, (offset, _length) in enumerate(self._slots()):
            if offset == EMPTY_SLOT_OFFSET:
                return slot
        return None

    def has_room_for(self, length: int) -> bool:
        """Whether a record of ``length`` bytes can be inserted (after
        compaction if needed)."""
        need = length if self._find_free_slot() is not None else length + SLOT_ENTRY_BYTES
        return self.total_free() >= need

    # -- record operations --------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store ``record`` and return its slot number.

        Raises :class:`PageFullError` when the page cannot hold the record
        and :class:`RecordTooLargeError` when no page ever could.
        """
        if len(record) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"record of {len(record)} bytes exceeds page capacity {MAX_RECORD_BYTES}"
            )
        length = len(record)
        reuse = self._find_free_slot()
        need = length + (0 if reuse is not None else SLOT_ENTRY_BYTES)
        num_slots, offset = _HEADER.unpack_from(self.data, 0)
        if PAGE_SIZE - offset - num_slots * SLOT_ENTRY_BYTES < need:
            if self.total_free() < need:
                raise PageFullError(f"no room for {length}-byte record")
            self.compact()
            offset = self.free_offset
        self.data[offset:offset + length] = record
        if reuse is not None:
            slot = reuse
            self._free_slots -= 1
        else:
            slot = num_slots
            num_slots += 1
        self._set_header(num_slots, offset + length)
        self._write_slot(slot, offset, length)
        self._live_bytes += length
        return slot

    def append(self, records, start: int = 0) -> range:
        """Store ``records[start:]`` one after another in the contiguous
        free region, each under the next new slot, and stop at the first
        record that does not fit there; returns the slots given, in order.

        The records, slots and bytes are those a loop of :meth:`insert`
        would produce: on a page with no free slot to reuse, ``insert``
        places a record that fits the contiguous region exactly here.  A
        page with a free slot takes nothing (``insert`` would reuse the
        slot), and neither does a record that only fits after compaction.
        """
        self._ensure_space_cache()
        num_slots, offset = _HEADER.unpack_from(self.data, 0)
        if self._free_slots:
            return range(num_slots, num_slots)
        data = self.data
        first = offset
        # where the next record's slot entry goes; a record fits while its
        # bytes end at or before that entry
        entry_pos = PAGE_SIZE - (num_slots + 1) * SLOT_ENTRY_BYTES
        index = start
        while index < len(records):
            record = records[index]
            end = offset + len(record)
            if end > entry_pos:
                break
            data[offset:end] = record
            _SLOT.pack_into(data, entry_pos, offset, end - offset)
            offset = end
            entry_pos -= SLOT_ENTRY_BYTES
            index += 1
        appended = index - start
        self._set_header(num_slots + appended, offset)
        self._live_bytes += offset - first
        return range(num_slots, num_slots + appended)

    def span(self, slot: int) -> tuple[int, int]:
        """``(offset, length)`` of the record stored in ``slot``: where in
        :attr:`data` it lies.  A caller that overwrites bytes inside that
        extent, and nowhere else, leaves the slot directory and the space
        accounting as they are."""
        data = self.data
        num_slots = _NUM_SLOTS.unpack_from(data, 0)[0]
        if not 0 <= slot < num_slots:
            raise RecordNotFoundError(
                f"slot {slot} out of range (page has {num_slots})")
        offset, length = _SLOT.unpack_from(
            data, PAGE_SIZE - (slot + 1) * SLOT_ENTRY_BYTES)
        if offset == EMPTY_SLOT_OFFSET:
            raise RecordNotFoundError(f"slot {slot} is empty")
        return offset, length

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``."""
        offset, length = self.span(slot)
        return bytes(self.data[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Free ``slot``.  The slot number may be reused by later inserts.

        Trailing empty slots are reclaimed outright (their directory bytes
        return to the free pool); interior slot numbers stay allocated so
        record ids remain stable.
        """
        offset, length = self._read_slot(slot)
        if offset == EMPTY_SLOT_OFFSET:
            raise RecordNotFoundError(f"slot {slot} is already empty")
        self._ensure_space_cache()
        self._write_slot(slot, EMPTY_SLOT_OFFSET, 0)
        self._live_bytes -= length
        self._free_slots += 1
        num_slots = self.num_slots
        while num_slots > 0 and self._read_slot(num_slots - 1)[0] == EMPTY_SLOT_OFFSET:
            num_slots -= 1
        if num_slots != self.num_slots:
            self._free_slots -= self.num_slots - num_slots
            self._set_header(num_slots, self.free_offset)

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot``, keeping the slot number stable.

        Raises :class:`PageFullError` if the page cannot absorb the growth;
        callers (the heap file) then relocate the record elsewhere.
        """
        offset, length = self._read_slot(slot)
        if offset == EMPTY_SLOT_OFFSET:
            raise RecordNotFoundError(f"slot {slot} is empty")
        self._ensure_space_cache()
        if len(record) <= length:
            self.data[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            self._live_bytes += len(record) - length
            return
        if len(record) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"record of {len(record)} bytes exceeds page capacity {MAX_RECORD_BYTES}"
            )
        # Grow: free the old image, then place the new one like an insert
        # that reuses this exact slot.
        self._write_slot(slot, EMPTY_SLOT_OFFSET, 0)
        self._live_bytes -= length
        if self.contiguous_free() < len(record):
            if self.total_free() < len(record):
                # roll back so the caller still sees the old record
                self._write_slot(slot, offset, length)
                self._live_bytes += length
                raise PageFullError(f"cannot grow record in slot {slot} to {len(record)} bytes")
            self.compact()
        new_offset = self.free_offset
        self.data[new_offset:new_offset + len(record)] = record
        self._write_slot(slot, new_offset, len(record))
        self._set_header(self.num_slots, new_offset + len(record))
        self._live_bytes += len(record)

    def replace(self, images: dict[int, bytes]) -> None:
        """Replace the records of several slots at once (``images``: slot
        -> new record), leaving the slot directory and the space
        accounting as a loop of :meth:`update` over them would, with at
        most one compaction instead of one per record that grows.

        Raises :class:`PageFullError`, and changes nothing, when the page
        cannot hold every new image.
        """
        self._ensure_space_cache()
        spans = {slot: self.span(slot) for slot in images}
        if max(map(len, images.values()), default=0) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"a record exceeds page capacity {MAX_RECORD_BYTES}")
        growth = sum(len(record) - spans[slot][1]
                     for slot, record in images.items())
        if growth > self.total_free():
            raise PageFullError(f"no room for {growth} more bytes")
        grown = []
        for slot, record in images.items():
            offset, length = spans[slot]
            self._live_bytes -= length
            if len(record) <= length:
                self.data[offset:offset + len(record)] = record
                self._write_slot(slot, offset, len(record))
                self._live_bytes += len(record)
            else:
                # free the old image first, as update() does
                self._write_slot(slot, EMPTY_SLOT_OFFSET, 0)
                grown.append((slot, record))
        if sum(len(record) for __, record in grown) > self.contiguous_free():
            self.compact()
        offset = self.free_offset
        for slot, record in grown:
            self.data[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            offset += len(record)
            self._live_bytes += len(record)
        self._set_header(self.num_slots, offset)

    def compact(self) -> None:
        """Squeeze out holes, preserving slot numbers."""
        live = [
            (slot, offset, length)
            for slot, (offset, length) in enumerate(self._slots())
            if offset != EMPTY_SLOT_OFFSET
        ]
        live.sort(key=lambda item: item[1])
        cursor = PAGE_HEADER_BYTES
        for slot, offset, length in live:
            if offset != cursor:
                self.data[cursor:cursor + length] = self.data[offset:offset + length]
                self._write_slot(slot, cursor, length)
            cursor += length
        self._set_header(self.num_slots, cursor)

    # -- iteration ----------------------------------------------------------

    def live_slots(self) -> Iterator[int]:
        """Yield the slot numbers currently holding records."""
        for slot, (offset, _length) in enumerate(self._slots()):
            if offset != EMPTY_SLOT_OFFSET:
                yield slot

    def live_spans(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(slot, offset, length)`` of every record, in slot order
        (see :meth:`span`)."""
        data = self.data
        for slot in range(_NUM_SLOTS.unpack_from(data, 0)[0]):
            offset, length = _SLOT.unpack_from(
                data, PAGE_SIZE - (slot + 1) * SLOT_ENTRY_BYTES)
            if offset != EMPTY_SLOT_OFFSET:
                yield slot, offset, length

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` pairs in slot order."""
        for slot in self.live_slots():
            yield slot, self.read(slot)
