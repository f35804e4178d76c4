"""Link objects (Section 4.1).

A *link object* implements one entry of an inverse mapping: for a
referenced object D it holds the sorted OIDs of the objects that reference
D across one link of an inverted path.  Link objects are stored in a
*separate file per link* so that they never disrupt the clustering of the
data sets (the paper stores them "in a separate set").

``replicate`` on a populated set writes each link object once, whole, in
the order of the OIDs of the objects that own them
(:meth:`LinkFile.create_many`), so a freshly built link file lies in the
physical order of its owners and holds no forward stub; a co-located file
(§4.3.2) holds one link's objects after the other's, each run in owner
order.  Incremental maintenance then grows and shrinks link objects where
they lie (:meth:`LinkFile.add` / :meth:`LinkFile.remove`) and appends new
ones, so that order decays with updates.

Record layout::

    owner OID (8) | entry count (4) | sorted entries...

Entries are 8-byte member OIDs for ordinary links, or 16-byte
``member OID | tag OID`` pairs for *collapsed* links (Section 4.3.3), where
the tag names the intermediate object a member arrived through.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ReplicationError
from repro.storage.heapfile import HeapFile
from repro.storage.oid import OID

_HEADER = struct.Struct(">8sI")


@dataclass
class LinkObject:
    """A decoded link object."""

    owner: OID
    #: sorted member OIDs, or sorted ``(member, tag)`` pairs when collapsed
    entries: list

    def is_empty(self) -> bool:
        return not self.entries


class LinkFile:
    """The storage set holding all link objects of one link."""

    def __init__(self, heap: HeapFile, collapsed: bool = False) -> None:
        self.heap = heap
        self.collapsed = collapsed
        self._entry_width = 16 if collapsed else 8

    # -- encoding ---------------------------------------------------------

    def _encode(self, link: LinkObject) -> bytes:
        parts = [_HEADER.pack(link.owner.pack(), len(link.entries))]
        for entry in link.entries:
            if self.collapsed:
                member, tag = entry
                parts.append(member.pack() + tag.pack())
            else:
                parts.append(entry.pack())
        return b"".join(parts)

    def _decode(self, raw: bytes) -> LinkObject:
        owner_raw, count = _HEADER.unpack_from(raw, 0)
        entries = []
        pos = _HEADER.size
        for __ in range(count):
            if self.collapsed:
                entries.append((OID.unpack(raw, pos), OID.unpack(raw, pos + 8)))
            else:
                entries.append(OID.unpack(raw, pos))
            pos += self._entry_width
        return LinkObject(OID.unpack(owner_raw), entries)

    # -- operations ---------------------------------------------------------

    def create(self, owner: OID, entries: list) -> OID:
        """Store a new link object; returns its (stable) link-OID."""
        return self.create_many([(owner, entries)])[0]

    def create_many(self, objects) -> list[OID]:
        """Store ``(owner, entries)`` link objects one after another, in
        the order given, each at its final size
        (:meth:`HeapFile.insert_many`); returns their link-OIDs."""
        rids = self.heap.insert_many([
            self._encode(LinkObject(owner, sorted(entries)))
            for owner, entries in objects])
        return [OID(self.heap.file_id, page_no, slot) for page_no, slot in rids]

    def read(self, link_oid: OID) -> LinkObject:
        """Load a link object by its OID."""
        self._check(link_oid)
        return self._decode(self.heap.read((link_oid.page_no, link_oid.slot)))

    def write(self, link_oid: OID, link: LinkObject) -> None:
        """Store back a modified link object (relocation is transparent)."""
        self._check(link_oid)
        self.heap.update((link_oid.page_no, link_oid.slot), self._encode(link))

    def delete(self, link_oid: OID) -> None:
        """Remove a link object."""
        self._check(link_oid)
        self.heap.delete((link_oid.page_no, link_oid.slot))

    def add(self, link_oid: OID, entry) -> bool:
        """Insert ``entry`` keeping sort order; returns False if present.

        The sorted order allows the binary-search deletion the paper calls
        for, and keeps propagation I/O clustered for physically based OIDs.
        """
        link = self.read(link_oid)
        idx = bisect.bisect_left(link.entries, entry)
        if idx < len(link.entries) and link.entries[idx] == entry:
            return False
        link.entries.insert(idx, entry)
        self.write(link_oid, link)
        return True

    def merge(self, link_oid: OID, entries) -> int:
        """Insert every entry of ``entries`` not yet present, with one read
        and (if any is new) one write; returns how many were new."""
        link = self.read(link_oid)
        new = set(entries).difference(link.entries)
        if new:
            link.entries = sorted(new.union(link.entries))
            self.write(link_oid, link)
        return len(new)

    def remove(self, link_oid: OID, entry) -> tuple[bool, bool]:
        """Binary-search removal; returns ``(removed, now_empty)``.

        The link object is *not* deleted here even when it empties -- the
        caller must also detach the owner's link entry, so it owns the
        whole cascade.
        """
        link = self.read(link_oid)
        idx = bisect.bisect_left(link.entries, entry)
        if idx >= len(link.entries) or link.entries[idx] != entry:
            return False, link.is_empty()
        del link.entries[idx]
        self.write(link_oid, link)
        return True, link.is_empty()

    def contains(self, link_oid: OID, entry) -> bool:
        """Binary-search membership test."""
        link = self.read(link_oid)
        idx = bisect.bisect_left(link.entries, entry)
        return idx < len(link.entries) and link.entries[idx] == entry

    def members(self, link_oid: OID) -> list:
        """The entries of one link object."""
        return self.read(link_oid).entries

    def scan(self) -> Iterator[tuple[OID, LinkObject]]:
        """All link objects in physical order."""
        for rid, raw in self.heap.scan():
            yield OID(self.heap.file_id, rid[0], rid[1]), self._decode(raw)

    def _check(self, link_oid: OID) -> None:
        if link_oid.file_id != self.heap.file_id:
            raise ReplicationError(
                f"link OID {link_oid} does not belong to link file {self.heap.file_id}"
            )
