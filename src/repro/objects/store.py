"""The object store: typed CRUD over heap files.

An :class:`ObjectStore` sits between the storage manager and the set layer:
it encodes/decodes objects, turns heap-file record ids into physically
based OIDs (``file_id`` + record id), and resolves OID dereferences --
the primitive underneath every *functional join*.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DanglingReferenceError, RecordNotFoundError
from repro.objects.encoding import decode_object, encode_object
from repro.objects.instance import StoredObject
from repro.objects.registry import TypeRegistry
from repro.storage.heapfile import HeapFile
from repro.storage.manager import StorageManager
from repro.storage.oid import OID
from repro.storage.page import Page


class ObjectStore:
    """Typed object persistence over a :class:`StorageManager`."""

    def __init__(self, storage: StorageManager, registry: TypeRegistry) -> None:
        self.storage = storage
        self.registry = registry

    # -- CRUD -----------------------------------------------------------

    def insert(self, heap: HeapFile, obj: StoredObject) -> OID:
        """Store a new object; returns its (stable) OID."""
        rid = heap.insert(encode_object(self.registry, obj))
        return OID(heap.file_id, rid[0], rid[1])

    def read(self, oid: OID, page: Page | None = None,
             fields=None) -> StoredObject:
        """Dereference an OID.

        Raises :class:`DanglingReferenceError` when the OID does not name a
        live object -- the error a functional join would surface on a
        violated reference.  ``page`` is the OID's home page when the
        caller already holds it pinned (no pin is taken then); ``fields``
        projects the decode (see :func:`decode_object`).
        """
        heap = self.storage.file_by_id(oid.file_id)
        rid = (oid.page_no, oid.slot)
        try:
            raw = heap.read(rid) if page is None \
                else heap.read_pinned(page, rid)
        except RecordNotFoundError:
            raise DanglingReferenceError(f"dangling reference {oid}") from None
        return decode_object(self.registry, raw, fields)

    def update(self, oid: OID, obj: StoredObject) -> None:
        """Overwrite the object at ``oid`` (relocation is transparent)."""
        heap = self.storage.file_by_id(oid.file_id)
        try:
            heap.update((oid.page_no, oid.slot), encode_object(self.registry, obj))
        except RecordNotFoundError:
            raise DanglingReferenceError(f"dangling reference {oid}") from None

    def delete(self, oid: OID) -> None:
        """Remove the object at ``oid``."""
        heap = self.storage.file_by_id(oid.file_id)
        try:
            heap.delete((oid.page_no, oid.slot))
        except RecordNotFoundError:
            raise DanglingReferenceError(f"dangling reference {oid}") from None

    def exists(self, oid: OID) -> bool:
        """Whether the OID names a live object."""
        heap = self.storage.file_by_id(oid.file_id)
        return heap.exists((oid.page_no, oid.slot))

    def read_many(self, oids, fields=None) -> dict[OID, StoredObject]:
        """Resolve many OIDs in one ordered sweep (the batched join's hop).

        The probe list is sorted by ``(file_id, page_no, slot)`` and
        deduplicated -- each distinct object is read exactly once, in page
        order, so a page is pinned once per sweep instead of once per
        referencer.  Duplicates avoided are charged to the shared
        ``batch_dedup_saved`` counter.  Page runs are group-fetched
        (pinned) through :meth:`BufferPool.fetch_many` and every record of
        a run is decoded straight from its pinned page; records relocated
        by forward stubs (or chunked) pin what else they need and cannot
        evict the run mid-sweep.  Tiny pools skip the pinning rather than
        starve other fetches.  ``fields`` projects the decode.
        """
        probes = list(oids)
        unique = sorted(set(probes),
                        key=lambda o: (o.file_id, o.page_no, o.slot))
        self.storage.stats.count_batch_dedup(len(probes) - len(unique))
        pool = self.storage.pool
        # pages per pinned run: leave at least half the pool for forward
        # stubs / overflow chunks; pools under 4 frames skip pinning
        run_pages = min(16, pool.capacity // 2)
        out: dict[OID, StoredObject] = {}
        start = 0
        while start < len(unique):
            run: list[OID] = []
            pages: list[tuple[int, int]] = []
            for oid in unique[start:]:
                key = (oid.file_id, oid.page_no)
                if not pages or pages[-1] != key:
                    if len(pages) >= max(1, run_pages):
                        break
                    pages.append(key)
                run.append(oid)
            start += len(run)
            group = pool.fetch_many(pages) if run_pages >= 1 else {}
            try:
                for oid in run:
                    out[oid] = self.read(
                        oid, group.get((oid.file_id, oid.page_no)), fields)
            finally:
                pool.unpin_many(group)
        return out

    # -- scans ------------------------------------------------------------

    def scan(self, heap: HeapFile, readahead: int = 0,
             fields=None) -> Iterator[tuple[OID, StoredObject]]:
        """Yield ``(oid, object)`` in physical order (``fields`` projects
        the decode)."""
        for rid, raw in heap.scan(readahead=readahead):
            yield (OID(heap.file_id, rid[0], rid[1]),
                   decode_object(self.registry, raw, fields))

    # -- path navigation ----------------------------------------------------

    def follow(self, obj: StoredObject, ref_name: str) -> StoredObject | None:
        """One functional-join step: dereference ``obj.ref_name``."""
        oid = obj.ref(ref_name)
        if oid is None:
            return None
        return self.read(oid)

    def traverse(self, obj: StoredObject, path: list[str]) -> StoredObject | None:
        """Follow a chain of reference attributes from ``obj``.

        ``path`` names only the reference attributes; the terminal data
        field, if any, is the caller's business.  Returns None as soon as a
        null reference is met.
        """
        current: StoredObject | None = obj
        for ref_name in path:
            if current is None:
                return None
            current = self.follow(current, ref_name)
        return current
