"""The object store: typed CRUD over heap files.

An :class:`ObjectStore` sits between the storage manager and the set layer:
it encodes/decodes objects, turns heap-file record ids into physically
based OIDs (``file_id`` + record id), and resolves OID dereferences --
the primitive underneath every *functional join*.

Two ways to change stored objects: :meth:`ObjectStore.update` writes a
whole object back (decode, change, encode: the general path, which may
grow and relocate the record), and :meth:`ObjectStore.overwrite_fields`
sets fixed-width fields of many objects by overwriting their bytes where
they lie, one pin per page -- what an update propagation does to the *f*
referencers of a changed object.  :meth:`ObjectStore.update_many` is the
general path for many objects at a pin per page (``replicate`` widening a
loaded set).

A query reads a few fields of many objects: :meth:`ObjectStore.read_many`
and :meth:`ObjectStore.scan` given ``fields`` slice those fields' values
straight off each record's pinned page
(:func:`~repro.objects.encoding.projector`) and build no object.

A :class:`ReadMemo` is an OID -> object map for one read-only sweep
(``verify``, the doctor): each object it is asked for is decoded once.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.errors import DanglingReferenceError, RecordNotFoundError
from repro.objects.encoding import (
    _decode_value,
    decode_object,
    encode_fields,
    encode_object,
    projector,
    value_section,
)
from repro.objects.instance import StoredObject
from repro.objects.registry import TypeRegistry
from repro.objects.types import TypeDefinition
from repro.storage.heapfile import HeapFile
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


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

    def insert_many(self, heap: HeapFile, objs) -> list[OID]:
        """Store new objects where a loop of :meth:`insert` would put them
        (:meth:`HeapFile.insert_many`); returns their OIDs in order."""
        rids = heap.insert_many([encode_object(self.registry, obj)
                                 for obj in objs])
        return [OID(heap.file_id, page_no, slot) for page_no, slot in rids]

    def read(self, oid: OID) -> StoredObject:
        """Dereference an OID.

        Raises :class:`DanglingReferenceError` when the OID does not name a
        live object -- the error a functional join would surface on a
        violated reference.
        """
        heap = self.storage.file_by_id(oid.file_id)
        try:
            raw = heap.read((oid.page_no, oid.slot))
        except RecordNotFoundError:
            raise DanglingReferenceError(f"dangling reference {oid}") from None
        return decode_object(self.registry, raw)

    def update(self, oid: OID, obj: StoredObject) -> None:
        """Overwrite the object at ``oid`` (relocation is transparent)."""
        heap = self.storage.file_by_id(oid.file_id)
        try:
            heap.update((oid.page_no, oid.slot), encode_object(self.registry, obj))
        except RecordNotFoundError:
            raise DanglingReferenceError(f"dangling reference {oid}") from None

    def update_many(self, heap: HeapFile, oids, change) -> None:
        """Rewrite the objects of ``oids`` (in ``heap``, distinct) with
        ``change(oid, obj)``, which edits the decoded object in place:
        each object decoded from its pinned page and encoded once, and
        placed where a loop of :meth:`update` would place it (see
        :meth:`HeapFile.update_many`; ``oids`` in page order pin each page
        once)."""
        registry, file_id = self.registry, heap.file_id

        def rewrite(rid, payload: bytes) -> bytes:
            obj = decode_object(registry, payload)
            change(OID(file_id, rid[0], rid[1]), obj)
            return encode_object(registry, obj)

        try:
            heap.update_many(((oid.page_no, oid.slot) for oid in oids), rewrite)
        except RecordNotFoundError:
            raise DanglingReferenceError("dangling reference in a bulk "
                                         "rewrite") from None

    def overwrite_fields(self, heap: HeapFile, type_def: TypeDefinition,
                         oids, changes: dict[str, object], general,
                         indexes=()) -> int:
        """Set ``changes`` (field name -> value) in every object of
        ``oids`` by overwriting those fields' bytes where they lie.

        ``oids`` name objects in ``heap`` laid out by ``type_def``, the
        set's current type, and should arrive in page order: a home page
        is pinned once for the consecutive objects on it and an object
        behind a forward stub costs one more pin (see
        :meth:`HeapFile.in_place`).  Each value is kind-checked and
        encoded once, before the first page is pinned, so a value that
        cannot be stored touches nothing.  Per object the 20-byte header
        is read for the type tag and the two entry counts, which give
        where the values start; nothing is decoded and nothing re-encoded.
        Each object logs one redo span: from the first changed field's
        first byte to the last changed field's last, not the record.

        An object that cannot be overwritten where it lies -- stored in
        chunks, of another type, or written before a widening and so
        shorter than the layout -- goes to ``general(oid)``, the decode
        -> set -> encode path, there and then, with no page pinned.

        ``indexes`` holds a ``(field name, index)`` pair per index on a
        changed field.  The old value of such a field (that field alone)
        is decoded and ``index.update(old, new, oid)`` runs with no page
        pinned, between a read and the write of the object's page --
        where the general path has it -- so index maintenance never meets
        a pinned page.

        Returns the number of home pages visited.  Never holds more than
        one pin.
        """
        tag = self.registry.tag_of(type_def.name)
        fields = encode_fields(type_def, changes)
        first = min(offset for __, offset, __ in fields)
        width = max(offset + len(data) for __, offset, data in fields) - first
        indexed = [(fdef, offset, index, changes[name])
                   for fdef, offset, __ in fields
                   for name, index in indexes if name == fdef.name]
        pages = 0
        home = None
        with heap.in_place() as records:

            def payload(oid: OID):
                try:
                    return records.payload((oid.page_no, oid.slot))
                except RecordNotFoundError:
                    raise DanglingReferenceError(
                        f"dangling reference {oid}") from None

            for oid in oids:
                if oid.page_no != home:
                    home = oid.page_no
                    pages += 1
                view = payload(oid)
                base = (None if view is None
                        else value_section(view, tag, type_def))
                if base is None:
                    records.release()
                    general(oid)
                    continue
                if indexed:
                    olds = [_decode_value(fdef, bytes(
                        view[base + offset:base + offset + fdef.width]), 0)
                        for fdef, offset, __, __ in indexed]
                    records.release()
                    for (__, __, index, value), old in zip(indexed, olds):
                        index.update(old, value, oid)
                    view = payload(oid)
                for __, offset, data in fields:
                    view[base + offset:base + offset + len(data)] = data
                records.wrote(base + first, width)
        return pages

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

    def read_many(self, oids, fields=None) -> dict[OID, object]:
        """Resolve many OIDs in one ordered sweep (the batched join's hop):
        OID -> object, or with ``fields`` (field names) OID -> the tuple of
        those fields' values, the projected read (:func:`projector`).

        The probe list is sorted by ``(file_id, page_no, slot)`` and
        deduplicated -- each distinct object is read exactly once, in page
        order, so a page is pinned once per sweep instead of once per
        referencer.  Duplicates avoided are charged to the shared
        ``batch_dedup_saved`` counter.  Page runs are group-fetched
        (pinned) through :meth:`BufferPool.fetch_many` and every record of
        a run is read straight off its pinned page
        (:meth:`HeapFile.read_sliced`); a record behind a forward stub
        takes the pins :meth:`HeapFile.read` takes, on pages the run leaves
        room for, and a projected one is sliced on the page it was moved
        to.  A 1-frame pool pins no run.
        """
        probes = list(oids)
        unique = sorted(set(probes))
        self.storage.stats.count_batch_dedup(len(probes) - len(unique))
        slice_ = self._slicer(fields)
        pool = self.storage.pool
        # pages per pinned run: leave at least half the pool for forward
        # stubs and overflow chunks; a 1-frame pool skips pinning
        run_pages = min(16, pool.capacity // 2)
        out: dict[OID, object] = {}
        file_id = None
        start = 0
        while start < len(unique):
            # the next run: the OIDs on at most max(1, run_pages) pages
            pages: list[tuple[int, int]] = []
            end = start
            for oid in islice(unique, start, None):
                key = (oid.file_id, oid.page_no)
                if not pages or pages[-1] != key:
                    if len(pages) >= max(1, run_pages):
                        break
                    pages.append(key)
                end += 1
            group = pool.fetch_many(pages) if run_pages >= 1 else {}
            try:
                page_no = None
                for oid in unique[start:end]:
                    if oid.file_id != file_id:
                        file_id, page_no = oid.file_id, None
                        read_sliced = self.storage.file_by_id(file_id).read_sliced
                    if oid.page_no != page_no:
                        page_no = oid.page_no
                        page = group.get((file_id, page_no))
                    out[oid] = read_sliced((page_no, oid.slot), slice_, page)
            except RecordNotFoundError:
                raise DanglingReferenceError(
                    f"dangling reference {oid}") from None
            finally:
                pool.unpin_many(group)
            start = end
        return out

    # -- scans ------------------------------------------------------------

    def scan(self, heap: HeapFile, readahead: int = 0,
             fields=None) -> Iterator[tuple[OID, object]]:
        """Yield ``(oid, object)`` in physical order -- or with ``fields``,
        ``(oid, values)``: each record's projection sliced off its pinned
        page (see :meth:`read_many`)."""
        file_id = heap.file_id
        if fields is None:
            for rid, raw in heap.scan(readahead=readahead):
                yield (OID(file_id, rid[0], rid[1]),
                       decode_object(self.registry, raw))
            return
        for rid, values in heap.scan_sliced(self._slicer(fields), readahead):
            yield OID(file_id, rid[0], rid[1]), values

    def _slicer(self, fields):
        """What a read makes of a record's payload: the projection of
        ``fields``, or without them the whole object."""
        if fields is not None:
            return projector(self.registry, fields)
        registry = self.registry
        return lambda data, start, end: decode_object(registry, data[start:end])

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
        return _traverse(self.read, obj, path)


class ReadMemo:
    """An OID -> object map for one read-only sweep over a store (a
    ``verify``, a doctor pass): :meth:`read` decodes each object once,
    however many referencers reach it, and :meth:`exists` asks the store
    once per OID.

    The objects it hands out are shared, so a caller must not change
    them, and must :meth:`drop` the memo before it writes anything; from
    then on every call goes to the store.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self._objects: dict[OID, StoredObject] | None = {}
        self._exists: dict[OID, bool] = {}

    def read(self, oid: OID) -> StoredObject:
        """:meth:`ObjectStore.read`, once per OID."""
        if self._objects is None:
            return self.store.read(oid)
        obj = self._objects.get(oid)
        if obj is None:
            obj = self._objects[oid] = self.store.read(oid)
        return obj

    def exists(self, oid: OID) -> bool:
        """:meth:`ObjectStore.exists`, once per OID."""
        if self._objects is None:
            return self.store.exists(oid)
        if oid in self._objects:
            return True
        known = self._exists.get(oid)
        if known is None:
            known = self._exists[oid] = self.store.exists(oid)
        return known

    def current(self, oid: OID, obj: StoredObject) -> StoredObject:
        """The object at ``oid``, given ``obj`` as this sweep read it
        there: ``obj`` itself until the memo is dropped (nothing written
        since), a fresh read after."""
        return obj if self._objects is not None else self.store.read(oid)

    def traverse(self, obj: StoredObject, path: list[str]) -> StoredObject | None:
        """:meth:`ObjectStore.traverse` through :meth:`read`."""
        return _traverse(self.read, obj, path)

    def drop(self) -> None:
        """Forget every object; later calls go to the store."""
        self._objects = None
        self._exists = {}


def _traverse(read, obj: StoredObject, path) -> StoredObject | None:
    current: StoredObject | None = obj
    for ref_name in path:
        if current is None:
            return None
        oid = current.ref(ref_name)
        current = None if oid is None else read(oid)
    return current
