"""Named top-level sets.

``create Emp1: {own ref EMP}`` creates a named set stored as one disk file
whose pages contain only the member objects (Section 2.2).  ``own ref``
means existence dependency: deleting the set deletes its members, but not
the objects they merely reference.

An :class:`ObjectSet` offers *raw* operations only -- no replication or
index maintenance happens here.  The :class:`~repro.schema.database.Database`
facade wraps these raw operations with replication propagation and index
upkeep; code that bypasses the facade is expected to know what it is doing
(bulk loaders do).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import FieldError
from repro.objects.instance import StoredObject
from repro.objects.store import ObjectStore
from repro.objects.types import TypeDefinition
from repro.storage.heapfile import HeapFile
from repro.storage.oid import OID


class ObjectSet:
    """A named set of objects of one type, stored as one disk file."""

    def __init__(self, name: str, type_name: str, store: ObjectStore, heap: HeapFile) -> None:
        self.name = name
        self.type_name = type_name
        self.store = store
        self.heap = heap

    @property
    def type_def(self) -> TypeDefinition:
        """The current (possibly replication-widened) member type."""
        return self.store.registry.get(self.type_name)

    @property
    def file_id(self) -> int:
        """The id of the backing disk file."""
        return self.heap.file_id

    # -- raw operations -------------------------------------------------

    def make_object(self, values: dict) -> StoredObject:
        """Build a member object, rejecting writes to hidden fields."""
        for name in values:
            if self.type_def.has_field(name) and self.type_def.field_def(name).hidden:
                raise FieldError(
                    f"field {name!r} of set {self.name!r} is replication-internal"
                )
        return StoredObject(self.type_def, dict(values))

    def raw_insert(self, obj: StoredObject) -> OID:
        """Store a member object (no replication / index upkeep)."""
        return self.store.insert(self.heap, obj)

    def read(self, oid: OID) -> StoredObject:
        """Dereference a member OID."""
        return self.store.read(oid)

    def raw_update(self, oid: OID, obj: StoredObject) -> None:
        """Overwrite a member object (no replication / index upkeep)."""
        self.store.update(oid, obj)

    def raw_delete(self, oid: OID) -> None:
        """Remove a member object (no replication / index upkeep)."""
        self.store.delete(oid)

    def contains(self, oid: OID) -> bool:
        """Whether ``oid`` names a live member of this set's file."""
        return oid.file_id == self.file_id and self.store.exists(oid)

    def scan(self, readahead: int = 0,
             fields=None) -> Iterator[tuple[OID, object]]:
        """Members in physical order (``readahead``: scan prefetch window;
        ``fields``: each member's values of these, as a tuple, instead of
        the member -- see :meth:`ObjectStore.scan`)."""
        return self.store.scan(self.heap, readahead=readahead, fields=fields)

    def count(self) -> int:
        """Number of members (a full scan)."""
        return sum(1 for __ in self.scan())

    def num_pages(self) -> int:
        """Pages of the backing file."""
        return self.heap.num_pages()
