"""In-memory representation of a stored object.

A :class:`StoredObject` carries the three sections of the on-disk layout:

* **field values** -- one Python value per field of the object's type
  (hidden replicated-value fields included),
* **link entries** -- the ``(link-OID, link-ID)`` pairs of Section 4.1.3
  that objects *along* a replication path carry so the system knows which
  updates to propagate and how,
* **replica entries** -- the per-source bookkeeping of separate replication
  (Section 5.2): the OID of the shared replica object, a reference count,
  and the id of the replication path it serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FieldError
from repro.objects.types import FieldKind, TypeDefinition
from repro.storage.oid import OID


#: High bit of the stored link-id byte: the entry is *inline* -- its OID is
#: the single referencer itself, not a link object (Section 4.3.1).
INLINE_LINK_FLAG = 0x80


@dataclass(frozen=True, slots=True)
class LinkEntry:
    """A ``(link-OID, link-ID)`` pair stored in an object on a path.

    When the §4.3.1 optimization applies, a link object holding a single
    OID is eliminated and that OID stored here directly; such an entry has
    :attr:`inline` set (the flag rides in the id byte's high bit) and its
    ``link_oid`` names the lone *referencer* rather than a link object.
    """

    link_oid: OID
    link_id: int

    @property
    def base_id(self) -> int:
        """The link id without the inline flag."""
        return self.link_id & ~INLINE_LINK_FLAG

    @property
    def inline(self) -> bool:
        """Whether this entry inlines its single referencer."""
        return bool(self.link_id & INLINE_LINK_FLAG)


@dataclass(frozen=True, slots=True)
class ReplicaEntry:
    """Separate-replication bookkeeping stored in a source object."""

    replica_oid: OID
    refcount: int
    path_id: int


@dataclass
class StoredObject:
    """One object: typed field values plus replication bookkeeping."""

    type_def: TypeDefinition
    values: dict[str, object]
    link_entries: list[LinkEntry] = field(default_factory=list)
    replica_entries: list[ReplicaEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate()

    @classmethod
    def trusted(cls, type_def: TypeDefinition, values: dict,
                link_entries: list, replica_entries: list) -> "StoredObject":
        """Build an object without validating ``values`` -- for the
        decoder, whose values come off a record laid out by ``type_def``
        (validating each of them again cost as much as decoding them).
        ``values`` may be a projection: fields left out stay absent
        rather than reading as defaults."""
        obj = cls.__new__(cls)
        obj.type_def = type_def
        obj.values = values
        obj.link_entries = link_entries
        obj.replica_entries = replica_entries
        return obj

    def _validate(self) -> None:
        for f in self.type_def.fields:
            if f.name not in self.values:
                # Absent values default per kind: 0 / 0.0 / "" / None.
                self.values[f.name] = _default_for(f.kind)
            else:
                _check_value(self.type_def.name, f.name, f.kind, self.values[f.name])
        extra = set(self.values) - {f.name for f in self.type_def.fields}
        if extra:
            raise FieldError(
                f"type {self.type_def.name!r} has no field(s) {sorted(extra)!r}"
            )

    # -- value access -----------------------------------------------------

    def get(self, field_name: str):
        """Return the value of a field (hidden fields allowed)."""
        self.type_def.field_def(field_name)
        return self.values[field_name]

    def set(self, field_name: str, value) -> None:
        """Set the value of a field, with kind checking."""
        fdef = self.type_def.field_def(field_name)
        _check_value(self.type_def.name, field_name, fdef.kind, value)
        self.values[field_name] = value

    def ref(self, field_name: str) -> OID | None:
        """Return the OID held by a reference attribute (or None)."""
        fdef = self.type_def.field_def(field_name)
        if fdef.kind is not FieldKind.REF:
            raise FieldError(f"field {field_name!r} of {self.type_def.name!r} is not a ref")
        return self.values[field_name]

    def copy(self) -> "StoredObject":
        """A deep-enough copy (values dict and entry lists are fresh)."""
        return StoredObject(
            type_def=self.type_def,
            values=dict(self.values),
            link_entries=list(self.link_entries),
            replica_entries=list(self.replica_entries),
        )

    # -- link-entry helpers -------------------------------------------------

    def link_entry_for(self, link_id: int) -> LinkEntry | None:
        """The entry for ``link_id`` (inline or not) if one is carried."""
        base = link_id & ~INLINE_LINK_FLAG
        for entry in self.link_entries:
            if entry.base_id == base:
                return entry
        return None

    def add_link_entry(self, entry: LinkEntry) -> None:
        """Attach a link entry (replacing any entry with the same link id)."""
        self.remove_link_entry(entry.base_id)
        self.link_entries.append(entry)

    def remove_link_entry(self, link_id: int) -> None:
        """Detach the entry for ``link_id`` if present (inline or not)."""
        base = link_id & ~INLINE_LINK_FLAG
        self.link_entries = [e for e in self.link_entries if e.base_id != base]

    # -- replica-entry helpers ----------------------------------------------

    def replica_entry_for(self, path_id: int) -> ReplicaEntry | None:
        """The separate-replication entry for ``path_id`` if present."""
        for entry in self.replica_entries:
            if entry.path_id == path_id:
                return entry
        return None

    def set_replica_entry(self, entry: ReplicaEntry) -> None:
        """Attach / replace the replica entry for ``entry.path_id``."""
        self.replica_entries = [e for e in self.replica_entries if e.path_id != entry.path_id]
        self.replica_entries.append(entry)

    def remove_replica_entry(self, path_id: int) -> None:
        """Detach the replica entry for ``path_id`` if present."""
        self.replica_entries = [e for e in self.replica_entries if e.path_id != path_id]


def _default_for(kind: FieldKind):
    if kind is FieldKind.INT:
        return 0
    if kind is FieldKind.FLOAT:
        return 0.0
    if kind is FieldKind.CHAR:
        return ""
    return None  # REF


def _check_value(type_name: str, field_name: str, kind: FieldKind, value) -> None:
    ok = (
        (kind is FieldKind.INT and isinstance(value, int) and not isinstance(value, bool))
        or (kind is FieldKind.FLOAT and isinstance(value, (int, float)) and not isinstance(value, bool))
        or (kind is FieldKind.CHAR and isinstance(value, str))
        or (kind is FieldKind.REF and (value is None or isinstance(value, OID)))
    )
    if not ok:
        raise FieldError(
            f"{type_name}.{field_name}: value {value!r} does not match kind {kind.value}"
        )
