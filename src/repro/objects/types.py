"""The EXTRA-like type system.

The paper's examples use three field kinds -- ``char[]``, ``int``, and
``ref T`` (reference attributes) -- plus ``float`` for completeness.  A
:class:`TypeDefinition` is an ordered list of :class:`FieldDef`; field order
fixes the on-disk layout.

Replication widens objects with *hidden* fields ("objects in Emp1 can be
thought of as having a hidden field in which a replicated value for
dept.name is stored", Section 3.1).  Hidden fields are ordinary fields
flagged ``hidden=True``; the query language layer refuses to read or write
them directly, while query *processing* exploits them.  Structural changes
required by replication are handled through subtyping (Section 4):
:meth:`TypeDefinition.subtype_with_hidden` derives a new type that appends
hidden fields to a base type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TypeDefinitionError
from repro.storage.constants import OID_BYTES


class FieldKind(enum.Enum):
    """The kind of a field's value."""

    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    REF = "ref"


#: On-disk width of each fixed-width kind (CHAR width is per-field).
_KIND_WIDTH = {
    FieldKind.INT: 4,
    FieldKind.FLOAT: 8,
    FieldKind.REF: OID_BYTES,
}


@dataclass(frozen=True, slots=True)
class FieldDef:
    """One field of a type definition."""

    name: str
    kind: FieldKind
    #: Byte width for ``char[n]`` fields; ignored for other kinds.
    size: int = 0
    #: Target type name for ``ref`` fields.
    ref_type: str | None = None
    #: Hidden fields hold replicated values and are invisible to users.
    hidden: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise TypeDefinitionError(f"invalid field name {self.name!r}")
        if self.kind is FieldKind.CHAR and self.size <= 0:
            raise TypeDefinitionError(f"char field {self.name!r} needs a positive size")
        if self.kind is FieldKind.REF and not self.ref_type:
            raise TypeDefinitionError(f"ref field {self.name!r} needs a target type")
        if self.kind not in (FieldKind.CHAR,) and self.size:
            raise TypeDefinitionError(f"field {self.name!r}: size applies only to char fields")

    @property
    def width(self) -> int:
        """On-disk width of this field in bytes."""
        if self.kind is FieldKind.CHAR:
            return self.size
        return _KIND_WIDTH[self.kind]


def int_field(name: str, hidden: bool = False) -> FieldDef:
    """Convenience constructor for an ``int`` field."""
    return FieldDef(name, FieldKind.INT, hidden=hidden)


def float_field(name: str, hidden: bool = False) -> FieldDef:
    """Convenience constructor for a ``float`` field."""
    return FieldDef(name, FieldKind.FLOAT, hidden=hidden)


def char_field(name: str, size: int, hidden: bool = False) -> FieldDef:
    """Convenience constructor for a ``char[size]`` field."""
    return FieldDef(name, FieldKind.CHAR, size=size, hidden=hidden)


def ref_field(name: str, target_type: str, hidden: bool = False) -> FieldDef:
    """Convenience constructor for a ``ref target_type`` field."""
    return FieldDef(name, FieldKind.REF, ref_type=target_type, hidden=hidden)


@dataclass(frozen=True)
class TypeDefinition:
    """An object type: a name and an ordered list of fields.

    The paper capitalises type names (ORG, DEPT, EMP) to distinguish them
    from set names; we follow that convention in examples but do not
    enforce it.
    """

    name: str
    fields: tuple[FieldDef, ...]
    #: Name of the base type when this type was derived by subtyping
    #: (replication's hidden-field widening); None for root types.
    base: str | None = None
    #: where each field starts within a record's value section (with the
    #: section's total width as a last element), and field name ->
    #: (definition, start) in field order: lookups and the decoder's tables
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    layout: dict[str, tuple[FieldDef, int]] = field(init=False, repr=False, compare=False, default=None)
    #: the projected reads bound to this layout, by field-name tuple (filled
    #: by :func:`repro.objects.encoding.projector`); a widened type is a new
    #: definition, so a binding never outlives its layout
    projections: dict = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, name: str, fields, base: str | None = None) -> None:
        if not name.isidentifier():
            raise TypeDefinitionError(f"invalid type name {name!r}")
        fields = tuple(fields)
        if not fields:
            raise TypeDefinitionError(f"type {name!r} needs at least one field")
        seen: set[str] = set()
        for f in fields:
            if f.name in seen:
                raise TypeDefinitionError(f"type {name!r}: duplicate field {f.name!r}")
            seen.add(f.name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "base", base)
        offsets = [0]
        for f in fields:
            offsets.append(offsets[-1] + f.width)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "layout", {
            f.name: (f, offset) for f, offset in zip(fields, offsets)})
        object.__setattr__(self, "projections", {})

    # -- lookup ---------------------------------------------------------

    def field_def(self, name: str) -> FieldDef:
        """Return the definition of field ``name``."""
        try:
            return self.layout[name][0]
        except KeyError:
            from repro.errors import FieldError

            raise FieldError(f"type {self.name!r} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        """Whether a field of that name exists (hidden ones included)."""
        return name in self.layout

    def visible_fields(self) -> tuple[FieldDef, ...]:
        """Fields users may name in queries (non-hidden)."""
        return tuple(f for f in self.fields if not f.hidden)

    def hidden_fields(self) -> tuple[FieldDef, ...]:
        """Hidden (replicated-value) fields."""
        return tuple(f for f in self.fields if f.hidden)

    def ref_fields(self) -> tuple[FieldDef, ...]:
        """All non-hidden reference attributes."""
        return tuple(f for f in self.fields if f.kind is FieldKind.REF and not f.hidden)

    # -- layout ---------------------------------------------------------

    @property
    def data_width(self) -> int:
        """Total on-disk width of the field values (excluding headers)."""
        return self.offsets[-1]

    # -- subtyping --------------------------------------------------------

    def subtype_with_hidden(self, subtype_name: str, extra: list[FieldDef]) -> "TypeDefinition":
        """Derive a subtype that appends hidden fields (Section 4).

        All extra fields must be marked hidden -- this operation exists
        solely so replication can widen objects without changing the
        user-visible type.
        """
        for f in extra:
            if not f.hidden:
                raise TypeDefinitionError(
                    f"subtype field {f.name!r} must be hidden (replication-only widening)"
                )
        # base tracks the originally declared (root) type through chains of
        # widenings, so user-facing names survive any number of paths.
        return TypeDefinition(subtype_name, self.fields + tuple(extra),
                              base=self.base or self.name)

    def without_field(self, name: str) -> "TypeDefinition":
        """Return a copy lacking field ``name`` (used when a replication
        path is dropped)."""
        self.field_def(name)  # raise if absent
        remaining = tuple(f for f in self.fields if f.name != name)
        return TypeDefinition(self.name, remaining, base=self.base)

    def rename(self, new_name: str) -> "TypeDefinition":
        """Return a copy under a different name."""
        return TypeDefinition(new_name, self.fields, base=self.base)
