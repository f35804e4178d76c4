"""Binary encoding of objects.

On-disk layout (sizes chosen to match Figure 10's accounting: a 20-byte
object header ``h`` that begins with the 2-byte type tag):

==========================  =======================================
section                     bytes
==========================  =======================================
type tag                    2
link-entry count            1
replica-entry count         1
reserved                    16   (pads the header to ``h`` = 20)
link entries                9 each  (OID 8 + link-ID 1)
replica entries             13 each (OID 8 + refcount 4 + path-id 1)
field values                fixed width, in type field order
==========================  =======================================

Field encodings: ``int`` 4-byte big-endian signed, ``float`` 8-byte IEEE,
``char[n]`` UTF-8 padded with NULs, ``ref`` a packed OID
(:data:`~repro.storage.oid.NULL_OID` encodes an absent reference).
"""

from __future__ import annotations

import struct
from bisect import bisect_right

from repro.errors import SerializationError, UnknownTypeError
from repro.objects.instance import (
    LinkEntry,
    ReplicaEntry,
    StoredObject,
    _check_value,
    _default_for,
)
from repro.objects.registry import TypeRegistry
from repro.objects.types import FieldKind, TypeDefinition
from repro.storage.constants import OBJECT_HEADER_BYTES
from repro.storage.oid import NULL_OID, OID

_HEADER = struct.Struct(">HBB16x")
_COUNTS = struct.Struct(">HBB")  # the header's tag and entry counts
_INT = struct.Struct(">i")
_FLOAT = struct.Struct(">d")
_REFCOUNT = struct.Struct(">I")
_OID_PARTS = struct.Struct(">HIH")
_NULL_PARTS = (NULL_OID.file_id, NULL_OID.page_no, NULL_OID.slot)
_UNBOUND = object()

assert _HEADER.size == OBJECT_HEADER_BYTES
assert _OID_PARTS.size == len(NULL_OID.pack())

_LINK_ENTRY_BYTES = 9
_REPLICA_ENTRY_BYTES = 13


def encoded_size(type_def: TypeDefinition, n_links: int = 0, n_replicas: int = 0) -> int:
    """Size in bytes of an encoded object of ``type_def``."""
    return (
        OBJECT_HEADER_BYTES
        + n_links * _LINK_ENTRY_BYTES
        + n_replicas * _REPLICA_ENTRY_BYTES
        + type_def.data_width
    )


def encode_object(registry: TypeRegistry, obj: StoredObject) -> bytes:
    """Serialise ``obj`` to its on-disk byte string."""
    if len(obj.link_entries) > 0xFF or len(obj.replica_entries) > 0xFF:
        raise SerializationError("too many link/replica entries for one object")
    tag = registry.tag_of(obj.type_def.name)
    parts = [_HEADER.pack(tag, len(obj.link_entries), len(obj.replica_entries))]
    for entry in obj.link_entries:
        parts.append(entry.link_oid.pack())
        parts.append(bytes([entry.link_id]))
    for rentry in obj.replica_entries:
        parts.append(rentry.replica_oid.pack())
        parts.append(_REFCOUNT.pack(rentry.refcount))
        parts.append(bytes([rentry.path_id]))
    for fdef in obj.type_def.fields:
        parts.append(_encode_value(fdef, obj.values[fdef.name]))
    return b"".join(parts)


def decode_object(registry: TypeRegistry, data) -> StoredObject:
    """Deserialise an object; the type is resolved through its tag."""
    if len(data) < OBJECT_HEADER_BYTES:
        raise SerializationError(f"object record truncated ({len(data)} bytes)")
    tag, n_links, n_replicas = _HEADER.unpack_from(data, 0)
    type_def = registry.by_tag(tag)
    pos = OBJECT_HEADER_BYTES
    base = (pos + n_links * _LINK_ENTRY_BYTES
            + n_replicas * _REPLICA_ENTRY_BYTES)
    # Schema evolution: a record may predate a type widening (e.g. a
    # replication path added hidden fields) and end early, but only at a
    # field boundary; absent trailing fields read as their kind defaults.
    offsets = type_def.offsets
    present = len(data) - base
    if present < 0:
        raise SerializationError(f"object record truncated ({len(data)} bytes)")
    if present > offsets[-1]:
        raise SerializationError(
            f"object of type {type_def.name!r}: "
            f"{present - offsets[-1]} trailing bytes")
    if present < offsets[-1]:
        cut = bisect_right(offsets, present) - 1
        if offsets[cut] != present:
            raise SerializationError(
                f"field {type_def.fields[cut].name!r} truncated")
    values: dict[str, object] = {}
    for name, (fdef, offset) in type_def.layout.items():
        values[name] = (_decode_value(fdef, data, base + offset)
                        if offset < present else _default_for(fdef.kind))
    links = []
    for __ in range(n_links):
        oid = OID.unpack(data, pos)
        link_id = data[pos + 8]
        links.append(LinkEntry(oid, link_id))
        pos += _LINK_ENTRY_BYTES
    replicas = []
    for __ in range(n_replicas):
        oid = OID.unpack(data, pos)
        refcount = _REFCOUNT.unpack_from(data, pos + 8)[0]
        path_id = data[pos + 12]
        replicas.append(ReplicaEntry(oid, refcount, path_id))
        pos += _REPLICA_ENTRY_BYTES
    return StoredObject.trusted(type_def, values, links, replicas)


def encode_fields(type_def: TypeDefinition,
                  changes: dict[str, object]) -> list[tuple]:
    """``(field definition, offset in the value section, encoded value)``
    per changed field: each value kind-checked and encoded once, to be
    written over that field in any number of records laid out by
    ``type_def`` (every field is fixed-width).  Raises what
    :meth:`StoredObject.set` and :func:`encode_object` would."""
    out = []
    for name, value in changes.items():
        fdef = type_def.field_def(name)
        _check_value(type_def.name, name, fdef.kind, value)
        out.append((fdef, type_def.layout[name][1], _encode_value(fdef, value)))
    return out


def value_section(data, tag: int, type_def: TypeDefinition) -> int | None:
    """Where the field values start in the encoded object ``data`` -- if
    its fields may be overwritten where they lie: the record carries
    ``tag`` and holds exactly the fields of ``type_def``.  ``None`` for a
    record of another type or one written before a widening (shorter than
    the layout), which only a decode and a full re-encode can bring to
    ``type_def``.  Reads the 20-byte header and nothing else."""
    if len(data) < OBJECT_HEADER_BYTES:
        return None
    record_tag, n_links, n_replicas = _HEADER.unpack_from(data, 0)
    base = (OBJECT_HEADER_BYTES + n_links * _LINK_ENTRY_BYTES
            + n_replicas * _REPLICA_ENTRY_BYTES)
    if record_tag != tag or len(data) != base + type_def.data_width:
        return None
    return base


def projector(registry: TypeRegistry, fields):
    """The projected read of ``fields`` (field names): a function
    ``slice_(data, start, end)`` returning the tuple of those fields'
    values, in that order, of the object encoded in ``data[start:end]`` --
    a page image its caller holds pinned, or a payload.

    Per record it reads the header's tag and entry counts, checks that the
    tag is registered and that the record is exactly its type's width, and
    unpacks each field at an offset bound once per type and ``fields``
    (kept in :attr:`TypeDefinition.projections`).  Nothing else is read
    and no object is built.  A record it refuses -- shorter than a header,
    of an unregistered tag, written before a widening (short) or damaged,
    of a type that lacks one of ``fields`` -- is decoded whole by
    :func:`decode_object`, which raises what a full read raises or gives a
    short record's absent fields their defaults, and its values are taken
    with :meth:`StoredObject.get`.
    """
    fields = tuple(fields)
    plans: dict = {}  # tag -> (value-section width, unpacker) | None

    def slice_(data, start: int, end: int) -> tuple:
        if end - start >= OBJECT_HEADER_BYTES:
            tag, n_links, n_replicas = _COUNTS.unpack_from(data, start)
            plan = plans.get(tag, _UNBOUND)
            if plan is _UNBOUND:
                plan = plans[tag] = _bound(registry, tag, fields)
            if plan is not None:
                base = (start + OBJECT_HEADER_BYTES
                        + n_links * _LINK_ENTRY_BYTES
                        + n_replicas * _REPLICA_ENTRY_BYTES)
                if end - base == plan[0]:
                    return plan[1](data, base)
        obj = decode_object(registry, data[start:end])
        return tuple([obj.get(name) for name in fields])

    return slice_


def _bound(registry: TypeRegistry, tag: int, fields: tuple):
    """``(width, unpacker)`` of ``fields`` for the type registered under
    ``tag``; None when the tag is unregistered or the type lacks a field."""
    try:
        type_def = registry.by_tag(tag)
    except UnknownTypeError:
        return None
    plan = type_def.projections.get(fields, _UNBOUND)
    if plan is _UNBOUND:
        plan = None
        if all(name in type_def.layout for name in fields):
            plan = (type_def.data_width, _unpacker(type_def, fields))
        type_def.projections[fields] = plan
    return plan


def _unpacker(type_def: TypeDefinition, fields: tuple):
    """Compile ``values(data, base)``: the tuple of ``fields``' values of
    a record laid out by ``type_def`` whose value section starts at
    ``base`` -- one ``unpack_from`` per field at its bound offset, each
    value read as :func:`_decode_value` reads it.  One function, so a
    record costs one call however many fields are projected."""
    env = {"OID": OID, "NULL": _NULL_PARTS, "new": tuple.__new__}
    items = []
    for i, name in enumerate(fields):
        fdef, offset = type_def.layout[name]
        unpack = f"u{i}(data, base + {offset})"
        if fdef.kind is FieldKind.REF:
            env[f"u{i}"] = _OID_PARTS.unpack_from
            items.append(f"(None if (p{i} := {unpack}) == NULL else new(OID, p{i}))")
        elif fdef.kind is FieldKind.CHAR:
            env[f"u{i}"] = struct.Struct(f"{fdef.size}s").unpack_from
            items.append(f"{unpack}[0].rstrip(b'\\x00').decode('utf-8')")
        else:
            env[f"u{i}"] = (_INT if fdef.kind is FieldKind.INT
                            else _FLOAT).unpack_from
            items.append(f"{unpack}[0]")
    exec("def values(data, base):\n"
         f"    return ({''.join(item + ', ' for item in items)})\n", env)
    return env["values"]


def peek_type_tag(data: bytes) -> int:
    """Return the type tag of an encoded object without full decoding."""
    if len(data) < 2:
        raise SerializationError("record too short to hold a type tag")
    return struct.unpack_from(">H", data, 0)[0]


def _encode_value(fdef, value) -> bytes:
    kind = fdef.kind
    if kind is FieldKind.INT:
        try:
            return _INT.pack(value)
        except struct.error as exc:
            raise SerializationError(f"int field {fdef.name!r}: {exc}") from None
    if kind is FieldKind.FLOAT:
        return _FLOAT.pack(float(value))
    if kind is FieldKind.CHAR:
        raw = value.encode("utf-8")
        if len(raw) > fdef.size:
            raise SerializationError(
                f"char[{fdef.size}] field {fdef.name!r}: value needs {len(raw)} bytes"
            )
        return raw.ljust(fdef.size, b"\x00")
    # REF
    oid = value if value is not None else NULL_OID
    return oid.pack()


def _decode_value(fdef, data: bytes, pos: int):
    """The value of ``fdef`` at ``pos``; the caller has checked that the
    whole field lies inside ``data``."""
    kind = fdef.kind
    if kind is FieldKind.INT:
        return _INT.unpack_from(data, pos)[0]
    if kind is FieldKind.FLOAT:
        return _FLOAT.unpack_from(data, pos)[0]
    if kind is FieldKind.CHAR:
        return data[pos:pos + fdef.size].rstrip(b"\x00").decode("utf-8")
    oid = OID.unpack(data, pos)
    return None if oid == NULL_OID else oid
