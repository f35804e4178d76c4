"""Physical object identifiers.

Following EXODUS, OIDs are *physically based*: an OID names the disk address
of the object -- ``(file_id, page_no, slot)``.  Physically based OIDs make
it possible to propagate updates in clustered order (Section 4.1 of the
paper relies on this to keep link-object I/O sequential).

An OID packs into :data:`~repro.storage.constants.OID_BYTES` bytes:
2 bytes of file id, 4 bytes of page number, 2 bytes of slot.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.storage.constants import OID_BYTES

_OID_STRUCT = struct.Struct(">HIH")

assert _OID_STRUCT.size == OID_BYTES


class OID(NamedTuple):
    """A physically based object identifier.

    OIDs order lexicographically by ``(file_id, page_no, slot)``, which is
    physical placement order -- sorting a list of OIDs therefore yields a
    clustered access sequence.  An OID is a tuple, so its hash, equality
    and order are the tuple's, computed in C (an OID equals the plain
    tuple of its fields).
    """

    file_id: int
    page_no: int
    slot: int

    def pack(self) -> bytes:
        """Encode this OID to its fixed 8-byte on-disk form."""
        return _OID_STRUCT.pack(*self)

    @staticmethod
    def unpack(data: bytes, offset: int = 0) -> "OID":
        """Decode an OID from ``data`` starting at ``offset``."""
        return tuple.__new__(OID, _OID_STRUCT.unpack_from(data, offset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OID({self.file_id}:{self.page_no}.{self.slot})"


#: A null OID used to encode absent references.
NULL_OID = OID(0xFFFF, 0xFFFFFFFF, 0xFFFF)


def is_null(oid: OID) -> bool:
    """Return True when ``oid`` is the null reference sentinel."""
    return oid == NULL_OID
