"""Database snapshots: save a full image to a real file and load it back.

The simulated disk lives in memory; a snapshot serialises the *entire*
database -- every page of every file plus the schema metadata needed to
reconstruct the catalog (types with their tags, sets, indexes, replication
paths, links, replica sets, pending lazy queues) -- so a loaded image is
bit-for-bit the same storage with a fully working catalog on top.

Format: an 8-byte magic, a length-prefixed JSON header, then the raw pages
of each file in header order, then (only when the database crashed with
work in its write-ahead log) the serialized WAL tail.  OIDs appear in the
header as ``[file, page, slot]`` triples.

Loading is defensive: a truncated, corrupted, or plain non-snapshot file
raises :class:`SnapshotError` with a message that says what is wrong --
never a raw ``struct.error`` / ``KeyError`` / ``UnicodeDecodeError`` --
and the header's length field is bounds-checked against the actual file
size before any buffer is allocated.  A snapshot taken after a crash
(the "copy the disk image of the downed machine" scenario) is recovered
on load: the WAL tail is replayed before the catalog is rebuilt on top.

Usage::

    from repro.snapshot import save_database, load_database
    save_database(db, "company.frdb")
    db2 = load_database("company.frdb")
"""

from __future__ import annotations

import json
import os
import struct

from repro.errors import SnapshotError, WalError
from repro.objects.types import FieldDef, FieldKind, TypeDefinition
from repro.replication.spec import ReplicationPath, Strategy
from repro.schema.catalog import IndexInfo
from repro.schema.database import Database
from repro.schema.paths import ResolvedPath
from repro.sets.objectset import ObjectSet
from repro.storage.constants import PAGE_SIZE
from repro.storage.heapfile import HeapFile
from repro.storage.oid import OID  # noqa: F401 (header round-trips OIDs)

__all__ = ["SnapshotError", "save_database", "load_database", "open_database"]

_MAGIC = b"FREPDB01"
_LEN = struct.Struct(">Q")
#: JSON headers beyond this are rejected before any allocation happens;
#: far larger than any real catalog, far smaller than an honest mistake
#: like handing this loader a multi-gigabyte random file.
_MAX_HEADER_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------


def _field_out(f: FieldDef) -> dict:
    return {
        "name": f.name,
        "kind": f.kind.value,
        "size": f.size,
        "ref_type": f.ref_type,
        "hidden": f.hidden,
    }


def _field_in(d: dict) -> FieldDef:
    return FieldDef(d["name"], FieldKind(d["kind"]), size=d["size"],
                    ref_type=d["ref_type"], hidden=d["hidden"])


def _resolved_out(r: ResolvedPath) -> dict:
    return {
        "source_set": r.source_set,
        "ref_chain": list(r.ref_chain),
        "terminal": r.terminal,
        "type_names": list(r.type_names),
        "replicated_fields": [_field_out(f) for f in r.replicated_fields],
    }


def _resolved_in(d: dict) -> ResolvedPath:
    return ResolvedPath(
        source_set=d["source_set"],
        ref_chain=tuple(d["ref_chain"]),
        terminal=d["terminal"],
        type_names=tuple(d["type_names"]),
        replicated_fields=tuple(_field_in(f) for f in d["replicated_fields"]),
    )


def open_database(snapshot: str | None = None, wal: bool = True) -> Database:
    """The shared loader behind the shell's and the server's ``--snapshot``:
    load the named snapshot, or build a fresh WAL-enabled database."""
    if snapshot:
        return load_database(snapshot)
    return Database(wal=wal)


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def save_database(db: Database, path: str) -> None:
    """Write the database image to ``path``.

    A healthy database is checkpointed first, so the page image alone is
    the whole truth.  A *crashed* database (an injected fault interrupted
    a statement) is saved as-is -- the raw disk, torn pages and all, plus
    the WAL tail -- and :func:`load_database` replays it, modelling taking
    the disk out of the downed machine.
    """
    crashed = db.recovery.needs_recovery
    wal_blob = b""
    if crashed:
        wal_blob = db.recovery.wal.serialize()
    elif db.recovery.wal is not None:
        db.recovery.checkpoint()
    else:
        db.storage.pool.flush_all()
    registry = db.registry
    types = [
        {
            "tag": tag,
            "name": registry.by_tag(tag).name,
            "base": registry.by_tag(tag).base,
            "fields": [_field_out(f) for f in registry.by_tag(tag).fields],
            "aliases": sorted(
                alias for alias in registry.names()
                if registry.get(alias) is registry.by_tag(tag)
            ),
        }
        for tag in sorted(registry._by_tag)  # ordered: tags re-assign densely
    ]
    storage = db.storage
    file_ids = storage.disk.file_ids()
    header = {
        "buffer_frames": storage.pool.capacity,
        "inline_singleton_links": db.replication.inverted.inline_singletons,
        "types": types,
        "files": [
            {
                "file_id": fid,
                "name": storage._names_by_id.get(fid),
                "heap": fid in storage._files_by_id,
                "pages": storage.disk.num_pages(fid),
            }
            for fid in file_ids
        ],
        "sets": [
            {"name": s.name, "type_name": s.type_name, "file_id": s.file_id}
            for s in db.catalog.sets.values()
        ],
        "replica_sets": [
            {"path_id": pid, "name": s.name, "type_name": s.type_name,
             "file_id": s.file_id}
            for pid, s in db.replication.replica_sets.items()
        ],
        "links": [
            {
                "link_id": l.link_id,
                "source_set": l.source_set,
                "prefix": list(l.prefix),
                "file_id": l.file.heap.file_id,
                "collapsed": l.collapsed,
                "private": l.private,
                "parent_link_id": l.parent_link_id,
            }
            for l in db.catalog.links.values()
        ],
        "paths": [
            {
                "path_id": p.path_id,
                "resolved": _resolved_out(p.resolved),
                "strategy": p.strategy.value,
                "link_sequence": list(p.link_sequence),
                "collapsed": p.collapsed,
                "lazy": p.lazy,
                "hidden_fields": list(p.hidden_fields),
                "hidden_ref": p.hidden_ref,
                "replica_set": p.replica_set,
                "replica_type": p.replica_type,
                "index_names": list(p.index_names),
            }
            for p in db.catalog.paths.values()
        ],
        "indexes": [
            {
                "name": i.name,
                "set_name": i.set_name,
                "field_name": i.field_name,
                "clustered": i.clustered,
                "path_text": i.path_text,
                "file_id": i.index.tree.file_id,
                "field": _field_out(i.index.field),
            }
            for i in db.catalog.indexes.values()
        ],
        "counters": {
            "next_path_id": db.catalog._next_path_id,
            "next_link_id": db.catalog._next_link_id,
            "next_index_id": db._next_index_id,
        },
        "wal": {
            "enabled": db.recovery.wal is not None,
            "needs_recovery": crashed,
            "bytes": len(wal_blob),
        },
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as out:
        out.write(_MAGIC)
        out.write(_LEN.pack(len(blob)))
        out.write(blob)
        for fid in file_ids:
            for page_no in range(storage.disk.num_pages(fid)):
                out.write(bytes(storage.disk._files[fid][page_no]))
        out.write(wal_blob)


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def _read_exact(inp, n: int, what: str) -> bytes:
    data = inp.read(n)
    if len(data) != n:
        raise SnapshotError(
            f"truncated snapshot: expected {n} byte(s) of {what}, "
            f"got {len(data)}")
    return data


def _read_header(inp, path: str) -> dict:
    """Magic + bounds-checked length + JSON header, or SnapshotError."""
    if _read_exact(inp, len(_MAGIC), "magic") != _MAGIC:
        raise SnapshotError(f"{path!r} is not a database snapshot")
    (length,) = _LEN.unpack(_read_exact(inp, _LEN.size, "header length"))
    remaining = os.fstat(inp.fileno()).st_size - inp.tell()
    if length > remaining or length > _MAX_HEADER_BYTES:
        raise SnapshotError(
            f"implausible snapshot header length {length} "
            f"({remaining} byte(s) follow; limit {_MAX_HEADER_BYTES})")
    try:
        header = json.loads(_read_exact(inp, length, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from None
    if not isinstance(header, dict):
        raise SnapshotError("corrupt snapshot header: not a JSON object")
    return header


def load_database(path: str, verify: bool = True) -> Database:
    """Reconstruct a database from a snapshot file.

    A snapshot saved after a crash carries a WAL tail; it is replayed
    against the raw pages *before* the catalog is rebuilt on top, and the
    recovered database is verified (``verify=False`` skips the final
    replication check).
    """
    try:
        return _load_database(path, verify)
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, struct.error) as exc:
        raise SnapshotError(
            f"malformed snapshot {path!r}: {exc!r}") from exc


def _load_database(path: str, verify: bool) -> Database:
    with open(path, "rb") as inp:
        header = _read_header(inp, path)
        wal_spec = header.get("wal") or {}
        db = Database(
            buffer_frames=header["buffer_frames"],
            inline_singleton_links=header["inline_singleton_links"],
            wal=bool(wal_spec.get("enabled")),
        )
        storage = db.storage
        # --- raw pages -------------------------------------------------
        for spec in header["files"]:
            fid = storage.disk.create_file()
            if fid != spec["file_id"]:
                raise SnapshotError(
                    f"file id drift: expected {spec['file_id']}, got {fid}"
                )
            for __ in range(spec["pages"]):
                page_no = storage.disk.allocate_page(fid)
                storage.disk._files[fid][page_no] = bytearray(
                    _read_exact(inp, PAGE_SIZE,
                                f"page {page_no} of file {fid}"))
        # --- WAL tail: replay before building the catalog on top -------
        if wal_spec.get("needs_recovery"):
            blob = _read_exact(inp, int(wal_spec["bytes"]), "WAL tail")
            try:
                db.recovery.wal.load(blob)
            except WalError as exc:
                raise SnapshotError(
                    f"unreadable snapshot WAL tail: {exc}") from None
            db.recovery.wal.needs_recovery = True
            # the catalog is empty at this point, so this is a pure
            # page-level replay; caches/verification follow naturally
            # once the catalog is rebuilt below.
            db.recovery.recover(verify=False)
    # --- types (tags re-assign densely in saved order) -----------------
    for tspec in header["types"]:
        type_def = TypeDefinition(
            tspec["name"], [_field_in(f) for f in tspec["fields"]],
            base=tspec["base"],
        )
        tag = db.registry.register(type_def)
        if tag != tspec["tag"]:
            raise SnapshotError(f"tag drift: expected {tspec['tag']}, got {tag}")
        for alias in tspec["aliases"]:
            db.registry._by_name[alias] = type_def
            db.registry._tags[alias] = tag
    # --- files / heaps ---------------------------------------------------
    for spec in header["files"]:
        fid, name = spec["file_id"], spec["name"]
        if name is not None:
            storage._names_by_id[fid] = name
        if spec["heap"]:
            heap = HeapFile(storage.pool, fid)
            storage._files_by_id[fid] = heap
            if name is not None:
                storage._files_by_name[name] = heap
    # --- sets ------------------------------------------------------------
    for spec in header["sets"]:
        obj_set = ObjectSet(spec["name"], spec["type_name"], db.store,
                            storage.file_by_id(spec["file_id"]))
        db.catalog.add_set(obj_set)
    for spec in header["replica_sets"]:
        db.replication.replica_sets[spec["path_id"]] = ObjectSet(
            spec["name"], spec["type_name"], db.store,
            storage.file_by_id(spec["file_id"]),
        )
    # --- links -------------------------------------------------------------
    from repro.replication.links import LinkFile
    from repro.schema.catalog import LinkDef

    for spec in sorted(header["links"], key=lambda l: l["link_id"]):
        link = LinkDef(
            spec["link_id"], spec["source_set"], tuple(spec["prefix"]),
            LinkFile(storage.file_by_id(spec["file_id"]),
                     collapsed=spec["collapsed"]),
            collapsed=spec["collapsed"], private=spec["private"],
            parent_link_id=spec["parent_link_id"],
        )
        db.catalog.links[link.link_id] = link
        if not link.collapsed and not link.private:
            db.catalog._link_by_key[(link.source_set, link.prefix)] = link.link_id
    # --- replication paths ---------------------------------------------------
    for spec in header["paths"]:
        path = ReplicationPath(
            path_id=spec["path_id"],
            resolved=_resolved_in(spec["resolved"]),
            strategy=Strategy(spec["strategy"]),
            link_sequence=tuple(spec["link_sequence"]),
            collapsed=spec["collapsed"],
            lazy=spec["lazy"],
            hidden_fields=tuple(spec["hidden_fields"]),
            hidden_ref=spec["hidden_ref"],
            replica_set=spec["replica_set"],
            replica_type=spec["replica_type"],
            index_names=list(spec["index_names"]),
        )
        db.catalog.add_path(path)
        if path.lazy:
            # the pending log's pages were restored with everything else
            db.replication.lazy.reload(path)
    # --- indexes -----------------------------------------------------------------
    from repro.index.btree import BPlusTree
    from repro.index.keycodec import key_width_for
    from repro.index.secondary import SecondaryIndex

    for spec in header["indexes"]:
        field = _field_in(spec["field"])
        index = SecondaryIndex.__new__(SecondaryIndex)
        index.name = spec["name"]
        index.field = field
        index.set_name = spec["set_name"]
        index.clustered = spec["clustered"]
        index.value_width = key_width_for(field)
        index.bind_metrics(db.telemetry.metrics)
        index.tree = BPlusTree.open(storage.pool, spec["file_id"],
                                    index.value_width + 8)
        index.rebuild_stats()
        db.catalog.add_index(IndexInfo(
            spec["name"], spec["set_name"], spec["field_name"], index,
            clustered=spec["clustered"], path_text=spec["path_text"],
        ))
    # --- counters -----------------------------------------------------------------
    db.catalog._next_path_id = header["counters"]["next_path_id"]
    db.catalog._next_link_id = header["counters"]["next_link_id"]
    db._next_index_id = header["counters"]["next_index_id"]
    if wal_spec.get("needs_recovery") and verify:
        # the page-level replay ran before the catalog existed; now that
        # it does, prove the recovered image is replication-consistent
        db.replication.verify()
    return db
