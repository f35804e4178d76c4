"""Resource-set computation for result-cache invalidation.

The cache reuses the statement footprint computation
(:mod:`repro.query.footprint`), which already expands a write with every
replication-path structure the propagation rewrites -- the inverted-path
index of the paper turned into a precise invalidation set.  This module
provides the two extra pieces the cache needs:

* resource sets for the **facade-level** DML entry points
  (``db.insert`` / ``db.update`` / ``db.delete``), which are called both
  directly by API users and per-row by the bulk executors -- so every
  mutation path invalidates, not just the text statements;
* a **file -> resource** mapping for replica coherence: a follower
  applies the primary's redo frames, whose spans and allocations carry
  file ids, and must invalidate the owning set's cached reads before its
  applied LSN advances.

Imports from ``repro.query.footprint`` are function-level: the cache
package is constructed by :class:`~repro.schema.database.Database`, which
the query package itself imports.
"""

from __future__ import annotations


def write_resources(db, set_name: str, fields) -> frozenset:
    """The exclusive resource set of an update touching ``fields``.

    Mirrors the ``UpdatePlan`` branch of ``footprint_for_plan``: the
    written set plus every replication-path structure the changed fields
    force the statement to rewrite (source set, downstream type sets,
    replica set).
    """
    from repro.query.footprint import _write_propagation_locks

    exclusive = {set_name}
    _write_propagation_locks(db, set_name, set(fields), exclusive)
    return frozenset(exclusive)


def structural_resources(db, set_name: str) -> frozenset:
    """The exclusive resource set of an insert/delete on ``set_name``.

    Mirrors the ``DeletePlan`` branch of ``footprint_for_plan``: every
    path sourced at the set maintains link entries in the downstream sets
    and rows in its replica set, so membership changes reach them all.
    """
    from repro.query.footprint import _sets_of_type

    exclusive = {set_name}
    for path in db.catalog.paths_on_source(set_name):
        exclusive.add(path.source_set)
        for type_name in path.resolved.type_names[1:]:
            exclusive |= _sets_of_type(db, type_name)
        if path.replica_set:
            exclusive.add(path.replica_set)
    return frozenset(exclusive)


def retrieve_footprint(db, stmt):
    """``(footprint resources, cacheable)`` of a parsed retrieve.

    A retrieve is cacheable only when its footprint has no exclusive
    resources -- a read of a lazily propagated path drains the pending
    queue (hidden-field writes), so serving it from cache would skip the
    refresh the statement promises.
    """
    from repro.server.locks import footprint_for_statement

    footprint = footprint_for_statement(db, stmt)
    if footprint.exclusive:
        return frozenset(), False
    return footprint.shared, True


def file_resource_map(db) -> dict[int, str]:
    """Map every catalog-known file id to the set resource that owns it.

    Heap files are named for their set; replication structures (replica
    sets, link files, lazy pending logs) and secondary indexes map to the
    resource their root set locks under -- the same convention
    ``repro.query.footprint`` uses.  Files absent from the map (unknown /
    transient) make the caller fall back to a full invalidation.
    """
    mapping: dict[int, str] = {}
    for obj_set in db.catalog.sets.values():
        mapping[obj_set.file_id] = obj_set.name
    for link in db.catalog.links.values():
        mapping[link.file.heap.file_id] = link.source_set
    for info in db.catalog.indexes.values():
        mapping[info.index.tree.file_id] = info.set_name
    for path in db.catalog.paths.values():
        replica = db.replication.replica_sets.get(path.path_id)
        if replica is not None:
            mapping[replica.file_id] = path.replica_set
        if path.lazy:
            try:
                heap = db.storage.file(
                    f"__lazy{path.path_id}_{path.source_set}")
            except KeyError:
                continue
            mapping[heap.file_id] = path.source_set
    return mapping


def invalidate_applied_entry(db, file_ids: set[int] | None) -> int:
    """Replica coherence: invalidate after applying one shipped entry.

    Called by the follower under its apply latch, *before* the applied
    LSN advances -- so a cached read on a replica is never staler than
    the replica itself.  ``file_ids`` are the files a DML entry's records
    name, as its redo found them (dropped files included); ``None`` is a
    DDL entry, which reshapes the catalog and invalidates everything.  A
    DML entry invalidates exactly the sets owning its files, falling back
    to a full flush when a file id is not in the catalog map
    (conservative, never stale).
    """
    cache = db.resultcache
    if len(cache) == 0:
        return 0
    if file_ids is None:
        return cache.invalidate_all(reason="replica")
    mapping = file_resource_map(db)
    resources: set[str] = set()
    for file_id in file_ids:
        resource = mapping.get(file_id)
        if resource is None:
            return cache.invalidate_all(reason="replica")
        resources.add(resource)
    if not resources:
        return 0
    return cache.invalidate(resources, reason="replica")
