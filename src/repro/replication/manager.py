"""The replication manager.

This is the component a DBA's ``replicate Emp1.dept.org.name`` statement
lands in.  It owns:

* **path registration** -- widening the source type with hidden fields
  through subtyping, allocating the link sequence (sharing links across
  paths with a common prefix), creating link files / replica sets, and
  bulk-building structures over existing data by sort (one scan, each
  link object written whole, each record written once);
* **operation hooks** -- the maintenance of Sections 4.1.1/4.1.2/5.2 for
  object insertion, deletion, and updates to both data fields and
  reference attributes, dispatched through the link IDs and replica
  entries stored in the affected object;
* **consistency checking** -- :meth:`ReplicationManager.verify` recomputes
  every replicated value and every link/replica structure from the forward
  paths and raises :class:`~repro.errors.IntegrityError` on any drift,
  reading each object it reaches once (:class:`~repro.objects.store.ReadMemo`).

A value propagation is the paper's update model made literal -- *f*
referencers, *k* bytes each, in page order: one
:meth:`~repro.objects.store.ObjectStore.overwrite_fields` call over the
sorted union of a statement's closures, which overwrites the hidden field
where it lies under one pin per page.
:meth:`ReplicationManager.apply_hidden_changes` is the
general single-object path (decode, set, encode) for everything else:
collapsed bulk builds, the doctor, a source object's own fresh values,
and the referencers a propagation cannot overwrite in place.

Updates are propagated eagerly unless a path was registered with
``lazy=True`` (the paper's future-work variant), in which case source
updates are queued and drained on the next read through
:meth:`refresh_path` -- see :mod:`repro.replication.lazy`.
"""

from __future__ import annotations

from repro.errors import (
    IntegrityError,
    ReplicationError,
)
from repro.objects.instance import StoredObject, _default_for
from repro.objects.store import ObjectStore, ReadMemo
from repro.objects.types import FieldDef, FieldKind, TypeDefinition
from repro.replication.collapse import CollapsedPaths
from repro.replication.inverted import InvertedPaths
from repro.replication.lazy import LazyQueue
from repro.replication.links import LinkFile
from repro.replication.spec import (
    ReplicationPath,
    Strategy,
    hidden_ref_field,
    hidden_value_field,
    replica_set_name,
    replica_type_name,
)
from repro.schema.paths import resolve_path
from repro.telemetry import Telemetry
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only; avoids an import cycle with schema
    from repro.schema.catalog import Catalog, LinkDef
from repro.sets.objectset import ObjectSet
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


class ReplicationManager:
    """Coordinates every replication path of one database."""

    def __init__(self, catalog: Catalog, store: ObjectStore, storage: StorageManager,
                 inline_singleton_links: bool = False, telemetry=None) -> None:
        self.catalog = catalog
        self.store = store
        self.storage = storage
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.replica_sets: dict[int, ObjectSet] = {}
        self.inverted = InvertedPaths(catalog, store, self.replica_sets,
                                      inline_singletons=inline_singleton_links,
                                      telemetry=self.telemetry)
        self.collapsed = CollapsedPaths(catalog, store)
        self.lazy = LazyQueue(storage)
        #: set by the Database facade: lazy refreshes drain outside any DML
        #: statement, so they open their own WAL statement scope through it
        self.recovery = None
        #: set by the Database facade: the workload monitor, which keeps
        #: each path's account of propagating statements
        self.monitor = None
        #: this statement's propagations: path text -> [path, owners,
        #: referencers], recorded once per path when the statement ends
        self._propagated: dict[str, list] = {}
        metrics = self.telemetry.metrics
        self._m_propagations = metrics.counter(
            "replication_propagations_total",
            "terminal/link updates propagated to source-set hidden fields")
        self._m_fanout = metrics.counter(
            "replication_fanout_total",
            "source objects rewritten by update propagation")
        self._m_replica_writes = metrics.counter(
            "replication_replica_writes_total",
            "replica-set objects rewritten (separate strategy)")

    # ==================================================================
    # path lifecycle
    # ==================================================================

    def register_path(self, text: str, strategy: Strategy,
                      collapsed: bool = False, lazy: bool = False,
                      cluster_links: bool = False) -> ReplicationPath:
        """Process a ``replicate`` statement and build its structures.

        ``cluster_links`` applies the §4.3.2 optimization to an n-level
        in-place path: all its links are co-located in one link file so a
        propagation reads related link objects from (mostly) the same
        pages.  Co-located links are private -- clustering goals conflict
        with sharing, exactly as the paper observes.
        """
        resolved = resolve_path(text, self.catalog.set_type_of, self.catalog.registry.get)
        if resolved.text in self.catalog.paths:
            from repro.errors import DuplicateReplicationPathError

            raise DuplicateReplicationPathError(f"path {text!r} already replicated")
        if collapsed and (strategy is not Strategy.IN_PLACE or resolved.level != 2):
            raise ReplicationError(
                "collapsed inverted paths are supported for 2-level in-place paths"
            )
        if lazy and strategy is not Strategy.IN_PLACE:
            raise ReplicationError("lazy propagation applies to in-place paths")
        if cluster_links and (
            strategy is not Strategy.IN_PLACE or collapsed or resolved.level < 2
        ):
            raise ReplicationError(
                "link clustering applies to multi-level in-place paths"
            )
        path_id = self.catalog.allocate_path_id()
        if strategy is Strategy.IN_PLACE:
            path = self._register_inplace(resolved, path_id, collapsed, lazy,
                                          cluster_links)
        else:
            path = self._register_separate(resolved, path_id)
        if lazy:
            self.lazy.register(path)
        return path

    def _register_inplace(self, resolved, path_id: int, collapsed: bool,
                          lazy: bool, cluster_links: bool = False) -> ReplicationPath:
        hidden = tuple(
            FieldDef(
                hidden_value_field(path_id, f.name),
                f.kind,
                size=f.size,
                ref_type=f.ref_type,
                hidden=True,
            )
            for f in resolved.replicated_fields
        )
        self._widen_source_type(resolved.source_set, path_id, hidden)
        if collapsed:
            link_ids = (self._create_collapsed_link(resolved).link_id,)
        elif cluster_links:
            link_ids = self._create_clustered_links(resolved, path_id)
        else:
            link_ids = tuple(
                self._link_for(resolved.source_set, prefix).link_id
                for prefix in resolved.prefix_chains()
            )
        path = ReplicationPath(
            path_id=path_id,
            resolved=resolved,
            strategy=Strategy.IN_PLACE,
            link_sequence=link_ids,
            collapsed=collapsed,
            lazy=lazy,
            hidden_fields=tuple(f.name for f in hidden),
        )
        self.catalog.add_path(path)
        self._bulk_build(path)
        return path

    def _register_separate(self, resolved, path_id: int) -> ReplicationPath:
        rep_fields = [
            FieldDef(f.name, f.kind, size=f.size, ref_type=f.ref_type)
            for f in resolved.replicated_fields
        ]
        rep_type = TypeDefinition(replica_type_name(path_id), rep_fields)
        self.catalog.registry.register(rep_type)
        heap = self.storage.create_file(replica_set_name(path_id, resolved.source_set))
        self.replica_sets[path_id] = ObjectSet(
            replica_set_name(path_id, resolved.source_set), rep_type.name, self.store, heap
        )
        hidden = (
            FieldDef(hidden_ref_field(path_id), FieldKind.REF,
                     ref_type=rep_type.name, hidden=True),
        )
        self._widen_source_type(resolved.source_set, path_id, hidden)
        # The inverted path of an n-level separate path has n - 1 links.
        link_ids = tuple(
            self._link_for(resolved.source_set, prefix).link_id
            for prefix in list(resolved.prefix_chains())[: resolved.level - 1]
        )
        path = ReplicationPath(
            path_id=path_id,
            resolved=resolved,
            strategy=Strategy.SEPARATE,
            link_sequence=link_ids,
            hidden_fields=(),
            hidden_ref=hidden[0].name,
            replica_set=replica_set_name(path_id, resolved.source_set),
            replica_type=rep_type.name,
        )
        self.catalog.add_path(path)
        self._bulk_build(path)
        return path

    def _widen_source_type(self, source_set: str, path_id: int,
                           hidden: tuple[FieldDef, ...]) -> None:
        obj_set = self.catalog.get_set(source_set)
        old = obj_set.type_def
        new = old.subtype_with_hidden(f"{old.name}__p{path_id}", list(hidden))
        self.catalog.registry.replace(obj_set.type_name, new)

    def _link_for(self, source_set: str, prefix: tuple[str, ...]) -> LinkDef:
        link = self.catalog.link_for_prefix(source_set, prefix)
        if link is None:
            heap = self.storage.create_file(
                f"__link_{source_set}_{'_'.join(prefix)}"
            )
            link = self.catalog.register_link(source_set, prefix, LinkFile(heap))
        return link

    def _create_clustered_links(self, resolved, path_id: int) -> tuple[int, ...]:
        """§4.3.2: all links of the path share one (private) link file."""
        heap = self.storage.create_file(
            f"__xlink{path_id}_{resolved.source_set}_{'_'.join(resolved.ref_chain)}"
        )
        file = LinkFile(heap)
        link_ids: list[int] = []
        parent: int | None = None
        for prefix in resolved.prefix_chains():
            link = self.catalog.register_link(
                resolved.source_set, prefix, file,
                private=True, parent_link_id=parent,
            )
            link_ids.append(link.link_id)
            parent = link.link_id
        return tuple(link_ids)

    def _create_collapsed_link(self, resolved) -> LinkDef:
        heap = self.storage.create_file(
            f"__clink_{resolved.source_set}_{'_'.join(resolved.ref_chain)}"
        )
        return self.catalog.register_link(
            resolved.source_set, resolved.ref_chain, LinkFile(heap, collapsed=True),
            collapsed=True,
        )

    def _bulk_build(self, path: ReplicationPath) -> None:
        """Build the path's structures over the existing members, by sort.

        1. **Scan once.**  The source set is scanned once, in page order,
           and each forward chain resolved a hop at a time, every object
           reached read once (:meth:`ObjectStore.read_many`).  That yields
           each link's ``owner -> members`` map and each source's terminal.
        2. **Link objects whole, in owner-OID order**
           (:meth:`InvertedPaths.bulk_attach`): written once each, at their
           final size, so a propagation reads them in the order of the
           objects that own them; none is left behind a forward stub.
        3. **Replica objects (S') in first-reference order**, each with its
           final reference count: the order a per-object build creates
           them in, so S' comes out as it always has.
        4. **Referenced objects written once each, in first-reference
           order**: an owner gains its link entries, a terminal its replica
           entry, in the order in which the source scan first reached it
           -- which is when a per-object build grew it, so each one stays
           or moves out of its page exactly as it did.
        5. **Sources widened a page at a time**
           (:meth:`ObjectStore.update_many`): each decoded from its pinned
           page and encoded once, with its hidden values -- and, where a
           source is itself an owner or a terminal (a self-referential
           path), its link and replica entries.

        Unlike incremental maintenance, the build cannot rely on the
        enter-cascade: when this path *shares* a pre-existing link, its
        owners entered that link long ago, so every link of the sequence
        is entered explicitly.  Collapsed paths enroll member by member.
        """
        src = self.catalog.get_set(path.source_set)
        if path.collapsed:
            for oid, obj in list(src.scan()):
                changes = self.collapsed.after_insert(path, oid, obj)
                self.apply_hidden_changes(src, oid, changes, maintain_indexes=False)
            return
        chain = path.resolved.ref_chain
        level = path.level
        # 1. a row per source: its OID, then the OID at each depth of its
        #    chain (None past a null ref)
        rows = [[oid, first_ref]
                for oid, (first_ref,) in src.scan(fields=(chain[0],))]
        objects: dict[OID, StoredObject] = {}
        for hop in range(1, level + 1):
            objects.update(self.store.read_many(
                {row[hop] for row in rows if row[hop] is not None}
                - objects.keys()))
            if hop < level:
                for row in rows:
                    row.append(None if row[hop] is None
                               else objects[row[hop]].ref(chain[hop]))
        links = [self.catalog.get_link(lid) for lid in path.link_sequence]
        memberships: list[dict[OID, set]] = [{} for __ in links]
        participants: dict[OID, set] = {}  # terminal -> level-(n-1) objects
        first_reached: dict[OID, None] = {}  # referenced objects, in order
        for row in rows:
            for i, members_of in enumerate(memberships):
                if row[i + 1] is None:
                    break
                members_of.setdefault(row[i + 1], set()).add(row[i])
                first_reached.setdefault(row[i + 1])
            if path.strategy is Strategy.SEPARATE and row[level] is not None:
                participants.setdefault(row[level], set()).add(row[level - 1])
                first_reached.setdefault(row[level])
        # 2.-3. link and replica objects; the entries they leave to write
        link_entries = self.inverted.bulk_attach(links, memberships, objects)
        replica_entries = (self.inverted.bulk_replicas(path, participants, objects)
                           if path.strategy is Strategy.SEPARATE else {})

        def enter(oid: OID, obj: StoredObject) -> None:
            for entry in link_entries.get(oid, ()):
                obj.add_link_entry(entry)
            if oid in replica_entries:
                obj.set_replica_entry(replica_entries[oid])

        # 4. referenced objects outside the source file
        by_file: dict[int, list[OID]] = {}
        for oid in first_reached:
            if oid.file_id != src.file_id and (
                    oid in link_entries or oid in replica_entries):
                by_file.setdefault(oid.file_id, []).append(oid)
        for file_id, oids in by_file.items():
            self.store.update_many(self.storage.file_by_id(file_id), oids, enter)
        # 5. the sources
        if path.strategy is Strategy.SEPARATE:
            hidden = {
                row[0]: {path.hidden_ref: replica_entries[row[level]].replica_oid
                         if row[level] is not None else None}
                for row in rows}
        else:
            values = {terminal: self._values_from(path, objects.get(terminal))
                      for terminal in {row[level] for row in rows}}
            hidden = {row[0]: values[row[level]] for row in rows}

        def widen(oid: OID, obj: StoredObject) -> None:
            enter(oid, obj)
            for name, value in hidden[oid].items():
                obj.set(name, value)

        self.store.update_many(src.heap, [row[0] for row in rows], widen)

    def drop_path(self, text: str) -> None:
        """Remove a replication path and dismantle structures it alone uses.

        Links shared with surviving paths are left intact; links now unused
        are torn down wholesale (their owners' ``(link-OID, link-ID)``
        pairs detached, the link file dropped).
        """
        path = self.catalog.get_path(text)
        if path.index_names:
            raise ReplicationError(
                f"drop indexes {path.index_names} before dropping path {text!r}"
            )
        self.catalog.drop_path(text)
        src = self.catalog.get_set(path.source_set)
        for position, link_id in enumerate(path.link_sequence, start=1):
            if self.catalog.paths_using_link(link_id):
                continue  # still shared with a surviving path
            self._teardown_link(link_id, path, position)
        if path.strategy is Strategy.SEPARATE:
            self._teardown_replicas(path, src)
        # Narrow the source type and strip hidden values from records.  The
        # surviving records are decoded under the wide layout first, then
        # re-encoded under the narrow one.
        hidden_names = list(path.hidden_fields)
        if path.hidden_ref:
            hidden_names.append(path.hidden_ref)
        new_type = src.type_def
        for name in hidden_names:
            new_type = new_type.without_field(name)
        survivors = [
            (
                oid,
                StoredObject(
                    new_type,
                    {f.name: obj.values[f.name] for f in new_type.fields},
                    obj.link_entries,
                    obj.replica_entries,
                ),
            )
            for oid, obj in src.scan()
        ]
        self.catalog.registry.replace(src.type_name, new_type)
        for oid, slim in survivors:
            self.store.update(oid, slim)
        if path.lazy:
            self.lazy.unregister(path)

    def _teardown_link(self, link_id: int, path: ReplicationPath,
                       position: int) -> None:
        link = self.catalog.get_link(link_id)
        touched: set[OID] = set()
        for __link_oid, link_obj in list(link.file.scan()):
            touched.add(link_obj.owner)
            if link.collapsed:
                touched.update(tag for __m, tag in link_obj.entries)
        # Inlined singleton entries (§4.3.1) never appear in the link file;
        # find their owners by walking the forward prefix from the source.
        if self.inverted.inline_singletons and not link.collapsed:
            src = self.catalog.get_set(path.source_set)
            prefix = list(path.resolved.ref_chain[:position])
            for __oid, obj in src.scan():
                owner = self._terminal_oid(obj, prefix)
                if owner is not None:
                    touched.add(owner)
        for oid in touched:
            obj = self.store.read(oid)
            obj.remove_link_entry(link_id)
            self.store.update(oid, obj)
        self.catalog.remove_link(link_id)
        # Co-located links (§4.3.2) share one file; drop it only once the
        # last link using it is gone.
        file_id = link.file.heap.file_id
        still_used = any(
            other.file.heap.file_id == file_id for other in self.catalog.links.values()
        )
        if not still_used:
            self.storage.drop_file(self.storage.file_name(file_id))

    def _teardown_replicas(self, path: ReplicationPath, src: ObjectSet) -> None:
        seen: set[OID] = set()
        for __oid, obj in src.scan():
            terminal_oid = self._terminal_oid(obj, path.resolved.ref_chain)
            if terminal_oid is None or terminal_oid in seen:
                continue
            seen.add(terminal_oid)
            terminal = self.store.read(terminal_oid)
            if terminal.replica_entry_for(path.path_id) is not None:
                terminal.remove_replica_entry(path.path_id)
                self.store.update(terminal_oid, terminal)
        replica = self.replica_sets.pop(path.path_id)
        self.storage.drop_file(replica.name)

    # ==================================================================
    # hooks called by the Database facade
    # ==================================================================

    def after_insert(self, obj_set: ObjectSet, oid: OID, obj: StoredObject) -> None:
        """Maintain every path emanating from ``obj_set`` for a new member."""
        changes: dict[str, object] = {}
        for path in self.catalog.paths_on_source(obj_set.name):
            if path.collapsed:
                changes.update(self.collapsed.after_insert(path, oid, obj))
                continue
            changes.update(self._enroll_source_object(path, oid, obj))
        if changes:
            # The caller (Database.insert) adds index entries for the final
            # object afterwards, so skip index maintenance here.
            self.apply_hidden_changes(obj_set, oid, changes, maintain_indexes=False)

    def before_delete(self, obj_set: ObjectSet, oid: OID, obj: StoredObject) -> None:
        """Withdraw a member; refuse when other objects still reference it."""
        if obj.link_entries:
            raise IntegrityError(
                f"object {oid} is referenced on replication path(s); delete referencers first"
            )
        if obj.replica_entries:
            raise IntegrityError(
                f"object {oid} has live replicas; delete referencers first"
            )
        for path in self.catalog.paths_on_source(obj_set.name):
            self._withdraw_source_object(path, oid, obj)

    def _enroll_source_object(self, path: ReplicationPath, oid: OID,
                              obj: StoredObject) -> dict[str, object]:
        """Membership + hidden-value computation for one source object."""
        chain = path.resolved.ref_chain
        first_ref = obj.ref(chain[0])
        if path.strategy is Strategy.IN_PLACE:
            if first_ref is not None:
                first_link = self.catalog.get_link(path.link_sequence[0])
                self.inverted.ensure_membership(first_link, first_ref, oid)
            return self._hidden_values_for(path, obj)
        # separate
        if path.level == 1:
            replica_oid = (
                self.inverted.bump_replica(path, first_ref, +1)
                if first_ref is not None
                else None
            )
        else:
            if first_ref is not None:
                first_link = self.catalog.get_link(path.link_sequence[0])
                self.inverted.ensure_membership(first_link, first_ref, oid)
            terminal_oid = self._terminal_oid(obj, chain)
            replica_oid = self.inverted.replica_oid_for(path, terminal_oid)
        return {path.hidden_ref: replica_oid}

    def _withdraw_source_object(self, path: ReplicationPath, oid: OID,
                                obj: StoredObject) -> None:
        chain = path.resolved.ref_chain
        if path.collapsed:
            self.collapsed.before_delete(path, oid, obj)
            return
        first_ref = obj.ref(chain[0])
        if first_ref is None:
            return
        if path.strategy is Strategy.SEPARATE and path.level == 1:
            self.inverted.bump_replica(path, first_ref, -1)
            return
        first_link = self.catalog.get_link(path.link_sequence[0])
        self.inverted.remove_membership(first_link, first_ref, oid)

    # ------------------------------------------------------------------
    # update propagation
    # ------------------------------------------------------------------

    def propagate_update(self, obj_set: ObjectSet,
                         updates: dict) -> dict[OID, dict[str, object]]:
        """Handle the replication consequences of one statement's update
        of ``obj_set``: ``updates`` maps each victim, in the statement's
        order, to ``(old, new, changed)``, and is called once every
        ``new`` is stored.

        A moved reference attribute (withdraw and enroll, link surgery, a
        replica's reference count), a collapsed path, a separate path's
        replica and a lazy invalidation are handled victim by victim, as
        they come.  A changed replicated value is collected instead: each
        distinct (path, link, values) push runs once, after every victim
        was seen, over the sorted union of the closures of the victims
        that carry it (:meth:`_rewrite_hidden_over_closures`).  Unless a
        reference attribute moved, the closure walks start from the
        victims in hand: a value update changes no link entry, so no
        owner is read back.

        Returns, per victim, hidden-field changes that must be applied to
        it (a source object whose reference attribute moved gets fresh
        replicated values).
        """
        self._propagated.clear()  # a statement that raised counts nothing
        own: dict[OID, dict[str, object]] = {}
        # (path id, link id, values) -> (path, link, owners)
        pushes: dict[tuple, tuple] = {}
        moved = False
        for oid, (old, new, changed) in updates.items():
            own_changes: dict[str, object] = {}
            moved = moved or any(new.type_def.field_def(f).kind is FieldKind.REF
                                 for f in changed)
            # 1. This object is a source-set member whose first hop changed.
            for path in self.catalog.paths_on_source(obj_set.name):
                if path.resolved.ref_chain[0] not in changed:
                    continue
                if path.collapsed:
                    own_changes.update(
                        self.collapsed.on_source_ref_change(path, oid, old, new)
                    )
                    continue
                self._withdraw_source_object(path, oid, old)
                own_changes.update(self._enroll_source_object(path, oid, new))
            # 2. This object sits on inverted paths (it owns link objects
            #    or inline entries).
            for lentry in list(new.link_entries):
                link = self.catalog.get_link(lentry.base_id)
                if link.collapsed:
                    self.collapsed.on_owner_update(link, oid, old, new, changed)
                    continue
                for use in self.catalog.paths_using_link(link.link_id):
                    self._propagate_through_link(use.path, use.position, link,
                                                 oid, old, new, changed, pushes)
            # 3. This object is the terminal of separate paths (replica
            #    entries).
            for rentry in list(new.replica_entries):
                self._write_replica(rentry, new, changed)
            if own_changes:
                own[oid] = own_changes
        for (__, __, values), (path, link, owners) in pushes.items():
            owners = [(oid, None if moved else new) for oid, new in owners]
            if len(owners) == 1:  # e.g. every push of a one-victim update
                ((oid, owner),) = owners
                self._rewrite_hidden_over_closure(path, link, oid,
                                                  dict(values), owner)
            else:
                self._rewrite_hidden_over_closures(path, link, owners,
                                                   dict(values))
        self._record_propagations()
        return own

    def _count_propagation(self, path: ReplicationPath, owners: int,
                           referencers: int) -> None:
        """Add one push along ``path`` to this statement's tally."""
        tally = self._propagated.setdefault(path.text, [path, 0, 0])
        tally[1] += owners
        tally[2] += referencers

    def _invalidate(self, path: ReplicationPath, oid: OID) -> None:
        """Defer a lazy push to the path's next refresh, which counts the
        owners and referencers; the statement counts as propagating."""
        self.lazy.invalidate(path, oid)
        self._count_propagation(path, 0, 0)

    def _record_propagations(self, statement: bool = True) -> None:
        """A statement (or a lazy refresh) ends: one propagating
        statement per path it pushed along, however many pushes."""
        for path, owners, referencers in self._propagated.values():
            self.monitor.record_propagation(path, owners, referencers,
                                            statement)
        self._propagated.clear()

    def _write_replica(self, rentry, new: StoredObject,
                       changed: set[str]) -> None:
        """Copy ``new``'s changed replicated fields to its replica on the
        separate path ``rentry`` names."""
        path = self.catalog.get_path_by_id(rentry.path_id)
        touched = {
            f: new.values[f]
            for f in path.replicated_field_names
            if f in changed
        }
        if not touched:
            return
        self._m_replica_writes.inc()
        # one replica rewritten; its referencers read the new value
        self._count_propagation(path, 1, rentry.refcount)
        with self.telemetry.tracer.span("update_propagation",
                                        path=path.text,
                                        kind="replica_write"):
            replica_set = self.replica_sets[path.path_id]
            replica = replica_set.read(rentry.replica_oid)
            for fname, value in touched.items():
                replica.set(fname, value)
            replica_set.raw_update(rentry.replica_oid, replica)

    def _propagate_through_link(self, path: ReplicationPath, position: int,
                                link: LinkDef, oid: OID, old: StoredObject,
                                new: StoredObject, changed: set[str],
                                pushes: dict) -> None:
        chain = path.resolved.ref_chain
        if path.strategy is Strategy.IN_PLACE:
            if position == path.level and any(
                    f in changed for f in path.replicated_field_names):
                if path.lazy:
                    self._invalidate(path, oid)
                else:
                    values = tuple(self._values_from(path, new).items())
                    key = (path.path_id, link.link_id, values)
                    pushes.setdefault(key, (path, link, []))[2].append(
                        (oid, new))
            if position < path.level and chain[position] in changed:
                self._ref_surgery(path, position, link, oid, old, new)
                self._propagate_values(path, link, oid, new)
            return
        # separate paths: only reference attributes matter through links
        last = len(path.link_sequence)
        if position == last and chain[position] in changed:
            old_terminal = old.ref(chain[position])
            new_terminal = new.ref(chain[position])
            if old_terminal is not None:
                self.inverted.bump_replica(path, old_terminal, -1)
            replica_oid = (
                self.inverted.bump_replica(path, new_terminal, +1)
                if new_terminal is not None
                else None
            )
            self._rewrite_hidden_over_closure(path, link, oid,
                                              {path.hidden_ref: replica_oid})
        elif position < last and chain[position] in changed:
            self._ref_surgery(path, position, link, oid, old, new)
            terminal_oid = self._terminal_oid(new, chain[position:])
            replica_oid = self.inverted.replica_oid_for(path, terminal_oid)
            self._rewrite_hidden_over_closure(path, link, oid,
                                              {path.hidden_ref: replica_oid})

    def _ref_surgery(self, path: ReplicationPath, position: int, link: LinkDef,
                     oid: OID, old: StoredObject, new: StoredObject) -> None:
        """Move this object's membership in the next-deeper link."""
        ref_name = path.resolved.ref_chain[position]
        # The child is simply the next link of this path's sequence, which
        # also resolves correctly for private (co-located) link chains.
        child = self.catalog.get_link(path.link_sequence[position])
        old_target = old.ref(ref_name)
        new_target = new.ref(ref_name)
        if old_target is not None:
            self.inverted.remove_membership(child, old_target, oid)
        if new_target is not None:
            self.inverted.ensure_membership(child, new_target, oid)

    def _propagate_values(self, path: ReplicationPath, link: LinkDef, oid: OID,
                          new: StoredObject) -> None:
        """Push current terminal values to every source object under ``oid``."""
        if path.lazy:
            self._invalidate(path, oid)
            return
        self.push_values(path, link, oid, new)

    def push_values(self, path: ReplicationPath, link: LinkDef, oid: OID,
                    at_object: StoredObject, fresh: bool = False) -> None:
        """Eagerly rewrite hidden values over the closure under ``oid``.

        ``at_object`` is the (current) object owning ``link``; the terminal
        is reached from it through the remaining forward references.
        ``fresh``: the caller read or wrote ``at_object`` last of all, so
        reading it back to start the closure walk would fetch the page
        just touched and decode the same object again.
        """
        position = len(link.prefix)
        chain = path.resolved.ref_chain
        if position == path.level:
            terminal = at_object
        else:
            fresh = False
            terminal = self.store.traverse(at_object, list(chain[position:]))
        self._rewrite_hidden_over_closure(path, link, oid,
                                          self._values_from(path, terminal),
                                          at_object if fresh else None)

    def _rewrite_hidden_over_closure(self, path: ReplicationPath, link: LinkDef,
                                     oid: OID, changes: dict[str, object],
                                     owner: StoredObject | None = None) -> None:
        """:meth:`_rewrite_hidden_over_closures` under the one owner
        ``oid`` (``owner``: its object, see
        :meth:`InvertedPaths.closure_to_source`)."""
        self._rewrite_hidden_over_closures(path, link, [(oid, owner)], changes)

    def _rewrite_hidden_over_closures(self, path: ReplicationPath,
                                      link: LinkDef, owners,
                                      changes: dict[str, object]) -> None:
        """The paper's update model, literally: the *f* referencers under
        each of ``owners`` (``(oid, object or None)`` pairs, see
        :meth:`InvertedPaths.closures`), the *k* bytes of each hidden
        field, in page order.  For a statement's victims that is the
        model's one Yao term over the union of their closures: a page
        holding referencers of several victims is pinned once.

        One :meth:`ObjectStore.overwrite_fields` call over the sorted
        union; :meth:`apply_hidden_changes` is what it falls back to for
        a referencer that cannot be overwritten where it lies.  Under one
        owner that rewrite runs there and then, in the sweep.  Under
        several it runs after the sweep, owner by owner and each closure
        in page order -- the order a statement that wrote one victim at a
        time reached them in -- so a record that grows out of its page
        moves where it always did.
        """
        source_set = self.catalog.get_set(path.source_set)
        closures = self.inverted.closures(link, owners)
        deferred: list[OID] = []
        if len(closures) == 1:
            targets = closures[0]

            def general(target: OID) -> None:
                self.apply_hidden_changes(source_set, target, changes)
        else:
            targets = sorted(t for closure in closures for t in closure)
            general = deferred.append
        self._m_propagations.inc(len(owners))
        fanout = len(targets)
        with self.telemetry.tracer.span("update_propagation",
                                        path=path.text) as span:
            pages = self.store.overwrite_fields(
                source_set.heap, source_set.type_def, targets, changes,
                general=general,
                indexes=self.catalog.field_indexes(source_set.name, changes))
            if deferred:
                owner_of = {t: i for i, closure in enumerate(closures)
                            for t in closure}
                for target in sorted(deferred, key=lambda t: (owner_of[t], t)):
                    self.apply_hidden_changes(source_set, target, changes)
            span.set("fanout", fanout)
            span.set("pages", pages)
        self._m_fanout.inc(fanout)
        self._count_propagation(path, len(owners), fanout)

    # ------------------------------------------------------------------
    # hidden-field writes (index-maintaining)
    # ------------------------------------------------------------------

    def apply_hidden_changes(self, obj_set: ObjectSet, oid: OID,
                             changes: dict[str, object],
                             maintain_indexes: bool = True) -> None:
        """Write hidden-field changes to one object, keeping path indexes
        consistent: the general decode -> set -> encode path, which brings
        a record written before a widening to the current layout (growing
        and, if need be, relocating it).  Collapsed bulk builds, the doctor
        and a source object's own fresh values come here; an update propagation
        comes here only for the referencers it cannot overwrite in place.
        """
        obj = self.store.read(oid)
        for fname, value in changes.items():
            if maintain_indexes:
                info = self.catalog.index_on_field(obj_set.name, fname)
                if info is not None:
                    info.index.update(obj.values.get(fname), value, oid)
            obj.set(fname, value)
        self.store.update(oid, obj)

    def _hidden_values_for(self, path: ReplicationPath, obj: StoredObject,
                           reads=None) -> dict:
        """``obj``'s hidden values as its forward chain gives them
        (``reads``: a :class:`ReadMemo` to read the chain through)."""
        return self._values_from(path, (reads or self.store).traverse(
            obj, list(path.resolved.ref_chain)))

    def _values_from(self, path: ReplicationPath,
                     terminal: StoredObject | None) -> dict:
        """Hidden field -> value, copied from ``terminal`` (kind defaults
        for a broken chain)."""
        terminal_type = self.store.registry.get(path.resolved.terminal_type)
        return {
            hname: (terminal.values[fname] if terminal is not None
                    else _default_value(terminal_type.field_def(fname)))
            for fname, hname in zip(path.replicated_field_names,
                                    path.hidden_fields)
        }

    def _terminal_oid(self, obj: StoredObject, chain, reads=None) -> OID | None:
        """OID of the object at the end of ``chain`` starting from ``obj``."""
        current = (reads or self.store).traverse(obj, list(chain)[:-1])
        return None if current is None else current.ref(chain[-1])

    # ------------------------------------------------------------------
    # lazy propagation
    # ------------------------------------------------------------------

    def refresh_path(self, path: ReplicationPath) -> int:
        """Drain pending lazy invalidations; returns objects refreshed.

        The drain mutates pages outside any DML statement, so it runs in a
        WAL statement scope of its own (joining an enclosing one, if any).
        """
        if not path.lazy:
            return 0
        if self.recovery is not None:
            with self.recovery.statement(f"refresh {path.text}"):
                return self._refresh_path_inner(path)
        return self._refresh_path_inner(path)

    def _refresh_path_inner(self, path: ReplicationPath) -> int:
        self._propagated.clear()
        refreshed = 0
        link = self.catalog.get_link(path.link_sequence[-1])
        for owner_oid in self.lazy.drain(path):
            if not self.store.exists(owner_oid):
                continue
            self.push_values(path, link, owner_oid,
                             self.store.read(owner_oid), fresh=True)
            refreshed += 1
        self._record_propagations(statement=False)
        return refreshed

    def refresh_all(self) -> int:
        """Refresh every lazy path."""
        return sum(self.refresh_path(p) for p in self.catalog.paths.values() if p.lazy)

    # ==================================================================
    # consistency verification
    # ==================================================================

    def verify(self, reads: ReadMemo | None = None) -> None:
        """Recompute every path from its forward references and compare.

        Raises :class:`IntegrityError` on the first inconsistency.  Lazy
        paths are refreshed first (their contract is consistency *after*
        refresh).  Every object the check reaches is read once, through
        ``reads`` (a doctor passes the map of its own sweep) or a map of
        this pass's own.
        """
        if self.refresh_all() and reads is not None:
            reads.drop()
        if reads is None:
            reads = ReadMemo(self.store)
        expected_links: dict[int, dict[OID, set]] = {}
        expected_refcounts: dict[int, dict[OID, set]] = {}
        for path in self.catalog.paths.values():
            self._verify_path(path, expected_links, expected_refcounts, reads)
        self._verify_links(expected_links, reads)
        self._verify_refcounts(expected_refcounts, reads)

    def _verify_path(self, path: ReplicationPath, expected_links,
                     expected_refcounts, reads: ReadMemo) -> None:
        src = self.catalog.get_set(path.source_set)
        chain = path.resolved.ref_chain
        for oid, obj in src.scan():
            terminal = reads.traverse(obj, list(chain))
            if path.strategy is Strategy.IN_PLACE:
                self._verify_inplace_values(path, oid, obj, terminal)
            else:
                self._verify_separate_values(path, oid, obj, terminal, reads)
            if path.collapsed:
                self.collapsed.record_expected(path, oid, obj, expected_links)
                continue
            # expected link memberships along the chain; the last hop's
            # target is an owner, not a member, so it is not read
            current_oid, current = oid, obj
            for hop, (link_id, ref_name) in enumerate(
                    zip(path.link_sequence, chain), start=1):
                target_oid = current.ref(ref_name)
                if target_oid is None:
                    break
                expected_links.setdefault(link_id, {}).setdefault(
                    target_oid, set()
                ).add(current_oid)
                if hop < len(path.link_sequence):
                    current_oid, current = target_oid, reads.read(target_oid)
            if path.strategy is Strategy.SEPARATE:
                participant_oid, terminal_oid = self._separate_terminal_edge(
                    path, oid, obj, reads)
                if terminal_oid is not None:
                    expected_refcounts.setdefault(path.path_id, {}).setdefault(
                        terminal_oid, set()
                    ).add(participant_oid)

    def _separate_terminal_edge(self, path, oid, obj, reads=None):
        """(level n-1 participant OID, terminal OID) for one source object."""
        chain = list(path.resolved.ref_chain)
        current_oid, current = oid, obj
        for ref_name in chain[:-1]:
            nxt = current.ref(ref_name)
            if nxt is None:
                return None, None
            current_oid, current = nxt, (reads or self.store).read(nxt)
        return current_oid, current.ref(chain[-1])

    def _verify_inplace_values(self, path, oid, obj, terminal) -> None:
        for hname, expected in self._values_from(path, terminal).items():
            actual = obj.values.get(hname)
            if actual != expected:
                raise IntegrityError(
                    f"{path.text}: object {oid} replicates {actual!r}, "
                    f"source holds {expected!r}"
                )

    def _verify_separate_values(self, path, oid, obj, terminal,
                                reads: ReadMemo) -> None:
        hidden = obj.values.get(path.hidden_ref)
        if terminal is None:
            if hidden is not None:
                raise IntegrityError(f"{path.text}: object {oid} has a replica ref "
                                     f"but its forward chain is broken")
            return
        terminal_oid = self._terminal_oid(obj, path.resolved.ref_chain, reads)
        entry = reads.read(terminal_oid).replica_entry_for(path.path_id)
        if entry is None:
            raise IntegrityError(f"{path.text}: terminal {terminal_oid} lacks a replica")
        if hidden != entry.replica_oid:
            raise IntegrityError(
                f"{path.text}: object {oid} points at replica {hidden}, "
                f"terminal advertises {entry.replica_oid}"
            )
        replica = reads.read(entry.replica_oid)
        for fname in path.replicated_field_names:
            if replica.values[fname] != terminal.values[fname]:
                raise IntegrityError(
                    f"{path.text}: replica field {fname!r} is stale "
                    f"({replica.values[fname]!r} != {terminal.values[fname]!r})"
                )

    def _verify_links(self, expected_links: dict[int, dict[OID, set]],
                      reads: ReadMemo) -> None:
        live_link_ids = {
            lid for p in self.catalog.paths.values() for lid in p.link_sequence
        }
        for link_id in live_link_ids:
            link = self.catalog.get_link(link_id)
            expected = expected_links.get(link_id, {})
            actual: dict[OID, set] = {}
            siblings = [
                other
                for other in self.catalog.links.values()
                if other.file.heap.file_id == link.file.heap.file_id
                and other.link_id != link_id
            ]
            for link_oid, link_obj in link.file.scan():
                owner = reads.read(link_obj.owner)
                entry = owner.link_entry_for(link_id)
                if entry is None or entry.inline or entry.link_oid != link_oid:
                    # Co-located file (§4.3.2): the object may belong to a
                    # sibling link sharing this file.
                    belongs_elsewhere = any(
                        (sib_entry := owner.link_entry_for(sib.link_id)) is not None
                        and not sib_entry.inline
                        and sib_entry.link_oid == link_oid
                        for sib in siblings
                    )
                    if belongs_elsewhere:
                        continue
                    raise IntegrityError(
                        f"link {link_id}: owner {link_obj.owner} does not point "
                        f"back at link object {link_oid}"
                    )
                if link.collapsed:
                    entries = {member for member, __tag in link_obj.entries}
                else:
                    entries = set(link_obj.entries)
                actual[link_obj.owner] = entries
            # owners served by inlined singleton entries (Section 4.3.1)
            for owner_oid in expected:
                if owner_oid in actual:
                    continue
                entry = reads.read(owner_oid).link_entry_for(link_id)
                if entry is not None and entry.inline:
                    actual[owner_oid] = {entry.link_oid}
            if actual != expected:
                raise IntegrityError(
                    f"link {link_id}: stored inverse mapping diverges from "
                    f"forward references ({actual} != {expected})"
                )

    def _verify_refcounts(self, expected: dict[int, dict[OID, set]],
                          reads: ReadMemo) -> None:
        for path in self.catalog.paths.values():
            if path.strategy is not Strategy.SEPARATE:
                continue
            want = {
                oid: len(members)
                for oid, members in expected.get(path.path_id, {}).items()
            }
            have: dict[OID, int] = {}
            terminal_oids = set(want)
            # also sweep every replica entry we can reach through want's keys
            for terminal_oid in terminal_oids:
                entry = reads.read(terminal_oid).replica_entry_for(path.path_id)
                if entry is not None:
                    have[terminal_oid] = entry.refcount
            if want != have:
                raise IntegrityError(
                    f"{path.text}: replica refcounts diverge ({have} != {want})"
                )
            count = self.replica_sets[path.path_id].count()
            if count != len(want):
                raise IntegrityError(
                    f"{path.text}: replica set holds {count} objects, expected {len(want)}"
                )


def _default_value(fdef: FieldDef):
    return _default_for(fdef.kind)
