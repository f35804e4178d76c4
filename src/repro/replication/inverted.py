"""Inverted-path maintenance (Sections 4.1 and 5.2).

An inverted path is a chain of links; each link maps referenced objects to
their referencers through :class:`~repro.replication.links.LinkFile`
objects.  This module owns the *membership* algebra:

* :meth:`InvertedPaths.ensure_membership` -- the referencer enters a link;
  when the referenced object thereby enters the path for the first time,
  the effect ripples to deeper links ("a link object may have to be created
  for not just D, but O, too") and, for separate paths, to the terminal's
  replica reference count.
* :meth:`InvertedPaths.remove_membership` -- the inverse ripple: emptied
  link objects are deleted, their owners' ``(link-OID, link-ID)`` pairs
  detached, and deeper memberships withdrawn.
* :meth:`InvertedPaths.closure_to_source` -- walk a link chain downwards to
  the source-set objects, the step every update propagation ends with.

All operations are idempotent, which is what makes shared links (several
replication paths with a common prefix, Section 4.1.4) safe: each path may
replay the same membership change and only the first replay acts.
"""

from __future__ import annotations

from repro.objects.instance import INLINE_LINK_FLAG as _INLINE
from repro.objects.instance import LinkEntry, ReplicaEntry, StoredObject
from repro.objects.store import ObjectStore
from repro.replication.spec import ReplicationPath, Strategy
from repro.storage.oid import OID
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only; avoids an import cycle with schema
    from repro.schema.catalog import Catalog, LinkDef


class InvertedPaths:
    """Membership maintenance over the link registry.

    When ``inline_singletons`` is set, the §4.3.1 optimization applies:
    a link object holding one OID is never materialised -- the lone
    referencer's OID is stored directly in the owner's ``(link-OID,
    link-ID)`` pair (flagged inline), upgraded to a real link object when a
    second referencer arrives and downgraded back when membership drops to
    one.
    """

    def __init__(self, catalog: Catalog, store: ObjectStore, replica_sets,
                 inline_singletons: bool = False, telemetry=None) -> None:
        self.catalog = catalog
        self.store = store
        #: path_id -> replica ObjectSet (owned by the ReplicationManager).
        self.replica_sets = replica_sets
        self.inline_singletons = inline_singletons
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        self._m_link_touches = telemetry.metrics.counter(
            "replication_link_touches_total",
            "link-object membership inserts/removals")
        self._m_replica_bumps = telemetry.metrics.counter(
            "replication_replica_bumps_total",
            "replica reference-count adjustments (separate strategy)")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def ensure_membership(self, link: LinkDef, owner_oid: OID, member_oid: OID) -> None:
        """Make ``member`` a referencer of ``owner`` across ``link``.

        If the owner already carries an entry for the link it is already on
        the path, so deeper invariants hold and only the (idempotent)
        member insertion happens.  Otherwise the owner newly enters the
        path and the entry ripples deeper.
        """
        self._m_link_touches.inc()
        with self.telemetry.tracer.span("link_maintenance", op="attach",
                                        link_id=link.link_id):
            self._attach(link, owner_oid, member_oid)

    def _attach(self, link: LinkDef, owner_oid: OID, member_oid: OID) -> None:
        owner = self.store.read(owner_oid)
        entry = owner.link_entry_for(link.link_id)
        if entry is None:
            if self.inline_singletons:
                owner.add_link_entry(
                    LinkEntry(member_oid, link.link_id | _INLINE)
                )
            else:
                link_oid = link.file.create(owner_oid, [member_oid])
                owner.add_link_entry(LinkEntry(link_oid, link.link_id))
            self.store.update(owner_oid, owner)
            self._cascade_enter(link, owner_oid, owner)
            return
        if entry.inline:
            if entry.link_oid == member_oid:
                return
            # second referencer: upgrade to a real link object
            link_oid = link.file.create(owner_oid, [entry.link_oid, member_oid])
            owner.add_link_entry(LinkEntry(link_oid, link.link_id))
            self.store.update(owner_oid, owner)
            return
        link.file.add(entry.link_oid, member_oid)

    def remove_membership(self, link: LinkDef, owner_oid: OID, member_oid: OID) -> None:
        """Withdraw ``member`` from ``owner``'s link object across ``link``.

        When the link object empties it is deleted, the owner's link entry
        detached, and the owner's own memberships one level deeper are
        withdrawn in turn.
        """
        self._m_link_touches.inc()
        with self.telemetry.tracer.span("link_maintenance", op="remove",
                                        link_id=link.link_id):
            self._remove_membership(link, owner_oid, member_oid)

    def _remove_membership(self, link: LinkDef, owner_oid: OID,
                           member_oid: OID) -> None:
        owner = self.store.read(owner_oid)
        entry = owner.link_entry_for(link.link_id)
        if entry is None:
            return
        if entry.inline:
            if entry.link_oid != member_oid:
                return
            owner.remove_link_entry(link.link_id)
            self.store.update(owner_oid, owner)
            self._cascade_leave(link, owner_oid, owner)
            return
        removed, empty = link.file.remove(entry.link_oid, member_oid)
        if not removed:
            return
        if empty:
            link.file.delete(entry.link_oid)
            owner.remove_link_entry(link.link_id)
            self.store.update(owner_oid, owner)
            self._cascade_leave(link, owner_oid, owner)
            return
        if self.inline_singletons:
            members = link.file.members(entry.link_oid)
            if len(members) == 1:
                # downgrade: inline the last referencer
                link.file.delete(entry.link_oid)
                owner.add_link_entry(LinkEntry(members[0], link.link_id | _INLINE))
                self.store.update(owner_oid, owner)

    def _cascade_enter(self, link: LinkDef, owner_oid: OID, owner: StoredObject) -> None:
        for child in self.catalog.child_links(link):
            target = owner.ref(child.prefix[-1])
            if target is not None:
                self.ensure_membership(child, target, owner_oid)
        for path, terminal_ref in self._separate_paths_ending_at(link):
            target = owner.ref(terminal_ref)
            if target is not None:
                self.bump_replica(path, target, +1)

    def _cascade_leave(self, link: LinkDef, owner_oid: OID, owner: StoredObject) -> None:
        for child in self.catalog.child_links(link):
            target = owner.ref(child.prefix[-1])
            if target is not None:
                self.remove_membership(child, target, owner_oid)
        for path, terminal_ref in self._separate_paths_ending_at(link):
            target = owner.ref(terminal_ref)
            if target is not None:
                self.bump_replica(path, target, -1)

    def _separate_paths_ending_at(self, link: LinkDef):
        """Separate paths whose inverted path ends at ``link``: their
        terminal hop is the owner's last reference attribute."""
        out = []
        for use in self.catalog.paths_using_link(link.link_id):
            path = use.path
            if (
                path.strategy is Strategy.SEPARATE
                and path.link_sequence
                and path.link_sequence[-1] == link.link_id
                and use.position == len(path.link_sequence)
            ):
                out.append((path, path.resolved.ref_chain[-1]))
        return out

    # ------------------------------------------------------------------
    # bulk builds
    # ------------------------------------------------------------------

    def bulk_attach(self, links, memberships,
                    owners: dict[OID, StoredObject]) -> dict[OID, list[LinkEntry]]:
        """Enter every membership of a bulk build at once, cascade-free:
        ``memberships`` holds one ``owner -> members`` map per link of
        ``links`` (every link of the chain is passed), ``owners`` each
        owner's current object.

        Each new link object is written once, whole, in owner-OID order
        (one :meth:`LinkFile.create_many` per link file); members new to
        an owner's existing link object are merged into it with one read
        and one write.  A §4.3.1 singleton becomes an inline entry.
        Returns the link entries each owner must now carry; writing them
        is the caller's business.
        """
        entries: dict[OID, list[LinkEntry]] = {}
        creates: dict = {}  # link file -> [(link, owner, members)]
        touched = 0
        for link, members_of in zip(links, memberships):
            for owner, members in sorted(members_of.items()):
                entry = owners[owner].link_entry_for(link.link_id)
                if entry is not None and not entry.inline:
                    touched += link.file.merge(entry.link_oid, members)
                    continue
                held = set() if entry is None else {entry.link_oid}
                if members <= held:
                    continue
                touched += len(members - held)
                members = members | held
                if self.inline_singletons and len(members) == 1:
                    (member,) = members
                    entries.setdefault(owner, []).append(
                        LinkEntry(member, link.link_id | _INLINE))
                else:
                    creates.setdefault(link.file, []).append(
                        (link, owner, members))
        for link_file, batch in creates.items():
            link_oids = link_file.create_many(
                [(owner, members) for __, owner, members in batch])
            for (link, owner, __), link_oid in zip(batch, link_oids):
                entries.setdefault(owner, []).append(
                    LinkEntry(link_oid, link.link_id))
        self._m_link_touches.inc(touched)
        return entries

    def bulk_replicas(self, path: ReplicationPath, participants: dict,
                      terminals: dict[OID, StoredObject]) -> dict[OID, ReplicaEntry]:
        """Create the replica of every terminal of ``participants``
        (terminal -> the level-(n-1) objects that reach it), in the order
        given, with ``terminals`` holding their current objects; returns
        each terminal's replica entry at its final reference count, for
        the caller to write."""
        replica_set = self.replica_sets[path.path_id]
        names = path.replicated_field_names
        replica_oids = self.store.insert_many(replica_set.heap, [
            StoredObject(replica_set.type_def,
                         {f: terminals[terminal].values[f] for f in names})
            for terminal in participants])
        self._m_replica_bumps.inc(sum(map(len, participants.values())))
        return {
            terminal: ReplicaEntry(replica_oid, len(reached), path.path_id)
            for (terminal, reached), replica_oid
            in zip(participants.items(), replica_oids)
        }

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------

    def closure_to_source(self, link: LinkDef, owner_oid: OID,
                          owner: StoredObject | None = None) -> list[OID]:
        """Source-set OIDs reachable from ``owner`` down this link chain.

        The result is sorted, so callers propagate in clustered order --
        the point of keeping OIDs physically based (Section 4.1): an
        update propagation pins each page of referencers once.

        ``owner`` is the object at ``owner_oid`` for a caller that holds
        it as stored; the walk then starts from it instead of reading it
        back (only its link entries are read).
        """
        return self.closures(link, [(owner_oid, owner)])[0]

    def closures(self, link: LinkDef, owners) -> list[list[OID]]:
        """:meth:`closure_to_source` of each ``(oid, object or None)``
        pair of ``owners``, in order."""
        out = []
        for owner_oid, owner in owners:
            closure = self._closure(link, owner_oid, owner)
            closure.sort()
            out.append(closure)
        return out

    def _closure(self, link: LinkDef, owner_oid: OID,
                 owner: StoredObject | None = None) -> list[OID]:
        if owner is None:
            owner = self.store.read(owner_oid)
        entry = owner.link_entry_for(link.link_id)
        if entry is None:
            return []
        if entry.inline:
            members = [entry.link_oid]
        else:
            members = link.file.members(entry.link_oid)
        if len(link.prefix) == 1:
            return list(members)
        if link.parent_link_id is not None:
            parent = self.catalog.get_link(link.parent_link_id)
        else:
            parent = self.catalog.link_for_prefix(link.source_set, link.prefix[:-1])
        out: list[OID] = []
        for member in members:
            out.extend(self._closure(parent, member))
        return out

    # ------------------------------------------------------------------
    # separate-replication replica accounting
    # ------------------------------------------------------------------

    def bump_replica(self, path: ReplicationPath, terminal_oid: OID, delta: int) -> OID | None:
        """Adjust the terminal's replica reference count by ±1.

        On the first reference a replica object is created in S' with the
        terminal's current replicated values; on the last withdrawal the
        replica is garbage collected.  Returns the replica OID (None after
        a collecting decrement).
        """
        self._m_replica_bumps.inc()
        terminal = self.store.read(terminal_oid)
        entry = terminal.replica_entry_for(path.path_id)
        replica_set = self.replica_sets[path.path_id]
        if delta > 0:
            if entry is None:
                values = {
                    f: terminal.values[f] for f in path.replicated_field_names
                }
                replica_oid = replica_set.raw_insert(
                    StoredObject(replica_set.type_def, values)
                )
                terminal.set_replica_entry(ReplicaEntry(replica_oid, 1, path.path_id))
            else:
                terminal.set_replica_entry(
                    ReplicaEntry(entry.replica_oid, entry.refcount + 1, path.path_id)
                )
                replica_oid = entry.replica_oid
            self.store.update(terminal_oid, terminal)
            return replica_oid
        # decrement
        if entry is None:
            return None
        if entry.refcount <= 1:
            replica_set.raw_delete(entry.replica_oid)
            terminal.remove_replica_entry(path.path_id)
            self.store.update(terminal_oid, terminal)
            return None
        terminal.set_replica_entry(
            ReplicaEntry(entry.replica_oid, entry.refcount - 1, path.path_id)
        )
        self.store.update(terminal_oid, terminal)
        return entry.replica_oid

    def replica_oid_for(self, path: ReplicationPath, terminal_oid: OID | None) -> OID | None:
        """The replica OID currently serving ``terminal`` on ``path``."""
        if terminal_oid is None:
            return None
        entry = self.store.read(terminal_oid).replica_entry_for(path.path_id)
        return entry.replica_oid if entry is not None else None
