"""Collapsed inverted paths (Section 4.3.3).

A 2-level in-place path ``R.a.b.field`` normally maintains two links
(``R.a^-1`` and ``a.b^-1``); collapsing merges them into one link
``R.b^-1`` whose entries are *tagged*: each source-object OID is paired
with the OID of the intermediate object it arrived through.  Updates to
the terminal's data fields then reach the source objects through a single
link-object read -- the optimization's win -- at the price of costlier
reference-attribute updates (tag-driven entry moves) and no link sharing.

Both the terminal object (the link object's owner) and every intermediate
object carry a ``(link-OID, link-ID)`` pair for the collapsed link; the
intermediate's pair is what lets the system discover that an update to its
reference attribute affects the path (the paper's tags serve exactly this
discovery).  Because a tag-carrying intermediate with a *null* forward
reference would be undiscoverable, collapsed paths require the reference
chain to stay non-null -- consistent with the paper's advice to collapse
only static paths.
"""

from __future__ import annotations

from repro.errors import ReplicationError
from repro.objects.instance import LinkEntry, StoredObject
from repro.objects.store import ObjectStore
from repro.replication.spec import ReplicationPath
from repro.storage.oid import OID
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only; avoids an import cycle with schema
    from repro.schema.catalog import Catalog, LinkDef


class CollapsedPaths:
    """Maintenance of collapsed 2-level in-place paths."""

    def __init__(self, catalog: Catalog, store: ObjectStore) -> None:
        self.catalog = catalog
        self.store = store

    # -- helpers ------------------------------------------------------------

    def _link(self, path: ReplicationPath) -> LinkDef:
        return self.catalog.get_link(path.link_sequence[0])

    def _hidden_changes(self, path: ReplicationPath,
                        terminal: StoredObject | None) -> dict[str, object]:
        from repro.objects.instance import _default_for

        terminal_type = self.store.registry.get(path.resolved.terminal_type)
        changes = {}
        for fname, hname in zip(path.replicated_field_names, path.hidden_fields):
            changes[hname] = (
                terminal.values[fname]
                if terminal is not None
                else _default_for(terminal_type.field_def(fname).kind)
            )
        return changes

    def _chain(self, path: ReplicationPath) -> tuple[str, str]:
        a, b = path.resolved.ref_chain
        return a, b

    # -- membership ---------------------------------------------------------

    def after_insert(self, path: ReplicationPath, oid: OID,
                     obj: StoredObject) -> dict[str, object]:
        """Enroll a new source object; returns its hidden-value changes."""
        ref_a, ref_b = self._chain(path)
        mid_oid = obj.ref(ref_a)
        if mid_oid is None:
            return self._hidden_changes(path, None)
        mid = self.store.read(mid_oid)
        terminal_oid = mid.ref(ref_b)
        if terminal_oid is None:
            raise ReplicationError(
                f"collapsed path {path.text!r} requires {ref_b!r} to be non-null"
            )
        self._add_entry(path, oid, mid_oid, terminal_oid)
        return self._hidden_changes(path, self.store.read(terminal_oid))

    def before_delete(self, path: ReplicationPath, oid: OID, obj: StoredObject) -> None:
        """Withdraw a source object from the collapsed link."""
        ref_a, __ = self._chain(path)
        mid_oid = obj.ref(ref_a)
        if mid_oid is None:
            return
        self._remove_entry(path, oid, mid_oid)

    def on_source_ref_change(self, path: ReplicationPath, oid: OID,
                             old: StoredObject, new: StoredObject) -> dict[str, object]:
        """The source object's first hop moved: relocate its tagged entry."""
        self.before_delete(path, oid, old)
        return self.after_insert(path, oid, new)

    # -- owner / intermediate updates -----------------------------------------

    def on_owner_update(self, link: LinkDef, oid: OID, old: StoredObject,
                        new: StoredObject, changed: set[str]) -> None:
        """Dispatch an update to an object carrying the collapsed link id.

        The carrier is either the terminal (it owns the link object) or an
        intermediate (its pair exists for tag discovery); the roles are
        told apart by the stored owner OID.
        """
        entry = new.link_entry_for(self._path_for_link(link).link_sequence[0])
        path = self._path_for_link(link)
        link_obj = link.file.read(entry.link_oid)
        if link_obj.owner == oid:
            self._on_terminal_update(path, link, oid, new, changed)
        else:
            self._on_intermediate_update(path, link, oid, old, new, changed)

    def _path_for_link(self, link: LinkDef) -> ReplicationPath:
        uses = self.catalog.paths_using_link(link.link_id)
        if not uses:
            raise ReplicationError(f"collapsed link {link.link_id} has no path")
        return uses[0].path  # collapsed links are private to one path

    def _on_terminal_update(self, path: ReplicationPath, link: LinkDef, oid: OID,
                            new: StoredObject, changed: set[str]) -> None:
        touched = [f for f in path.replicated_field_names if f in changed]
        if not touched:
            return
        changes = self._hidden_changes(path, new)
        source_set = self.catalog.get_set(path.source_set)
        entry = new.link_entry_for(path.link_sequence[0])
        members = sorted(m for m, __tag in link.file.members(entry.link_oid))
        # One link-object read reached every source object: the collapse win.
        self._rewrite_members(source_set, members, changes)

    def _on_intermediate_update(self, path: ReplicationPath, link: LinkDef,
                                mid_oid: OID, old: StoredObject,
                                new: StoredObject, changed: set[str]) -> None:
        __, ref_b = self._chain(path)
        if ref_b not in changed:
            return
        new_terminal_oid = new.ref(ref_b)
        if new_terminal_oid is None:
            raise ReplicationError(
                f"collapsed path {path.text!r} requires {ref_b!r} to stay non-null"
            )
        entry = new.link_entry_for(path.link_sequence[0])
        old_link_obj = link.file.read(entry.link_oid)
        moving = [(m, tag) for m, tag in old_link_obj.entries if tag == mid_oid]
        # Detach from the old owner's link object.
        for pair in moving:
            link.file.remove(entry.link_oid, pair)
        remaining = link.file.read(entry.link_oid)
        if remaining.is_empty():
            owner = self.store.read(old_link_obj.owner)
            owner.remove_link_entry(path.link_sequence[0])
            self.store.update(old_link_obj.owner, owner)
            link.file.delete(entry.link_oid)
        # Attach to the new owner's link object.
        for member, __tag in moving:
            self._add_entry(path, member, mid_oid, new_terminal_oid)
        # Refresh the moved members' replicated values.
        changes = self._hidden_changes(path, self.store.read(new_terminal_oid))
        source_set = self.catalog.get_set(path.source_set)
        self._rewrite_members(source_set,
                              sorted(member for member, __ in moving), changes)

    # -- entry plumbing -------------------------------------------------------

    def _add_entry(self, path: ReplicationPath, member: OID, tag: OID,
                   terminal_oid: OID) -> None:
        link = self._link(path)
        link_id = path.link_sequence[0]
        terminal = self.store.read(terminal_oid)
        tentry = terminal.link_entry_for(link_id)
        if tentry is None:
            link_oid = link.file.create(terminal_oid, [(member, tag)])
            terminal.add_link_entry(LinkEntry(link_oid, link_id))
            self.store.update(terminal_oid, terminal)
        else:
            link_oid = tentry.link_oid
            link.file.add(link_oid, (member, tag))
        # The intermediate carries the pair too, for discovery.
        mid = self.store.read(tag)
        mentry = mid.link_entry_for(link_id)
        if mentry is None or mentry.link_oid != link_oid:
            mid.add_link_entry(LinkEntry(link_oid, link_id))
            self.store.update(tag, mid)

    def _remove_entry(self, path: ReplicationPath, member: OID, tag: OID) -> None:
        link = self._link(path)
        link_id = path.link_sequence[0]
        mid = self.store.read(tag)
        mentry = mid.link_entry_for(link_id)
        if mentry is None:
            return
        link.file.remove(mentry.link_oid, (member, tag))
        link_obj = link.file.read(mentry.link_oid)
        if not any(t == tag for __m, t in link_obj.entries):
            mid.remove_link_entry(link_id)
            self.store.update(tag, mid)
        if link_obj.is_empty():
            owner = self.store.read(link_obj.owner)
            owner.remove_link_entry(link_id)
            self.store.update(link_obj.owner, owner)
            link.file.delete(mentry.link_oid)

    def record_expected(self, path: ReplicationPath, oid: OID, obj: StoredObject,
                        expected_links: dict) -> None:
        """Contribute this source object's expected membership to verify()."""
        ref_a, ref_b = self._chain(path)
        mid_oid = obj.ref(ref_a)
        if mid_oid is None:
            return
        terminal_oid = self.store.read(mid_oid).ref(ref_b)
        if terminal_oid is None:
            return
        expected_links.setdefault(path.link_sequence[0], {}).setdefault(
            terminal_oid, set()
        ).add(oid)

    def _rewrite_members(self, source_set, members: list[OID],
                         changes: dict[str, object]) -> None:
        """Set the hidden ``changes`` in every member of the sorted list:
        one :meth:`ObjectStore.overwrite_fields` call, *k* bytes per
        member where it lies, one pin per page; :meth:`_apply` takes any
        member that cannot be overwritten in place."""
        self.store.overwrite_fields(
            source_set.heap, source_set.type_def, members, changes,
            general=lambda oid: self._apply(source_set, oid, changes),
            indexes=self.catalog.field_indexes(source_set.name, changes))

    def _apply(self, source_set, oid: OID, changes: dict[str, object]) -> None:
        """The general decode -> set -> encode rewrite of one member."""
        obj = self.store.read(oid)
        for fname, value in changes.items():
            info = self.catalog.index_on_field(source_set.name, fname)
            if info is not None:
                info.index.update(obj.values.get(fname), value, oid)
            obj.set(fname, value)
        self.store.update(oid, obj)
