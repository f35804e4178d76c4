"""The system catalog.

The catalog is the in-memory schema authority: types, sets, indexes,
replication paths, and the link registry ("the association between link
IDs, links, and replication paths would presumably be stored in the system
catalog", Section 4.1.3).

Link ids are allocated per ``(source set, ref-chain prefix)`` so that
replication paths sharing a prefix share links (Section 4.1.4); collapsed
links are private and never shared (Section 4.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    DuplicateNameError,
    DuplicateReplicationPathError,
    UnknownIndexError,
    UnknownReplicationPathError,
    UnknownSetError,
)
from repro.index.secondary import SecondaryIndex
from repro.objects.registry import TypeRegistry
from repro.sets.objectset import ObjectSet

if TYPE_CHECKING:  # imported only for annotations; avoids an import cycle
    from repro.replication.links import LinkFile
    from repro.replication.spec import ReplicationPath


@dataclass
class IndexInfo:
    """Catalog record of one secondary index."""

    name: str
    set_name: str
    #: The stored field the tree is keyed on -- a visible field for plain
    #: indexes, a hidden replicated-value field for path indexes.
    field_name: str
    index: SecondaryIndex
    clustered: bool = False
    #: The replication path this index rides on, if any (Section 3.3.4).
    path_text: str | None = None


@dataclass
class LinkDef:
    """Catalog record of one link of one or more inverted paths."""

    link_id: int
    source_set: str
    #: The forward ref-chain prefix this link inverts (e.g. ``("dept",)``
    #: for ``Emp1.dept^-1``).  The link's *owners* are the objects reached
    #: by the full prefix; its *members* are the objects one hop shorter.
    prefix: tuple[str, ...]
    file: LinkFile
    collapsed: bool = False
    #: Private links (collapsed, or co-located per §4.3.2) are never shared
    #: with other paths.
    private: bool = False
    #: The link one hop shorter in the same inverted path, for closure
    #: walks; None for first links.
    parent_link_id: int | None = None

    @property
    def position(self) -> int:
        """1-based position of this link in its paths' link sequences."""
        return len(self.prefix)


@dataclass
class _PathUse:
    """One path's use of one link: the path and the link's position in it."""

    path: ReplicationPath
    position: int  # 1-based


class Catalog:
    """Schema authority for one database."""

    def __init__(self, registry: TypeRegistry) -> None:
        self.registry = registry
        self.sets: dict[str, ObjectSet] = {}
        self.indexes: dict[str, IndexInfo] = {}
        self.paths: dict[str, ReplicationPath] = {}
        self.paths_by_id: dict[int, ReplicationPath] = {}
        self.links: dict[int, LinkDef] = {}
        self._link_by_key: dict[tuple[str, tuple[str, ...]], int] = {}
        self._next_path_id = 1
        self._next_link_id = 1

    # -- sets -------------------------------------------------------------

    def add_set(self, obj_set: ObjectSet) -> None:
        if obj_set.name in self.sets:
            raise DuplicateNameError(f"set {obj_set.name!r} already exists")
        self.sets[obj_set.name] = obj_set

    def get_set(self, name: str) -> ObjectSet:
        try:
            return self.sets[name]
        except KeyError:
            raise UnknownSetError(f"unknown set {name!r}") from None

    def remove_set(self, name: str) -> ObjectSet:
        """Forget a set (after its structures were dismantled)."""
        obj_set = self.get_set(name)
        del self.sets[name]
        return obj_set

    def set_type_of(self, set_name: str) -> str:
        """Member type name of a set (hook for path resolution)."""
        return self.get_set(set_name).type_name

    def set_names(self) -> list[str]:
        return sorted(self.sets)

    def set_of_file(self, file_id: int) -> ObjectSet | None:
        """The set stored in ``file_id``, if any."""
        for obj_set in self.sets.values():
            if obj_set.file_id == file_id:
                return obj_set
        return None

    # -- indexes ------------------------------------------------------------

    def add_index(self, info: IndexInfo) -> None:
        if info.name in self.indexes:
            raise DuplicateNameError(f"index {info.name!r} already exists")
        self.indexes[info.name] = info

    def get_index(self, name: str) -> IndexInfo:
        try:
            return self.indexes[name]
        except KeyError:
            raise UnknownIndexError(f"unknown index {name!r}") from None

    def drop_index(self, name: str) -> IndexInfo:
        info = self.get_index(name)
        del self.indexes[name]
        return info

    def indexes_on_set(self, set_name: str) -> list[IndexInfo]:
        """All indexes whose entries point into ``set_name``."""
        return [i for i in self.indexes.values() if i.set_name == set_name]

    def index_on_field(self, set_name: str, field_name: str) -> IndexInfo | None:
        """The index keyed on a stored field of a set, if one exists."""
        for info in self.indexes.values():
            if info.set_name == set_name and info.field_name == field_name:
                return info
        return None

    def field_indexes(self, set_name: str, fields) -> list[tuple]:
        """``(field name, index)`` per index of ``set_name`` keyed on one
        of ``fields`` (what :meth:`ObjectStore.overwrite_fields`
        maintains)."""
        return [(info.field_name, info.index) for info in self.indexes.values()
                if info.set_name == set_name and info.field_name in fields]

    def index_on_path(self, path_text: str) -> IndexInfo | None:
        """The index built on a replication path, if one exists."""
        for info in self.indexes.values():
            if info.path_text == path_text:
                return info
        return None

    # -- replication paths ----------------------------------------------------

    def allocate_path_id(self) -> int:
        path_id = self._next_path_id
        self._next_path_id += 1
        if path_id > 0xFF:
            raise DuplicateReplicationPathError("path-id space (1 byte) exhausted")
        return path_id

    def add_path(self, path: ReplicationPath) -> None:
        if path.text in self.paths:
            raise DuplicateReplicationPathError(f"path {path.text!r} already replicated")
        self.paths[path.text] = path
        self.paths_by_id[path.path_id] = path

    def get_path(self, text: str) -> ReplicationPath:
        try:
            return self.paths[text]
        except KeyError:
            raise UnknownReplicationPathError(f"no replication path {text!r}") from None

    def get_path_by_id(self, path_id: int) -> ReplicationPath:
        try:
            return self.paths_by_id[path_id]
        except KeyError:
            raise UnknownReplicationPathError(f"no replication path id {path_id}") from None

    def drop_path(self, text: str) -> ReplicationPath:
        path = self.get_path(text)
        del self.paths[text]
        del self.paths_by_id[path.path_id]
        return path

    def paths_on_source(self, set_name: str) -> list[ReplicationPath]:
        """Replication paths emanating from ``set_name``."""
        return [p for p in self.paths.values() if p.source_set == set_name]

    def find_path(self, set_name: str, ref_chain: tuple[str, ...],
                  terminal: str) -> ReplicationPath | None:
        """The path replicating exactly ``set.chain.terminal``, if any.

        An ``.all`` path on the same chain also satisfies a scalar terminal
        (full object replication subsumes each field).
        """
        for p in self.paths.values():
            if p.source_set != set_name or p.resolved.ref_chain != ref_chain:
                continue
            if p.resolved.terminal == terminal or terminal in p.replicated_field_names:
                return p
        return None

    # -- links ----------------------------------------------------------------

    def link_for_prefix(self, source_set: str, prefix: tuple[str, ...]) -> LinkDef | None:
        """The shared link on ``source_set`` + ``prefix``, if registered."""
        link_id = self._link_by_key.get((source_set, prefix))
        return self.links[link_id] if link_id is not None else None

    def register_link(self, source_set: str, prefix: tuple[str, ...],
                      file: LinkFile, collapsed: bool = False,
                      private: bool = False,
                      parent_link_id: int | None = None) -> LinkDef:
        """Create a link definition; shared links are keyed by prefix."""
        link_id = self._next_link_id
        self._next_link_id += 1
        if link_id > 0x7F:
            raise DuplicateReplicationPathError("link-id space exhausted")
        link = LinkDef(link_id, source_set, prefix, file, collapsed,
                       private=private, parent_link_id=parent_link_id)
        self.links[link_id] = link
        if not collapsed and not private:
            self._link_by_key[(source_set, prefix)] = link_id
        return link

    def remove_link(self, link_id: int) -> None:
        """Forget a link definition (after its file was dropped)."""
        link = self.get_link(link_id)
        del self.links[link_id]
        if not link.collapsed and not link.private:
            self._link_by_key.pop((link.source_set, link.prefix), None)

    def get_link(self, link_id: int) -> LinkDef:
        try:
            return self.links[link_id]
        except KeyError:
            raise UnknownReplicationPathError(f"unknown link id {link_id}") from None

    def paths_using_link(self, link_id: int) -> list[_PathUse]:
        """Every path whose link sequence contains ``link_id``."""
        uses = []
        for path in self.paths.values():
            for pos, lid in enumerate(path.link_sequence, start=1):
                if lid == link_id:
                    uses.append(_PathUse(path, pos))
        return uses

    def child_links(self, link: LinkDef) -> list[LinkDef]:
        """Links one hop deeper than ``link`` (same source set, used by a
        live path)."""
        out = []
        live = {lid for p in self.paths.values() for lid in p.link_sequence}
        for other in self.links.values():
            if (
                not other.collapsed
                and other.link_id in live
                and other.source_set == link.source_set
                and len(other.prefix) == len(link.prefix) + 1
                and other.prefix[: len(link.prefix)] == link.prefix
            ):
                out.append(other)
        return out

    def root_links(self, source_set: str) -> list[LinkDef]:
        """Links of length-1 prefixes on ``source_set`` used by live paths."""
        live = {lid for p in self.paths.values() for lid in p.link_sequence}
        return [
            l
            for l in self.links.values()
            if not l.collapsed
            and l.link_id in live
            and l.source_set == source_set
            and len(l.prefix) == 1
        ]
