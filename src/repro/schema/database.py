"""The database facade.

A :class:`Database` is one complete system instance: simulated disk +
buffer pool, type registry, object store, catalog, replication manager,
and query processor.  All data manipulation should go through this facade
-- it is the layer that keeps indexes and replicated data consistent, the
way the paper's query-processing / storage layers would.

DDL mirrors the paper's EXTRA-ish statements::

    db.define_type(...)                      # define type EMP (...)
    db.create_set("Emp1", "EMP")             # create Emp1: {own ref EMP}
    db.replicate("Emp1.dept.name")           # replicate Emp1.dept.name
    db.build_index("Emp1.dept.name")         # build btree on Emp1.dept.name

DML::

    oid = db.insert("Emp1", {...})
    db.update("Emp1", oid, {"salary": 120_000})
    db.delete("Emp1", oid)

Text-form queries (``retrieve (...) where ...``) live in
:mod:`repro.query`; the :meth:`Database.execute` convenience parses and
runs them.
"""

from __future__ import annotations

from repro.cache import (
    DEFAULT_CACHE_BYTES,
    ResultCache,
    structural_resources,
    write_resources,
)
from repro.errors import (
    DanglingReferenceError,
    DiskFault,
    FieldError,
    InvalidPathError,
    ReplicationError,
)
from repro.index.secondary import SecondaryIndex
from repro.objects.instance import StoredObject
from repro.objects.registry import TypeRegistry
from repro.objects.store import ObjectStore
from repro.objects.types import TypeDefinition
from repro.replication.manager import ReplicationManager
from repro.replication.spec import Strategy
from repro.schema.catalog import Catalog, IndexInfo
from repro.sets.objectset import ObjectSet
from repro.storage.constants import DEFAULT_BUFFER_FRAMES, JOIN_BATCH_ROWS
from repro.storage.manager import StorageManager
from repro.storage.oid import OID
from repro.telemetry import Telemetry


class Database:
    """One object-oriented database instance with field replication.

    An embedded instance is single-threaded: a caller that shares one
    between threads must serialise them itself, as a served database
    does with its engine mutex (:mod:`repro.server.admission`).
    """

    def __init__(self, buffer_frames: int = DEFAULT_BUFFER_FRAMES,
                 inline_singleton_links: bool = False,
                 cost_based_planning: bool = False,
                 wal: bool = False, fault_seed: int = 0,
                 join_batch_rows: int = JOIN_BATCH_ROWS,
                 cache: bool = False,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        from repro.recovery import FaultInjector, RecoveryManager

        self.telemetry = Telemetry()
        #: deterministic disk fault injection (inert until armed)
        self.faults = FaultInjector(seed=fault_seed,
                                    metrics=self.telemetry.metrics)
        self.storage = StorageManager(buffer_frames=buffer_frames,
                                      metrics=self.telemetry.metrics,
                                      faults=self.faults)
        self.telemetry.attach_stats(self.storage.stats)
        self.telemetry.waits.attach_buffer_io(self.storage.pool)
        self.registry = TypeRegistry()
        self.store = ObjectStore(self.storage, self.registry)
        self.catalog = Catalog(self.registry)
        self.replication = ReplicationManager(
            self.catalog, self.store, self.storage,
            inline_singleton_links=inline_singleton_links,
            telemetry=self.telemetry,
        )
        #: statement atomicity + crash recovery; ``wal=False`` (the default)
        #: keeps the I/O path bit-identical to an unlogged engine
        self.recovery = RecoveryManager(self, wal=wal)
        self.replication.recovery = self.recovery
        from repro.monitor import WorkloadMonitor

        self.monitor = WorkloadMonitor()
        self.replication.monitor = self.monitor
        #: opt-in: let the planner fall back to file scans when the §6-style
        #: cost estimate says the index would read more pages (§7.1)
        self.cost_based_planning = cost_based_planning
        #: rows drained per sort-and-dedupe batch of the executor
        self.join_batch_rows = max(1, join_batch_rows)
        #: derived-result cache; off by default so the I/O path stays
        #: bit-identical to an uncached engine.  Invalidation hooks below
        #: fire whenever entries exist, even with ``enabled`` off -- a
        #: served session may opt in per-session while the default is off
        self.resultcache = ResultCache(capacity_bytes=cache_bytes,
                                       enabled=cache,
                                       metrics=self.telemetry.metrics)
        #: ``cb(text, next_file_id)`` fired after each successful *text*
        #: DDL statement (:func:`repro.schema.parser.execute_ddl`), with
        #: the file-id cursor as it stood before the DDL ran.  DDL runs
        #: outside WAL statement scope, so the replication hub ships it
        #: logically through this hook instead of as page images.
        self.ddl_listeners: list = []
        self._next_index_id = 1

    def _invalidate_ddl(self) -> None:
        """Schema changes invalidate every cached result: each entry's
        footprint carries the ``__schema`` resource all DDL takes
        exclusively, so this is the footprint rule, not a special case."""
        if len(self.resultcache):
            self.resultcache.invalidate_all(reason="ddl")

    # ==================================================================
    # DDL
    # ==================================================================

    def define_type(self, type_def: TypeDefinition) -> None:
        """Register a type (``define type ...``)."""
        self.registry.register(type_def)

    def create_set(self, name: str, type_name: str) -> ObjectSet:
        """Create a named set (``create Name: {own ref TYPE}``).

        Each set gets a private *instance* of its member type (same fields,
        own type tag).  This is what lets replication widen ``Emp1``'s
        objects with hidden fields while leaving ``Emp2`` -- another set of
        the same declared type -- untouched: "field replication is
        associated with instance rather than type" (Section 3.2).
        """
        base = self.registry.get(type_name)
        clone = TypeDefinition(f"{type_name}__{name}", base.fields, base=type_name)
        self.registry.register(clone)
        heap = self.storage.create_file(name)
        obj_set = ObjectSet(name, clone.name, self.store, heap)
        self.catalog.add_set(obj_set)
        self.recovery.on_ddl()
        self._invalidate_ddl()
        return obj_set

    def drop_set(self, name: str) -> None:
        """Drop a set and all its members (``own ref`` existence semantics).

        The members go down with the set -- but not the objects they merely
        reference (Section 2.1).  Refused while the set is the source of a
        replication path, or while any member is still referenced on some
        other path (dangling inverse mappings would result).
        """
        from repro.errors import IntegrityError

        obj_set = self.catalog.get_set(name)
        sourced = self.catalog.paths_on_source(name)
        if sourced:
            raise ReplicationError(
                f"drop replication path(s) {[p.text for p in sourced]} "
                f"before dropping set {name!r}"
            )
        for oid, obj in obj_set.scan():
            if obj.link_entries or obj.replica_entries:
                raise IntegrityError(
                    f"set {name!r} member {oid} is referenced on a replication "
                    f"path; drop the referencing structures first"
                )
        for info in list(self.catalog.indexes_on_set(name)):
            self.drop_index(info.name)
        self.catalog.remove_set(name)
        self.storage.drop_file(name)
        self.recovery.on_ddl()
        self._invalidate_ddl()

    def replicate(self, path_text: str, strategy: str | Strategy = Strategy.IN_PLACE,
                  collapsed: bool = False, lazy: bool = False,
                  cluster_links: bool = False):
        """Create a replication path (``replicate Set.ref...field``)."""
        if isinstance(strategy, str):
            strategy = Strategy(strategy)
        path = self.replication.register_path(path_text, strategy,
                                              collapsed=collapsed, lazy=lazy,
                                              cluster_links=cluster_links)
        self.recovery.on_ddl()
        self._invalidate_ddl()
        return path

    def drop_replication(self, path_text: str) -> None:
        """Remove a replication path and its structures."""
        self.replication.drop_path(path_text)
        self.monitor.forget(path_text)
        self.recovery.on_ddl()
        self._invalidate_ddl()

    def build_index(self, target: str, clustered: bool = False,
                    name: str | None = None) -> IndexInfo:
        """Build a B+-tree (``build btree on Set.field`` or on a path).

        ``target`` is either ``Set.field`` (an ordinary secondary index) or
        a replicated path such as ``Emp1.dept.org.name`` -- in that case
        the tree is keyed on the hidden replicated values, mapping terminal
        values directly to source-set objects (Section 3.3.4).  Path
        indexes require the path to be replicated *in-place*: separate
        replication shares values between objects, so the value -> object
        mapping the index needs is not materialised per source object.
        """
        parts = target.split(".")
        if len(parts) < 2:
            raise InvalidPathError(f"index target {target!r} needs a set and a field")
        set_name = parts[0]
        obj_set = self.catalog.get_set(set_name)
        path_text = None
        if len(parts) == 2:
            field_name = parts[1]
            fdef = obj_set.type_def.field_def(field_name)
            if fdef.hidden:
                raise FieldError(f"cannot index hidden field {field_name!r} directly")
        else:
            path = self.catalog.find_path(set_name, tuple(parts[1:-1]), parts[-1])
            if path is None:
                raise ReplicationError(
                    f"index target {target!r} is a path: replicate it first"
                )
            if path.strategy is not Strategy.IN_PLACE or path.collapsed:
                raise ReplicationError(
                    "indexes on replicated data require plain in-place replication"
                )
            if path.lazy:
                raise ReplicationError(
                    "indexes on lazily propagated paths would go stale; use eager"
                )
            field_name = path.hidden_field_for(parts[-1])
            fdef = obj_set.type_def.field_def(field_name)
            path_text = path.text
        index_name = name or f"idx{self._next_index_id}_{set_name}_{field_name}"
        self._next_index_id += 1
        file_id = self.storage.create_raw_file(f"__idx_{index_name}")
        index = SecondaryIndex(index_name, self.storage.pool, file_id, fdef,
                               set_name, clustered=clustered,
                               metrics=self.telemetry.metrics)
        info = IndexInfo(index_name, set_name, field_name, index,
                         clustered=clustered, path_text=path_text)
        self.catalog.add_index(info)
        if path_text is not None:
            self.catalog.get_path(path_text).index_names.append(index_name)
        index.bulk_load(
            (obj.values[field_name], oid) for oid, obj in obj_set.scan()
        )
        self.recovery.on_ddl()
        self._invalidate_ddl()
        return info

    def drop_index(self, index_name: str) -> None:
        """Drop a secondary index."""
        info = self.catalog.drop_index(index_name)
        if info.path_text is not None:
            path = self.catalog.get_path(info.path_text)
            path.index_names.remove(index_name)
        self.storage.drop_raw_file(info.index.tree.file_id)
        self.recovery.on_ddl()
        self._invalidate_ddl()

    # ==================================================================
    # DML
    # ==================================================================

    def insert(self, set_name: str, values: dict) -> OID:
        """Insert an object, maintaining replication and indexes."""
        obj_set = self.catalog.get_set(set_name)
        obj = obj_set.make_object(values)
        with self.recovery.statement(f"insert {set_name}"):
            oid = obj_set.raw_insert(obj)
            self.replication.after_insert(obj_set, oid, obj)
            final = obj_set.read(oid)
            for info in self.catalog.indexes_on_set(set_name):
                info.index.insert(final.values[info.field_name], oid)
        if len(self.resultcache):
            self.resultcache.invalidate(structural_resources(self, set_name))
        return oid

    def update(self, set_name: str, oid: OID, changes: dict) -> None:
        """Update visible fields of one object: :meth:`update_many` of
        one OID."""
        self.update_many(set_name, [oid], changes)

    def update_many(self, set_name: str, oids, changes: dict) -> None:
        """Set ``changes`` (visible field -> value) in every object of
        ``oids`` (distinct members of the set), propagating as needed --
        a ``replace`` statement, set-at-a-time:

        1. the victims are read once each, in page order;
        2. one :meth:`ObjectStore.overwrite_fields` sweep writes the fields
           of every victim the change moves, where they lie (index
           maintenance and the general decode -> set -> encode fallback as
           for any overwrite);
        3. :meth:`ReplicationManager.propagate_update` runs the
           statement's replication consequences: each distinct value push
           once, over the union of its victims' closures;
        4. a victim whose reference attribute moved takes its fresh
           hidden values, and the result cache is invalidated once.
        """
        obj_set = self.catalog.get_set(set_name)
        type_def = obj_set.type_def
        for fname in changes:
            if type_def.field_def(fname).hidden:
                raise FieldError(f"field {fname!r} is replication-internal")
        oids = list(oids)
        root = self.registry.root_name(obj_set.type_name)
        for fname in changes:
            self.monitor.record_update(root, fname, rows=len(oids))
        # one pin at a time: a victim behind a forward stub lets its home
        # page go before the page it moved to is pinned
        read = {oid: self.store.read(oid) for oid in sorted(set(oids))}
        updates = {}  # victim -> (old, new, changed), in statement order
        written: set[str] = set()
        for oid in oids:
            if oid.file_id != obj_set.file_id:
                raise DanglingReferenceError(
                    f"{oid} is not a member of set {set_name!r}")
            old = read[oid]
            changed = {f for f, value in changes.items()
                       if old.values[f] != value}
            if changed:
                new = old.copy()
                for fname in changed:
                    new.set(fname, changes[fname])
                updates[oid] = (old, new, changed)
                written |= changed
        if not updates:
            return
        indexes = self.catalog.field_indexes(set_name, written)

        def general(oid: OID) -> None:
            old, new, changed = updates[oid]
            for fname, index in indexes:
                if fname in changed:
                    index.update(old.values[fname], new.values[fname], oid)
            obj_set.raw_update(oid, new)

        with self.recovery.statement(f"update {set_name}"):
            self.store.overwrite_fields(
                obj_set.heap, type_def, sorted(updates),
                {f: changes[f] for f in changes if f in written}, general,
                indexes=indexes)
            own_hidden = self.replication.propagate_update(obj_set, updates)
            for oid, hidden in own_hidden.items():
                self.replication.apply_hidden_changes(obj_set, oid, hidden)
        if len(self.resultcache):
            self.resultcache.invalidate(write_resources(self, set_name, written))

    def delete(self, set_name: str, oid: OID) -> None:
        """Delete an object; refuses while replication still references it."""
        obj_set = self.catalog.get_set(set_name)
        obj = obj_set.read(oid)
        with self.recovery.statement(f"delete {set_name}"):
            self.replication.before_delete(obj_set, oid, obj)
            final = obj_set.read(oid)  # hooks may have rewritten bookkeeping
            for info in self.catalog.indexes_on_set(set_name):
                info.index.delete(final.values[info.field_name], oid)
            obj_set.raw_delete(oid)
        if len(self.resultcache):
            self.resultcache.invalidate(structural_resources(self, set_name))

    def get(self, set_name: str, oid: OID) -> StoredObject:
        """Read one object (hidden fields included, for inspection)."""
        return self.catalog.get_set(set_name).read(oid)

    # ==================================================================
    # queries (delegates to repro.query)
    # ==================================================================

    def execute(self, statement_text: str, **options):
        """Parse and run a ``retrieve`` / ``replace`` statement."""
        from repro.query.runner import execute_text

        return execute_text(self, statement_text, **options)

    def retrieve(self, statement, **options):
        """Run a pre-built retrieve statement object."""
        from repro.query.runner import execute_statement

        return execute_statement(self, statement, **options)

    def explain_analyze(self, statement_text: str, **options):
        """Run a statement with per-operator I/O accounting attached."""
        from repro.query.runner import execute_text

        return execute_text(self, statement_text, analyze=True, **options)

    # ==================================================================
    # maintenance / instrumentation
    # ==================================================================

    def verify(self) -> None:
        """Check every replication invariant (raises IntegrityError)."""
        self.replication.verify()

    def recover(self, verify: bool = True):
        """Restart after an injected crash: redo committed statements from
        the WAL, roll the incomplete one back, rebuild session caches, and
        (by default) re-verify replication.  Returns a RecoveryReport."""
        self.resultcache.invalidate_all()
        return self.recovery.recover(verify=verify)

    def checkpoint(self) -> None:
        """Flush dirty pages and truncate the write-ahead log."""
        self.recovery.checkpoint()

    def doctor(self, repair: bool = False):
        """Diagnose (and with ``repair=True`` fix) replicated-state drift.

        Returns a :class:`repro.recovery.doctor.DoctorReport`; structural
        damage is reported, value drift is rebuilt from the forward paths.
        """
        from repro.recovery.doctor import run_doctor

        report = run_doctor(self, repair=repair)
        if repair:
            self.resultcache.invalidate_all()
        return report

    def refresh(self, path_text: str | None = None) -> int:
        """Drain lazy propagation queues (all paths when none is named)."""
        if path_text is None:
            refreshed = self.replication.refresh_all()
            touched = [p for p in self.catalog.paths.values() if p.lazy]
        else:
            path = self.catalog.get_path(path_text)
            refreshed = self.replication.refresh_path(path)
            touched = [path]
        if refreshed and len(self.resultcache):
            resources = set()
            for path in touched:
                resources.add(path.source_set)
                if path.replica_set:
                    resources.add(path.replica_set)
            self.resultcache.invalidate(resources)
        return refreshed

    @property
    def stats(self):
        """The shared I/O statistics."""
        return self.storage.stats

    def cold_cache(self) -> None:
        """Flush and empty the buffer pool."""
        try:
            self.storage.cold_cache()
        except DiskFault:
            # a fatal fault mid-flush may have torn a committed page;
            # only recovery may touch the database now
            if self.recovery.wal is not None:
                self.recovery.wal.mark_crashed()
            raise

    def measure(self, fn):
        """Run ``fn()`` and return the I/O snapshot delta."""
        return self.storage.measure(fn)
