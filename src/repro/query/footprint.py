"""A statement's access footprint: the set-level resources it will touch.

Declared once per statement, *before* it executes, from its plan plus
the replication catalog; locking (:mod:`repro.server.locks`), result-
cache fill and invalidation (:mod:`repro.cache`) and the read-only
decision of the statement lifecycle (:mod:`repro.query.runner`) are all
derived from that one declaration:

* a ``retrieve`` shares the scanned set, every set its functional joins
  traverse, and the replica set behind each ``ReplicaFetch`` step (reads
  answered from in-place hidden fields need nothing beyond the scanned
  set -- that is the point of replication); a read of a *lazy* path
  drains its pending queue, so it holds the path's sets exclusively;
* a ``replace`` on ``S.repfield`` holds ``S``, ``S'``, and every
  referencing set on a registered replication path exclusively (the sets
  whose hidden fields / link entries / replica rows the propagation
  rewrites);
* link files, inverted-path structures, and lazy queues are covered by
  their root (source) set -- they are only ever touched while it is held;
* every footprint shares the schema resource DDL takes exclusively, so
  catalog changes serialize against (and invalidate) everything.

This lives below the server so that embedded execution and the cache can
use it without importing the network layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.objects.types import FieldKind
from repro.query.plan import (
    DeletePlan,
    FunctionalJoin,
    HiddenRefJump,
    ReplicaFetch,
    RetrievePlan,
    UpdatePlan,
)

#: The catalog-wide resource: DML/queries take it shared, DDL exclusive.
SCHEMA_RESOURCE = "__schema"


@dataclass(frozen=True)
class LockFootprint:
    """The set-level resources one statement must hold."""

    shared: frozenset = frozenset()
    exclusive: frozenset = frozenset()

    def __post_init__(self):
        # an exclusive lock subsumes a shared one on the same resource
        object.__setattr__(self, "shared", frozenset(self.shared) - frozenset(self.exclusive))
        object.__setattr__(self, "exclusive", frozenset(self.exclusive))

    def describe(self) -> str:
        parts = []
        if self.shared:
            parts.append("S(" + ", ".join(sorted(self.shared)) + ")")
        if self.exclusive:
            parts.append("X(" + ", ".join(sorted(self.exclusive)) + ")")
        return " ".join(parts) or "(none)"


def _sets_of_type(db, type_name: str) -> set:
    """Names of catalog sets whose member type resolves to ``type_name``."""
    root = db.registry.root_name(type_name)
    return {
        s.name for s in db.catalog.sets.values()
        if db.registry.root_name(s.type_name) == root
    }


def _walk_chain(db, start_type: str, chain, out: set) -> None:
    """Share the sets of every type a ref chain traverses."""
    tdef = db.registry.get(start_type)
    for hop in chain:
        try:
            fdef = tdef.field_def(hop)
        except Exception:
            return  # execution will raise a proper error; no locks needed
        if fdef.kind is not FieldKind.REF:
            return
        out |= _sets_of_type(db, fdef.ref_type)
        tdef = db.registry.get(fdef.ref_type)


def _step_locks(db, set_name: str, step, shared: set, exclusive: set) -> None:
    if isinstance(step, FunctionalJoin):
        _walk_chain(db, db.catalog.get_set(set_name).type_name, step.chain, shared)
    elif isinstance(step, ReplicaFetch):
        path = db.catalog.get_path(step.path_text)
        if path.replica_set:
            shared.add(path.replica_set)
    elif isinstance(step, HiddenRefJump):
        # the replicated value is itself a reference (collapsed path);
        # the remaining functional joins start at its target type
        path = db.catalog.get_path(step.path_text)
        ref_field = path.resolved.replicated_fields[0]
        if ref_field.ref_type:
            shared |= _sets_of_type(db, ref_field.ref_type)
            _walk_chain(db, ref_field.ref_type,
                        step.remaining_chain, shared)
    # LocalField / HiddenField read the scanned set only


def _where_locks(db, set_name: str, where, shared: set, exclusive: set) -> None:
    if where is None:
        return
    for clause in where.clauses:
        chain = clause.ref.chain
        if not chain:
            continue
        path = db.catalog.find_path(set_name, chain, clause.ref.field)
        if path is None:
            _walk_chain(db, db.catalog.get_set(set_name).type_name, chain, shared)
        else:
            _path_read_locks(db, path, shared, exclusive)


def _path_read_locks(db, path, shared: set, exclusive: set) -> None:
    if path.lazy:
        # reading a lazy path drains its queue: hidden-field writes
        exclusive.add(path.source_set)
        if path.replica_set:
            exclusive.add(path.replica_set)
    elif path.replica_set:
        shared.add(path.replica_set)


def _write_propagation_locks(db, set_name: str, fields: set, exclusive: set) -> None:
    """Expand a write on ``set_name``'s ``fields`` with every structure a
    registered replication path forces the statement to rewrite."""
    registry = db.registry
    root = registry.root_name(db.catalog.get_set(set_name).type_name)
    for path in db.catalog.paths.values():
        resolved = path.resolved
        involved = False
        # terminal-value write: propagates into the source set's hidden
        # fields (in-place) or the replica set's rows (separate)
        if (registry.root_name(resolved.terminal_type) == root
                and (fields & set(path.replicated_field_names)
                     or resolved.is_full_object)):
            involved = True
        # reference surgery: rewriting a ref attribute anywhere on the
        # chain restructures link entries in the downstream sets
        for pos, hop in enumerate(resolved.ref_chain):
            if hop not in fields:
                continue
            if pos == 0:
                if path.source_set == set_name:
                    involved = True
            elif registry.root_name(resolved.type_names[pos]) == root:
                involved = True
        if involved:
            exclusive.add(path.source_set)
            for type_name in resolved.type_names[1:]:
                exclusive |= _sets_of_type(db, type_name)
            if path.replica_set:
                exclusive.add(path.replica_set)


def footprint_for_plan(db, plan) -> LockFootprint:
    """Compute the lock footprint of one planned statement."""
    shared: set = {SCHEMA_RESOURCE}
    exclusive: set = set()
    if isinstance(plan, RetrievePlan):
        shared.add(plan.set_name)
        steps = list(plan.steps) + list(plan.group_steps)
        if plan.order_step is not None:
            steps.append(plan.order_step)
        for step in steps:
            _step_locks(db, plan.set_name, step, shared, exclusive)
        _where_locks(db, plan.set_name, plan.where, shared, exclusive)
        for path_text in plan.refresh_paths:
            _path_read_locks(db, db.catalog.get_path(path_text), shared, exclusive)
    elif isinstance(plan, UpdatePlan):
        exclusive.add(plan.set_name)
        _where_locks(db, plan.set_name, plan.where, shared, exclusive)
        fields = {name for name, __ in plan.assignments}
        _write_propagation_locks(db, plan.set_name, fields, exclusive)
    elif isinstance(plan, DeletePlan):
        exclusive.add(plan.set_name)
        _where_locks(db, plan.set_name, plan.where, shared, exclusive)
        for path in db.catalog.paths_on_source(plan.set_name):
            exclusive.add(path.source_set)
            for type_name in path.resolved.type_names[1:]:
                exclusive |= _sets_of_type(db, type_name)
            if path.replica_set:
                exclusive.add(path.replica_set)
    else:
        raise TypeError(f"not a plan: {plan!r}")
    return LockFootprint(frozenset(shared), frozenset(exclusive))
