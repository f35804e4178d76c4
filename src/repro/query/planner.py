"""The planner: resolve statements against the schema and pick fetch steps.

The interesting decision is per path-valued target, in priority order:

1. an **in-place** replication path covering the full target path: read the
   hidden field -- zero extra I/O ("query processing will know about field
   replication and exploit it whenever possible", Section 3.1);
2. a **separate** path covering it: one functional join into the small,
   tightly clustered replica set S';
3. a replicated **reference attribute** covering a path prefix (collapsed
   path, Section 3.3.3): jump via the hidden OID and functionally join the
   (shorter) rest -- the longest prefix wins;
4. otherwise: the plain functional join.

Access path: an index scan when the (single) where-clause compares an
indexed field of the queried set; a file scan otherwise.  An equality
predicate may also be served by an index on a *replicated path* (Section
3.3.4), mapping terminal values straight to source objects.

A bound is applied once: a clause the index scan applies exactly -- an
``int`` equality or bound on an ``INT`` index, matching the scan -- leaves
the residual filter, which keeps every other clause (char, float and path
indexes, ``!=``, a weaker bound).
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.objects.types import FieldKind
from repro.query.language import Delete, FieldRef, Replace, Retrieve, Where
from repro.query.plan import (
    DeletePlan,
    FetchStep,
    FileScan,
    FunctionalJoin,
    HiddenField,
    HiddenRefJump,
    IndexScan,
    LocalField,
    ReplicaFetch,
    RetrievePlan,
    UpdatePlan,
)
from repro.replication.spec import Strategy
from repro.schema.database import Database


def plan_retrieve(db: Database, stmt: Retrieve, materialize: bool = True) -> RetrievePlan:
    """Build a plan for a retrieve statement."""
    set_name = stmt.targets[0].set_name
    obj_set = db.catalog.get_set(set_name)
    refresh: list[str] = []
    if stmt.is_aggregate:
        if any(t.field == "all" for t in stmt.targets):
            raise PlanningError("aggregates over 'all' are not supported")
        targets = stmt.targets
        aggregates = stmt.aggregates
    else:
        groups = tuple(_expand_all(db, obj_set, target) for target in stmt.targets)
        targets = tuple(t for group in groups for t in group)
        aggregates = None
    steps = tuple(_plan_target(db, obj_set, target, refresh) for target in targets)
    order_step = (
        _plan_target(db, obj_set, stmt.order_by, refresh)
        if stmt.order_by is not None
        else None
    )
    group_steps = tuple(
        _plan_target(db, obj_set, ref, refresh) for ref in stmt.group_by
    )
    access, residual = _plan_access(db, set_name, stmt.where)
    return RetrievePlan(
        set_name=set_name,
        access=access,
        steps=steps,
        where=residual,
        refresh_paths=tuple(dict.fromkeys(refresh)),
        materialize=materialize,
        aggregates=aggregates,
        order_step=order_step,
        descending=stmt.descending,
        limit=stmt.limit,
        group_steps=group_steps,
    )


def plan_replace(db: Database, stmt: Replace) -> UpdatePlan:
    """Build a plan for a replace statement."""
    obj_set = db.catalog.get_set(stmt.set_name)
    for fname, __value in stmt.assignments:
        fdef = obj_set.type_def.field_def(fname)
        if fdef.hidden:
            raise PlanningError(f"field {fname!r} is replication-internal")
    access, residual = _plan_access(db, stmt.set_name, stmt.where)
    return UpdatePlan(stmt.set_name, access, stmt.assignments, residual)


def plan_delete(db: Database, stmt: Delete) -> DeletePlan:
    """Build a plan for a delete statement."""
    db.catalog.get_set(stmt.set_name)
    access, residual = _plan_access(db, stmt.set_name, stmt.where)
    return DeletePlan(stmt.set_name, access, residual)


def _expand_all(db: Database, obj_set, target: FieldRef) -> tuple[FieldRef, ...]:
    """Expand an ``all`` terminal into the visible fields of its type.

    ``Emp1.all`` projects every visible field of the set's type;
    ``Emp1.dept.all`` every visible field of DEPT (served by a full-object
    replication path when one exists).
    """
    if target.field != "all":
        return (target,)
    current = obj_set.type_def
    for ref_name in target.chain:
        fdef = current.field_def(ref_name)
        if fdef.kind is not FieldKind.REF:
            raise PlanningError(f"{target.text!r}: {ref_name!r} is not a reference")
        current = db.registry.get(fdef.ref_type)
    if current.has_field("all"):
        return (target,)  # a literal field named "all" wins
    return tuple(
        FieldRef(target.set_name, target.chain, f.name)
        for f in current.visible_fields()
    )


# ---------------------------------------------------------------------------
# fetch-step selection
# ---------------------------------------------------------------------------


def _plan_target(db: Database, obj_set, target: FieldRef, refresh: list[str]) -> FetchStep:
    type_def = obj_set.type_def
    if not target.chain:
        fdef = type_def.field_def(target.field)
        if fdef.hidden:
            raise PlanningError(f"field {target.field!r} is replication-internal")
        return LocalField(target, target.field)
    _validate_chain(db, type_def, target)
    # 1/2. a replication path covering the whole target path
    path = db.catalog.find_path(obj_set.name, target.chain, target.field)
    if path is not None:
        if path.strategy is Strategy.IN_PLACE:
            if path.lazy:
                refresh.append(path.text)
            return HiddenField(target, path.hidden_field_for(target.field), path.text)
        return ReplicaFetch(
            target, path.hidden_ref, path.path_id, target.field, path.text
        )
    # 3. the longest replicated reference prefix (collapsed path): a path
    #    replicating chain[:j-1] + terminal chain[j-1] materialises the OID
    #    of the level-j object, shortening the join to chain[j:].
    for j in range(len(target.chain), 1, -1):
        ref_path = db.catalog.find_path(
            obj_set.name, target.chain[: j - 1], target.chain[j - 1]
        )
        if (
            ref_path is not None
            and ref_path.strategy is Strategy.IN_PLACE
            and not ref_path.collapsed
        ):
            if ref_path.lazy:
                refresh.append(ref_path.text)
            return HiddenRefJump(
                target,
                ref_path.hidden_field_for(target.chain[j - 1]),
                target.chain[j:],
                target.field,
                ref_path.text,
            )
    # 4. plain functional join
    return FunctionalJoin(target, target.chain, target.field)


def _validate_chain(db: Database, type_def, target: FieldRef) -> None:
    current = type_def
    for ref_name in target.chain:
        fdef = current.field_def(ref_name)
        if fdef.kind is not FieldKind.REF:
            raise PlanningError(f"{target.text!r}: {ref_name!r} is not a reference")
        current = db.registry.get(fdef.ref_type)
    current.field_def(target.field)


# ---------------------------------------------------------------------------
# access-path selection
# ---------------------------------------------------------------------------


def _plan_access(db: Database, set_name: str, where: Where | None):
    """Pick index scan vs file scan; returns (access, residual_filter).

    All indexable clauses on the *same* field combine into one bounded
    range scan (``x >= a and x <= b``).  A clause leaves the residual
    filter exactly when the scan applies it exactly (see
    :func:`_applied_exactly`); the filter is None when nothing is left.

    ``cost_based_planning`` is embedded-only: its estimate counts the
    set's members with a full scan through the buffer pool, and a served
    statement plans *before* it enters the engine mutex, where no page
    may be touched.
    """
    if where is None:
        return FileScan(set_name), None
    obj_set = db.catalog.get_set(set_name)
    by_index: dict[str, list] = {}
    index_infos: dict[str, object] = {}
    for clause in where.clauses:
        ref = clause.ref
        if ref.set_name != set_name:
            raise PlanningError(
                f"where clause on {ref.set_name!r} in a query over {set_name!r}"
            )
        if clause.op == "!=":
            continue  # an index cannot narrow inequality
        if not ref.chain:
            fdef = obj_set.type_def.field_def(ref.field)
            if fdef.hidden:
                raise PlanningError(f"field {ref.field!r} is replication-internal")
            info = db.catalog.index_on_field(set_name, ref.field)
        else:
            # an associative lookup on a replicated path (Section 3.3.4)
            path = db.catalog.find_path(set_name, ref.chain, ref.field)
            info = None
            if path is not None and path.index_names:
                info = db.catalog.get_index(path.index_names[0])
        if info is not None:
            by_index.setdefault(info.name, []).append(clause)
            index_infos[info.name] = info
    for name, clauses in by_index.items():
        scan = _build_index_scan(index_infos[name], clauses)
        if scan is not None:
            if getattr(db, "cost_based_planning", False):
                from repro.query.costing import choose_access

                obj_set = db.catalog.get_set(set_name)
                if not choose_access(scan, obj_set.num_pages(), obj_set.count()):
                    continue  # a full scan is expected to be cheaper
            residual = tuple(c for c in where.clauses
                             if not _applied_exactly(scan, c))
            return scan, Where(residual) if residual else None
    # no usable index: scan and filter, but path-valued filters need either
    # replicated data or a per-object join (handled by the executor); a
    # totally unreplicated path filter is rejected to match the model.
    for clause in where.clauses:
        if clause.ref.chain and db.catalog.find_path(
            set_name, clause.ref.chain, clause.ref.field
        ) is None:
            raise PlanningError(
                f"filter {clause.text!r} needs either an index or a replicated path"
            )
    return FileScan(set_name), where


def _build_index_scan(info, clauses) -> IndexScan | None:
    """The tightest scan the clauses allow: the equality if there is one,
    else the highest lower and the lowest upper bound.  Of two bounds on
    the same value the strict one wins, so the scan implies both."""
    eq = lo = hi = None
    lo_strict = hi_strict = False
    for clause in clauses:
        strict = clause.op in (">", "<")
        if clause.op == "=":
            eq = clause.value
        elif clause.op in (">", ">="):
            if lo is None or clause.value > lo \
                    or (clause.value == lo and strict):
                lo, lo_strict = clause.value, strict
        elif clause.op in ("<", "<="):
            if hi is None or clause.value < hi \
                    or (clause.value == hi and strict):
                hi, hi_strict = clause.value, strict
    if eq is not None:
        return IndexScan(info, eq=eq)
    if lo is None and hi is None:
        return None
    return IndexScan(info, lo=lo, lo_strict=lo_strict, hi=hi, hi_strict=hi_strict)


def _applied_exactly(scan: IndexScan, clause) -> bool:
    """Whether ``scan`` returns exactly the rows ``clause`` admits, so the
    residual filter need not test it again.

    That takes a non-chained clause on the field of an ``INT`` index --
    whose key codec is order-preserving and one-to-one over the 32-bit
    range -- with an ``int`` value (not a ``bool``) that is the scan's
    ``eq``, or its ``lo``/``hi`` with a strictness the scan's implies.
    Every other clause stays in the filter: char keys (``hi`` is a prefix
    bound), float keys, path indexes, ``!=`` and a weaker bound.
    """
    info = scan.index
    value = clause.value
    # a path index's clauses are chained: they never pass the first test
    if (clause.ref.chain or clause.ref.field != info.field_name
            or info.index.field.kind is not FieldKind.INT
            or type(value) is not int):
        return False
    if scan.eq is not None:
        return clause.op == "=" and value == scan.eq
    if clause.op in (">", ">="):
        return value == scan.lo and (scan.lo_strict or clause.op == ">=")
    if clause.op in ("<", "<="):
        return value == scan.hi and (scan.hi_strict or clause.op == "<=")
    return False
