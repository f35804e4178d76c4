"""Plan execution.

The executor turns plans into page accesses through the object store and
indexes, counting I/O via the shared statistics.  Retrieve results are
materialised into an *output file* ``T`` (the paper's C_generate/T term)
unless the plan says otherwise; the file is dropped once written -- its
I/O has already been charged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.objects.instance import StoredObject
from repro.query import batchjoin
from repro.query.analyze import Meter, OperatorStats
from repro.query.plan import (
    DeletePlan,
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
from repro.schema.database import Database
from repro.storage.oid import OID
from repro.storage.stats import IOSnapshot


@dataclass
class QueryResult:
    """Rows plus execution metadata."""

    columns: tuple[str, ...]
    rows: list[tuple]
    io: IOSnapshot
    plan: str
    #: per-operator execution statistics (EXPLAIN ANALYZE); None unless the
    #: plan was executed with ``analyze=True``.
    operators: tuple[OperatorStats, ...] | None = None
    #: result-cache disposition: "hit" | "miss" | "bypass", or None when
    #: the cache did not apply (cache off, or a write statement).
    cache: str | None = None

    def __len__(self) -> int:
        return len(self.rows)


#: names the result files; ``next()`` on it is one atomic step, so two
#: threads can never draw the same ``__outputN``
_output_ids = itertools.count(1)

_STEP_KINDS = {
    LocalField: "project",
    HiddenField: "replicated_read",
    ReplicaFetch: "replica_read",
    HiddenRefJump: "jump",
    FunctionalJoin: "functional_join",
}

def _step_kind(step) -> str:
    return _STEP_KINDS[type(step)]


def execute_retrieve(db: Database, plan: RetrievePlan,
                     analyze: bool = False) -> QueryResult:
    """Run a retrieve plan and return its rows.

    With ``analyze=True`` the result additionally carries a per-operator
    I/O breakdown whose top level sums to the query's total I/O.
    """
    before = db.stats.snapshot()
    meter = Meter(db.stats) if analyze else None
    ops: list[OperatorStats] = []

    if plan.refresh_paths:
        refresh_op = None
        if analyze:
            refresh_op = OperatorStats("refresh", ", ".join(plan.refresh_paths))
            ops.append(refresh_op)
            mark = meter.begin()
        for path_text in plan.refresh_paths:
            refreshed = db.replication.refresh_path(db.catalog.get_path(path_text))
            if refresh_op is not None:
                refresh_op.rows += refreshed
        if analyze:
            meter.end(mark, refresh_op)

    rows: list[tuple] = []
    sort_keys: list = []
    group_keys: list[tuple] = []
    _run_batched(db, plan, meter, ops, rows, sort_keys, group_keys)
    _record_joins(db, plan, len(rows))
    _record_replicated_reads(db, plan, len(rows))
    columns, rows = shape_rows(plan, rows, sort_keys, group_keys)
    if plan.materialize:
        if analyze:
            mat_op = OperatorStats("materialize")
            ops.append(mat_op)
            mark = meter.begin()
            _materialize(db, rows)
            meter.end(mark, mat_op)
            mat_op.rows = len(rows)
        else:
            _materialize(db, rows)
    io = db.stats.snapshot() - before
    return QueryResult(columns=columns, rows=rows, io=io, plan=plan.explain(),
                       operators=tuple(ops) if analyze else None)


def _run_batched(db: Database, plan: RetrievePlan, meter: Meter | None,
                 ops: list[OperatorStats], rows: list[tuple],
                 sort_keys: list, group_keys: list[tuple]) -> None:
    """The set-oriented row loop.

    One implementation serves both plain and analyzed execution (``meter``
    is None when not analyzing) so EXPLAIN ANALYZE measures exactly the
    query it reports on.  Rows drain from the access path in batches;
    every OID-dereferencing step resolves per batch through sort-and-dedupe
    sweeps (see :mod:`repro.query.batchjoin`) instead of per-row probes.
    """
    analyze = meter is not None
    scan_op = order_op = None
    step_ops = group_ops = None
    if analyze:
        scan_op = OperatorStats("scan", plan.access.explain())
        step_ops = [OperatorStats(_step_kind(step), step.explain())
                    for step in plan.steps]
        ops.append(scan_op)
        ops.extend(step_ops)
        if plan.order_step is not None:
            order_op = OperatorStats("sort_key", plan.order_step.explain())
            ops.append(order_op)
        if plan.group_steps:
            group_ops = [OperatorStats("group_key", s.explain())
                         for s in plan.group_steps]
            ops.extend(group_ops)

    fields = batchjoin.scanned_fields(db, plan)

    def resolve(step, batch, op):
        mark = meter.begin() if analyze else None
        values = batchjoin.resolve_step_batch(db, step, batch, fields,
                                              meter, op)
        if analyze:
            meter.end(mark, op)
            op.rows += len(batch)
        return values

    for batch in batchjoin.iter_batches(db, plan, fields, meter, scan_op):
        columns = [
            resolve(step, batch, step_ops[idx] if analyze else None)
            for idx, step in enumerate(plan.steps)
        ]
        rows.extend(zip(*columns))
        if plan.order_step is not None:
            sort_keys.extend(resolve(plan.order_step, batch, order_op))
        if plan.group_steps:
            key_cols = [
                resolve(step, batch, group_ops[idx] if analyze else None)
                for idx, step in enumerate(plan.group_steps)
            ]
            group_keys.extend(zip(*key_cols))


def shape_rows(plan: RetrievePlan, rows: list[tuple], sort_keys: list,
               group_keys: list[tuple]) -> tuple[tuple[str, ...], list[tuple]]:
    """The result's columns and rows from the scan's projected rows and
    their sort and group keys: group and fold, or sort, limit and
    aggregate, as the plan says."""
    if plan.group_steps:
        rows = _fold_groups(plan, rows, group_keys)
        if plan.limit is not None:
            rows = rows[: plan.limit]
    else:
        if plan.order_step is not None:
            # sort rows by key; NULL keys sort last regardless of direction
            paired = sorted(
                zip(sort_keys, range(len(rows))),
                key=lambda kv: ((kv[0] is None), kv[0] if kv[0] is not None else 0),
                reverse=plan.descending,
            )
            if plan.descending:
                # reverse put the Nones first; push them back to the end
                paired = [kv for kv in paired if kv[0] is not None] + [
                    kv for kv in paired if kv[0] is None
                ]
            rows = [rows[i] for __, i in paired]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        if plan.aggregates:
            rows = [_fold_aggregates(plan.aggregates, rows)]
    if plan.aggregates:
        columns = tuple(
            f"{fn}({step.target.text})" if fn else step.target.text
            for fn, step in zip(plan.aggregates, plan.steps)
        )
    else:
        columns = tuple(step.target.text for step in plan.steps)
    return columns, rows


def _fold_groups(plan: RetrievePlan, rows: list[tuple],
                 group_keys: list[tuple]) -> list[tuple]:
    """Bucket rows by their group-key tuples and fold each bucket."""
    buckets: dict[tuple, list[tuple]] = {}
    for key, row in zip(group_keys, rows):
        buckets.setdefault(key, []).append(row)
    out = []
    for key in sorted(buckets, key=lambda k: tuple((v is None, v) for v in k)):
        bucket = buckets[key]
        folded = _fold_aggregates(
            [fn or "min" for fn in plan.aggregates], bucket
        )
        # plain columns: take the (identical within the group) value
        row = tuple(
            folded[i] if fn else bucket[0][i]
            for i, fn in enumerate(plan.aggregates)
        )
        out.append(row)
    return out


def _fold_aggregates(aggregates, rows: list[tuple]) -> tuple:
    """Reduce the projected rows to one aggregate row (NULLs skipped,
    SQL-style: count counts non-null values; empty input yields count 0 and
    None for the value aggregates)."""
    out = []
    for i, fn in enumerate(aggregates):
        column = [row[i] for row in rows if row[i] is not None]
        if fn == "count":
            out.append(len(column))
        elif not column:
            out.append(None)
        elif fn == "sum":
            out.append(sum(column))
        elif fn == "avg":
            out.append(sum(column) / len(column))
        elif fn == "min":
            out.append(min(column))
        else:  # max
            out.append(max(column))
    return tuple(out)


def execute_update(db: Database, plan: UpdatePlan,
                   analyze: bool = False) -> QueryResult:
    """Run a replace plan set-at-a-time; rows report the updated OIDs.

    The victims (:func:`_collect_victims`) go to one
    :meth:`Database.update_many` call, with or without ``analyze``; the
    analyzed statement meters it as one ``update`` operator.
    """
    before = db.stats.snapshot()
    victims, ops, meter = _collect_victims(db, plan, analyze)
    if analyze:
        update_op = OperatorStats(
            "update", ", ".join(f"{f}={v!r}" for f, v in plan.assignments))
        ops.append(update_op)
        mark = meter.begin()
    db.update_many(plan.set_name, victims, dict(plan.assignments))
    if analyze:
        meter.end(mark, update_op)
        update_op.rows = len(victims)
    io = db.stats.snapshot() - before
    return QueryResult(("oid",), [(oid,) for oid in victims], io, plan.explain(),
                       operators=tuple(ops) if analyze else None)


def execute_delete(db: Database, plan: DeletePlan,
                   analyze: bool = False) -> QueryResult:
    """Run a delete plan; rows report the deleted OIDs."""
    before = db.stats.snapshot()
    victims, ops, meter = _collect_victims(db, plan, analyze)
    if analyze:
        delete_op = OperatorStats("delete", plan.set_name)
        ops.append(delete_op)
        for oid in victims:
            mark = meter.begin()
            db.delete(plan.set_name, oid)
            meter.end(mark, delete_op)
            delete_op.rows += 1
    else:
        for oid in victims:
            db.delete(plan.set_name, oid)
    io = db.stats.snapshot() - before
    return QueryResult(("oid",), [(oid,) for oid in victims], io, plan.explain(),
                       operators=tuple(ops) if analyze else None)


def _collect_victims(db: Database, plan, analyze: bool):
    """The target OIDs, metered as one ``scan`` operator when analyzing.

    A replace whose index applied the whole ``where`` (the plan has no
    residual filter) takes its victims' OIDs straight off the leaf: no
    candidate is read to find them, and :meth:`Database.update_many`
    reads every victim before it writes one, so a stale entry still
    raises with nothing written.  Otherwise each candidate is read whole
    and filtered -- a delete's too, so a stale entry raises before the
    first victim is deleted.
    """
    meter = Meter(db.stats) if analyze else None
    mark = meter.begin() if analyze else None
    if (isinstance(plan, UpdatePlan) and plan.where is None
            and isinstance(plan.access, IndexScan)):
        victims = list(_index_oids(plan.access))
    else:
        victims = [oid for oid, __ in
                   _scan(db, plan.set_name, plan.access, plan.where)]
    if not analyze:
        return victims, [], None
    scan_op = OperatorStats("scan", plan.access.explain())
    meter.end(mark, scan_op)
    scan_op.rows = len(victims)
    return victims, [scan_op], meter


def _record_replicated_reads(db: Database, plan: RetrievePlan,
                             rows: int) -> None:
    """Feed the workload monitor's per-path account: one served read per
    replicated path the plan read from, in its steps or its ``where``."""
    if rows == 0:
        return
    served = {step.path_text for step in plan.steps
              if isinstance(step, (HiddenField, ReplicaFetch, HiddenRefJump))}
    if plan.where is not None:
        for clause in plan.where.clauses:
            ref = clause.ref
            if ref.chain:
                path = db.catalog.find_path(plan.set_name, ref.chain, ref.field)
                if path is not None:
                    served.add(path.text)
    # rows is the result count: for a replicated predicate, a lower bound
    # on the scanned objects the replica answered it for
    for text in served:
        db.monitor.record_served(db.catalog.get_path(text), rows)


def _record_joins(db: Database, plan: RetrievePlan, rows: int) -> None:
    """Feed the workload monitor: each functional-join step is a path
    replication could have served."""
    if rows == 0:
        return
    for step in plan.steps:
        if not isinstance(step, FunctionalJoin):
            continue
        obj_set = db.catalog.get_set(plan.set_name)
        current = obj_set.type_def
        for ref_name in step.chain:
            current = db.registry.get(current.field_def(ref_name).ref_type)
        db.monitor.record_join(
            plan.set_name, step.chain, step.field_name,
            db.registry.root_name(current.name), rows,
        )


# ---------------------------------------------------------------------------
# row sources
# ---------------------------------------------------------------------------


def _scan(db: Database, set_name: str, access, where):
    obj_set = db.catalog.get_set(set_name)
    if isinstance(access, FileScan):
        for oid, obj in obj_set.scan():
            if where is None or _matches(db, set_name, where, obj):
                yield oid, obj
        return
    assert isinstance(access, IndexScan)
    for oid in _index_oids(access):
        obj = obj_set.read(oid)
        if where is None or _matches(db, set_name, where, obj):
            yield oid, obj


def _index_oids(access: IndexScan):
    """The OIDs the index scan qualifies, in key order, straight from the
    tree's leaf slices (no key is decoded)."""
    index = access.index.index
    if access.eq is not None:
        yield from index.lookup(access.eq)
        return
    lo, hi, include_hi = index.range_keys(access.lo, access.hi,
                                          access.lo_strict, access.hi_strict)
    for __, oid in index.tree.range_scan(lo, hi, include_hi):
        yield oid


def _matches(db: Database, set_name: str, where, obj: StoredObject) -> bool:
    def lookup(ref):
        if not ref.chain:
            return obj.values[ref.field]
        # path-valued filter: prefer replicated data, else functional join
        path = db.catalog.find_path(set_name, ref.chain, ref.field)
        if path is not None and path.hidden_fields:
            return obj.values[path.hidden_field_for(ref.field)]
        if path is not None and path.hidden_ref is not None:
            replica_ref = obj.values[path.hidden_ref]
            if replica_ref is None:
                return None
            replica = db.replication.replica_sets[path.path_id].read(replica_ref)
            return replica.values[ref.field]
        return _join_from(db, obj.ref(ref.chain[0]), ref.chain[1:], ref.field)

    return where.matches(lookup)


def _join_from(db: Database, oid: OID | None, chain, field_name: str):
    """The value at the end of ``chain`` from ``oid``, one read per hop
    (None at the first NULL reference)."""
    if oid is None:
        return None
    current = db.store.read(oid)
    for ref_name in chain:
        nxt = current.ref(ref_name)
        if nxt is None:
            return None
        current = db.store.read(nxt)
    return current.values[field_name]


# ---------------------------------------------------------------------------
# output file generation
# ---------------------------------------------------------------------------


def _materialize(db: Database, rows: list[tuple]) -> None:
    """Write the result into a fresh output file T, then drop it.

    Generating T is charged exactly like the model's C_generate/T term:
    T is rendered once, appended a page at a time, and written back --
    T's pages alone.  The file itself is temporary.  Pages an earlier
    update left dirty stay dirty: eviction or a checkpoint writes them,
    not this read.
    """
    name = f"__output{next(_output_ids)}"
    heap = db.storage.create_file(name)
    heap.insert_many([
        "\x1f".join([_render(v) for v in row]).encode("utf-8") or b"\x00"
        for row in rows])
    db.storage.pool.flush_file(heap.file_id)
    db.storage.drop_file(name)


def _render(value) -> str:
    if isinstance(value, OID):
        return f"@{value.file_id}:{value.page_no}.{value.slot}"
    return str(value)
