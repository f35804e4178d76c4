"""Set-oriented execution: batched sort-and-dedupe functional joins.

Dereferencing one OID per hop per row turns a functional join into
random I/O and re-reads a shared target object once per referencer.
This module is the executor's assembly-style answer: drain the access
path in batches of :attr:`Database.join_batch_rows` rows, extract
each hop level's next-hop OIDs, sort them by ``(file_id, page_no, slot)``,
dedupe, resolve the whole level with one ordered sweep
(:meth:`ObjectStore.read_many`), and fan the values back to their rows --
so each target page is pinned once per batch and the sweep reads the file
in physical order.  File scans additionally opt into heap-page read-ahead
sized to the buffer pool.  No object is built between the index leaf (or
the scanned page) and the result row: a row is the tuple of the values of
:func:`scanned_fields`, each sliced off the record's pinned page by the
projected read (:func:`repro.objects.encoding.projector`), and a hop level
slices the one field it needs -- the next reference, or the terminal
value -- off each object it reaches.

Row order, row values, and raised errors match a row-at-a-time loop
exactly: ``tests/test_executor_parity.py`` keeps one as
``reference_retrieve`` and checks the full query corpus against it; only
the physical I/O pattern differs.  When metering (EXPLAIN ANALYZE), each
hop level appears as a ``hop <ref>`` child of its join operator, with
per-level ``distinct`` / ``dedup`` batch statistics; rows whose chain
ends at a NULL reference are counted as ``nulls`` on the join operator
and never create a hop child for a level they did not reach.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from repro.query.analyze import Meter, OperatorStats
from repro.query.plan import (
    FileScan,
    FunctionalJoin,
    HiddenField,
    HiddenRefJump,
    IndexScan,
    LocalField,
    ReplicaFetch,
    RetrievePlan,
)
from repro.storage.constants import SCAN_READAHEAD_PAGES
from repro.storage.oid import OID


def scan_readahead(db) -> int:
    """Read-ahead window for a batched file scan, sized to the pool.

    Small pools get no read-ahead: prefetching more pages than the pool
    can hold evicts the window before the cursor arrives and turns each
    page into two physical reads.
    """
    window = min(SCAN_READAHEAD_PAGES, db.storage.pool.capacity // 2)
    return window if window >= 2 else 0


def iter_batches(db, plan: RetrievePlan, fields: tuple[str, ...],
                 meter: Meter | None = None,
                 scan_op: OperatorStats | None = None):
    """Yield lists of filtered rows, one batch at a time: a row is the
    tuple of a scanned object's values of ``fields``
    (:func:`scanned_fields`).

    Scan I/O -- including read-ahead and any batched filter joins -- is
    attributed to ``scan_op`` when metering.
    """
    raw = iter(_raw_rows(db, plan, fields))
    batch_rows = db.join_batch_rows
    while True:
        mark = meter.begin() if meter is not None else None
        batch = list(islice(raw, batch_rows))
        done = len(batch) < batch_rows
        if batch and plan.where is not None:
            batch = filter_batch(db, plan.set_name, plan.where, batch, fields)
        if meter is not None:
            meter.end(mark, scan_op)
            scan_op.rows += len(batch)
        if batch:
            yield batch
        if done:
            return


def _raw_rows(db, plan: RetrievePlan, fields: tuple[str, ...]):
    """Unfiltered rows in access order, each sliced off its record's
    pinned page (the projected read of ``fields``).

    Index scans are batched too: a window of index-qualified OIDs resolves
    through one ordered sweep, then rows surface in index-key order.
    """
    obj_set = db.catalog.get_set(plan.set_name)
    if isinstance(plan.access, FileScan):
        for __, values in obj_set.scan(readahead=scan_readahead(db),
                                       fields=fields):
            yield values
        return
    assert isinstance(plan.access, IndexScan)
    from repro.query.executor import _index_oids

    oids = iter(_index_oids(plan.access))
    while True:
        window = list(islice(oids, db.join_batch_rows))
        if not window:
            return
        yield from map(db.store.read_many(window, fields).__getitem__, window)


def scanned_fields(db, plan: RetrievePlan) -> tuple[str, ...]:
    """The fields of a scanned object the plan reads, in name order: where
    its fetch steps, sort key, group keys and filter clauses start from.
    A scanned row holds their values in this order."""
    steps = plan.steps + plan.group_steps
    if plan.order_step is not None:
        steps += (plan.order_step,)
    names = {_start_field(step) for step in steps}
    if plan.where is not None:
        names.update(_clause_source(db, plan.set_name, clause.ref)[1]
                     for clause in plan.where.clauses)
    return tuple(sorted(names))


def _start_field(step) -> str:
    if isinstance(step, LocalField):
        return step.field_name
    if isinstance(step, (HiddenField, HiddenRefJump)):
        return step.hidden_field
    if isinstance(step, ReplicaFetch):
        return step.hidden_ref
    assert isinstance(step, FunctionalJoin)
    return step.chain[0]


# ---------------------------------------------------------------------------
# batched filtering (path-valued where clauses)
# ---------------------------------------------------------------------------


def _clause_source(db, set_name: str, ref) -> tuple[str, str]:
    """How a where-clause reference is answered from a scanned object:
    ``("field", name)`` read in place (a local field or a value replicated
    in place), ``("replica", hidden_ref)`` through the separate replica
    set, or ``("join", first_ref)`` by functional join."""
    if not ref.chain:
        return "field", ref.field
    path = db.catalog.find_path(set_name, ref.chain, ref.field)
    if path is not None and path.hidden_fields:
        return "field", path.hidden_field_for(ref.field)
    if path is not None and path.hidden_ref is not None:
        return "replica", path.hidden_ref
    return "join", ref.chain[0]


def filter_batch(db, set_name: str, where, batch: list,
                 fields: tuple[str, ...]) -> list:
    """Apply ``where`` to a batch of rows holding ``fields``, batching its
    path-valued lookups.

    Local and in-place-replicated clause values come straight off each
    row; separate-replica and functional-join clause values are resolved
    for the whole batch in one sweep per distinct path before any
    predicate runs.
    """
    #: clause ref -> the row position to read, or the batch's resolved
    #: values
    in_place: dict = {}
    resolved: dict = {}
    for clause in where.clauses:
        ref = clause.ref
        if ref in in_place or ref in resolved:
            continue
        how, name = _clause_source(db, set_name, ref)
        if how == "field":
            in_place[ref] = fields.index(name)
        elif how == "replica":
            refs = _column(batch, fields, name)
            resolved[ref] = replica_values(db, refs, ref.field)
        else:
            starts = _column(batch, fields, name)
            resolved[ref] = resolve_chain_values(db, starts, ref.chain[1:],
                                                 ref.field)
    out = []
    for i, row in enumerate(batch):
        def lookup(ref, i=i, row=row):
            if ref in in_place:
                return row[in_place[ref]]
            return resolved[ref][i]

        if where.matches(lookup):
            out.append(row)
    return out


def _column(batch: list, fields: tuple[str, ...], name: str) -> list:
    """Field ``name``'s value in every row of the batch, in row order."""
    return list(map(itemgetter(fields.index(name)), batch))


# ---------------------------------------------------------------------------
# batched fetch steps
# ---------------------------------------------------------------------------


def resolve_step_batch(db, step, batch: list, fields: tuple[str, ...],
                       meter: Meter | None = None,
                       op: OperatorStats | None = None) -> list:
    """One fetch step's values for every row of the batch (rows holding
    ``fields``), in row order."""
    column = _column(batch, fields, _start_field(step))
    if isinstance(step, (LocalField, HiddenField)):
        return column
    if isinstance(step, ReplicaFetch):
        return replica_values(db, column, step.field_name, op=op)
    if isinstance(step, HiddenRefJump):
        labels = ["hop jump"] + [f"hop {r}" for r in step.remaining_chain]
        return resolve_chain_values(db, column, step.remaining_chain,
                                    step.field_name, hop_labels=labels,
                                    meter=meter, op=op)
    assert isinstance(step, FunctionalJoin)
    labels = [f"hop {r}" for r in step.chain]
    return resolve_chain_values(db, column, step.chain[1:], step.field_name,
                                hop_labels=labels, meter=meter, op=op)


def replica_values(db, refs: list[OID | None], field_name: str,
                   op: OperatorStats | None = None) -> list:
    """Batch-dereference replica refs (separate replication's S' join)."""
    live = [r for r in refs if r is not None]
    values = db.store.read_many(live, (field_name,)) if live else {}
    if op is not None:
        op.nulls += len(refs) - len(live)
        distinct = len(set(live))
        op.distinct += distinct
        op.dedup_saved += len(live) - distinct
    return [values[r][0] if r is not None else None for r in refs]


def resolve_chain_values(db, start_oids: list, chain, field_name: str,
                         hop_labels: list[str] | None = None,
                         meter: Meter | None = None,
                         op: OperatorStats | None = None) -> list:
    """Resolve a reference chain for many rows, one sweep per hop level.

    ``start_oids`` is aligned with the rows (None entries short-circuit to
    a NULL value).  Returns the terminal field
    values in row order.  Each level reads one field of each object it
    reaches -- the next reference, then the terminal value -- sliced off
    the pinned page.  With metering, each level's sweep is attributed
    to a ``hop_labels[level]`` child of ``op`` -- created only when the
    level has at least one live reference, so all-NULL levels leave no
    phantom hop -- and rows that never reach the terminal are counted on
    ``op.nulls``.
    """
    n = len(start_oids)
    current = list(start_oids)
    live = [i for i in range(n) if current[i] is not None]
    values = [None] * n
    n_levels = 1 + len(chain)
    for level in range(n_levels):
        if not live:
            break
        probes = [current[i] for i in live]
        hop = None
        if op is not None and hop_labels is not None:
            hop = op.child(hop_labels[level])
        mark = meter.begin() if (meter is not None and hop is not None) else None
        read = db.store.read_many(
            probes, (chain[level] if level < len(chain) else field_name,))
        if mark is not None:
            meter.end(mark, hop)
        if hop is not None:
            hop.rows += len(probes)
            distinct = len(read)
            hop.distinct += distinct
            hop.dedup_saved += len(probes) - distinct
        if level < len(chain):
            still = []
            for i in live:
                nxt = read[current[i]][0]
                current[i] = nxt
                if nxt is not None:
                    still.append(i)
            live = still
        else:
            for i in live:
                values[i] = read[current[i]][0]
    if op is not None:
        op.nulls += n - len(live)
    return values
