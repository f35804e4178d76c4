"""Cost-based access-path selection (opt-in).

Section 7.1 notes that with field replication "optimization techniques
that use static analysis and the cost models described here can be
applied".  This module applies exactly that: the planner estimates an
index scan's page count with the same Yao expectation the paper's cost
model uses, compares it with the file scan, and picks the cheaper one.

Estimation uses only the index's *running statistics* (entry count and the
min/max of numeric keys, maintained on insert/delete) -- zero planning-time
I/O, so measured query costs stay clean.

The feature is **opt-in** (``Database(cost_based_planning=True)``): the
paper's model assumes every query drives through its index, so the default
planner does too, keeping the reproduction faithful.  It is also
embedded-only: the planner's member count is a full scan, which a
served statement may not run before it enters the engine mutex.
"""

from __future__ import annotations

from repro.costmodel.yao import yao
from repro.objects.types import FieldKind
from repro.query.plan import IndexScan


def estimate_qualifying_rows(scan: IndexScan) -> float:
    """Rows the scan will surface, from the index's running statistics."""
    index = scan.index.index
    count = max(index.stat_count, 1)
    if scan.eq is not None:
        # equality: assume near-unique keys, but never less than one row
        return max(1.0, count * 0.001)
    if index.field.kind not in (FieldKind.INT, FieldKind.FLOAT):
        return count * 0.1  # no interpolation for strings: a coarse default
    lo = scan.lo if scan.lo is not None else index.stat_min
    hi = scan.hi if scan.hi is not None else index.stat_max
    if index.stat_min is None or index.stat_max is None:
        return 0.0  # empty index
    span = index.stat_max - index.stat_min
    if span <= 0:
        return float(count)
    lo = max(lo, index.stat_min)
    hi = min(hi, index.stat_max)
    fraction = max(0.0, min(1.0, (hi - lo) / span))
    return fraction * count


def index_scan_cost(scan: IndexScan, set_pages: int, set_count: int) -> float:
    """Expected pages: tree descent + leaves + Yao-scattered data pages."""
    index = scan.index.index
    rows = estimate_qualifying_rows(scan)
    leaf_capacity = index.tree.leaf_capacity
    descent = index.tree.height
    leaves = max(0.0, rows / leaf_capacity - 1)
    if set_count <= 0 or set_pages <= 0:
        return descent + leaves
    if scan.index.clustered:
        data_pages = (rows / set_count) * set_pages
    else:
        objects_per_page = max(1.0, set_count / set_pages)
        data_pages = set_pages * yao(set_count, objects_per_page, min(rows, set_count))
    return descent + leaves + data_pages


def choose_access(scan: IndexScan, set_pages: int, set_count: int) -> bool:
    """True when the index scan is expected to beat the full file scan."""
    return index_scan_cost(scan, set_pages, set_count) < set_pages
