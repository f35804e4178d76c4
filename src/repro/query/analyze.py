"""EXPLAIN ANALYZE support: per-operator execution statistics.

When a plan is executed with ``analyze=True`` the executor attributes
every page of I/O to the operator that caused it -- the access path, each
fetch step (with per-hop sub-operators for functional joins), the sort /
group key fetches, replica-refresh work, and output materialisation.  The
result is a tree of :class:`OperatorStats` whose top level sums exactly
to the query's :class:`~repro.storage.stats.IOSnapshot` -- the empirical
analogue of the paper's per-term cost decomposition, but produced by one
executed query instead of a model.

Measurement is deliberately cheap: the meter reads six integer counters
off the shared :class:`~repro.storage.stats.IOStatistics` before and
after each operator step (no snapshot dict copies), so ANALYZE overhead
is a few attribute reads per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OperatorStats:
    """Execution statistics for one plan operator (or join hop)."""

    name: str
    detail: str = ""
    rows: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    buffer_hits: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    #: rows whose reference chain ended at a NULL before this operator's
    #: level was reached (no hop child is created for a never-taken hop)
    nulls: int = 0
    #: batched join only: distinct OIDs actually swept at this hop level
    distinct: int = 0
    #: batched join only: probe OIDs dropped by sort-and-dedupe
    dedup_saved: int = 0
    children: list["OperatorStats"] = field(default_factory=list)

    @property
    def total_io(self) -> int:
        """Physical reads + writes -- the paper's cost unit."""
        return self.physical_reads + self.physical_writes

    def child(self, name: str, detail: str = "") -> "OperatorStats":
        """Get-or-create a named sub-operator (e.g. one join hop)."""
        for existing in self.children:
            if existing.name == name:
                return existing
        created = OperatorStats(name, detail)
        self.children.append(created)
        return created

    def io_dict(self) -> dict:
        return {
            "physical_reads": self.physical_reads,
            "physical_writes": self.physical_writes,
            "logical_reads": self.logical_reads,
            "buffer_hits": self.buffer_hits,
            "evictions": self.evictions,
            "dirty_writebacks": self.dirty_writebacks,
        }


class Meter:
    """Attributes I/O deltas from the shared counters to operators.

    Not re-entrant: the executor is single-threaded, and nested
    attribution (join hops inside a fetch step) uses explicit paired
    ``begin``/``end`` calls so a hop's I/O lands in both the hop and its
    parent operator.
    """

    __slots__ = ("stats",)

    def __init__(self, stats) -> None:
        self.stats = stats

    def begin(self) -> tuple:
        stats = self.stats
        return (
            stats.physical_reads,
            stats.physical_writes,
            stats.logical_reads,
            stats.buffer_hits,
            stats.evictions,
            stats.dirty_writebacks,
        )

    def end(self, mark: tuple, op: OperatorStats) -> None:
        stats = self.stats
        op.physical_reads += stats.physical_reads - mark[0]
        op.physical_writes += stats.physical_writes - mark[1]
        op.logical_reads += stats.logical_reads - mark[2]
        op.buffer_hits += stats.buffer_hits - mark[3]
        op.evictions += stats.evictions - mark[4]
        op.dirty_writebacks += stats.dirty_writebacks - mark[5]


def operators_total_io(operators) -> int:
    """Physical I/O summed over the *top-level* operators (children are
    already contained in their parents)."""
    return sum(op.total_io for op in operators)


def render_analyze(result) -> str:
    """Render a ``QueryResult``'s operator tree as a fixed-width table."""
    if not result.operators:
        return "(no operator statistics; run with analyze=True)"
    header = (
        f"{'operator':44s} {'rows':>7s} {'reads':>6s} {'writes':>6s} "
        f"{'logical':>7s} {'hits':>6s}"
    )
    lines = [header, "-" * len(header)]

    def emit(op: OperatorStats, depth: int) -> None:
        label = "  " * depth + op.name
        if op.detail:
            label += f" {op.detail}"
        extras = []
        if op.distinct:
            extras.append(f"distinct={op.distinct}")
        if op.dedup_saved:
            extras.append(f"dedup={op.dedup_saved}")
        if op.nulls:
            extras.append(f"null={op.nulls}")
        if extras:
            label += f" [{' '.join(extras)}]"
        if len(label) > 44:
            label = label[:41] + "..."
        lines.append(
            f"{label:44s} {op.rows:7d} {op.physical_reads:6d} "
            f"{op.physical_writes:6d} {op.logical_reads:7d} {op.buffer_hits:6d}"
        )
        for sub in op.children:
            emit(sub, depth + 1)

    for op in result.operators:
        emit(op, 0)
    lines.append("-" * len(header))
    io = result.io
    lines.append(
        f"{'total':44s} {len(result.rows):7d} {io.physical_reads:6d} "
        f"{io.physical_writes:6d} {io.logical_reads:7d} {io.buffer_hits:6d}"
    )
    if io.evictions or io.dirty_writebacks:
        lines.append(
            f"({io.evictions} eviction(s), {io.dirty_writebacks} dirty write-back(s))"
        )
    return "\n".join(lines)


def render_analyze_report(result) -> str:
    """What ``explain analyze`` prints, in the shell and over the wire:
    the operator table plus the row-count / plan / cache line."""
    tail = f"({len(result.rows)} row(s))   plan: {result.plan}"
    if result.cache:
        tail += f"   cache: {result.cache}"
    return render_analyze(result) + "\n" + tail
