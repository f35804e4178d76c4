"""Query plans.

A retrieve plan is an access path plus one *fetch step* per target:

* ``LocalField``       -- read a field of the scanned object (free),
* ``HiddenField``      -- read a hidden replicated value (free: this is the
  functional join that replication eliminated),
* ``ReplicaFetch``     -- follow the hidden replica ref into S' (one
  functional join against the small replica set -- separate replication),
* ``HiddenRefJump``    -- start from a replicated *reference* (a collapsed
  path, Section 3.3.3) and finish with a shorter functional join,
* ``FunctionalJoin``   -- the unassisted chain of OID dereferences.

Plans render to a compact ``explain()`` string so tests and examples can
assert which strategy the planner picked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.language import FieldRef, Where
from repro.schema.catalog import IndexInfo


@dataclass(frozen=True)
class IndexScan:
    """Drive the query from a B+-tree on the filter field.

    Either an equality probe (``eq`` set) or a range scan bounded by
    ``lo`` / ``hi`` (strict flags exclude the bound itself).  Bounds may
    combine two where-clauses on the same field (``x >= a and x <= b``).
    """

    index: IndexInfo
    eq: object = None
    lo: object = None
    lo_strict: bool = False
    hi: object = None
    hi_strict: bool = False

    def explain(self) -> str:
        kind = "clustered" if self.index.clustered else "unclustered"
        if self.eq is not None:
            cond = f"= {self.eq!r}"
        else:
            parts = []
            if self.lo is not None:
                parts.append(f"{'>' if self.lo_strict else '>='} {self.lo!r}")
            if self.hi is not None:
                parts.append(f"{'<' if self.hi_strict else '<='} {self.hi!r}")
            cond = " and ".join(parts) if parts else "full"
        return f"IndexScan({self.index.name} [{kind}] {cond})"


@dataclass(frozen=True)
class FileScan:
    """Scan the whole set file, filtering as we go."""

    set_name: str

    def explain(self) -> str:
        return f"FileScan({self.set_name})"


@dataclass(frozen=True)
class LocalField:
    target: FieldRef
    field_name: str

    def explain(self) -> str:
        return f"local({self.field_name})"


@dataclass(frozen=True)
class HiddenField:
    target: FieldRef
    hidden_field: str
    path_text: str

    def explain(self) -> str:
        return f"replicated({self.path_text} -> {self.hidden_field})"


@dataclass(frozen=True)
class ReplicaFetch:
    target: FieldRef
    hidden_ref: str
    path_id: int
    field_name: str
    path_text: str

    def explain(self) -> str:
        return f"replica({self.path_text} via {self.hidden_ref}.{self.field_name})"


@dataclass(frozen=True)
class HiddenRefJump:
    target: FieldRef
    hidden_field: str
    remaining_chain: tuple[str, ...]
    field_name: str
    path_text: str

    def explain(self) -> str:
        hops = ".".join(self.remaining_chain + (self.field_name,))
        return f"jump({self.path_text} -> {self.hidden_field} then {hops})"


@dataclass(frozen=True)
class FunctionalJoin:
    target: FieldRef
    chain: tuple[str, ...]
    field_name: str

    def explain(self) -> str:
        return f"join({'.'.join(self.chain)}.{self.field_name})"


FetchStep = LocalField | HiddenField | ReplicaFetch | HiddenRefJump | FunctionalJoin
AccessPath = IndexScan | FileScan


@dataclass(frozen=True)
class RetrievePlan:
    set_name: str
    access: AccessPath
    steps: tuple[FetchStep, ...]
    where: Where | None
    #: lazy paths that must be refreshed before replicated data is trusted
    refresh_paths: tuple[str, ...] = ()
    materialize: bool = True
    #: per-step aggregate function names (None entries = plain projection)
    aggregates: tuple[str | None, ...] | None = None
    #: sort key fetch step, direction, and row cap
    order_step: FetchStep | None = None
    descending: bool = False
    limit: int | None = None
    #: group-by key fetch steps (aggregates then fold per key tuple)
    group_steps: tuple[FetchStep, ...] = ()

    def explain(self) -> str:
        parts = [self.access.explain()]
        if self.aggregates:
            parts.extend(
                f"{fn}({step.explain()})" if fn else step.explain()
                for fn, step in zip(self.aggregates, self.steps)
            )
        else:
            parts.extend(step.explain() for step in self.steps)
        if self.where is not None:
            parts.append(f"filter({self.where.text})")
        if self.group_steps:
            keys = ", ".join(step.explain() for step in self.group_steps)
            parts.append(f"group({keys})")
        if self.order_step is not None:
            direction = "desc" if self.descending else "asc"
            parts.append(f"sort({self.order_step.explain()} {direction})")
        if self.limit is not None:
            parts.append(f"limit({self.limit})")
        if self.refresh_paths:
            parts.append(f"refresh({', '.join(self.refresh_paths)})")
        return " -> ".join(parts)


@dataclass(frozen=True)
class UpdatePlan:
    set_name: str
    access: AccessPath
    assignments: tuple[tuple[str, object], ...]
    where: Where | None

    def explain(self) -> str:
        sets = ", ".join(f"{k}={v!r}" for k, v in self.assignments)
        parts = [self.access.explain(), f"update({sets})"]
        if self.where is not None:
            parts.append(f"filter({self.where.text})")
        return " -> ".join(parts)


@dataclass(frozen=True)
class DeletePlan:
    set_name: str
    access: AccessPath
    where: Where | None

    def explain(self) -> str:
        parts = [self.access.explain(), "delete"]
        if self.where is not None:
            parts.append(f"filter({self.where.text})")
        return " -> ".join(parts)
