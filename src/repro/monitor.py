"""Workload monitoring: observe queries, surface replication candidates.

The paper trusts the DBA to know which reference paths are "frequently
accessed and, at the same time, infrequently updated" (Section 3.1).  The
monitor gathers that knowledge from the running system:

* every **functional join** a query performs is recorded against its path
  -- these are precisely the accesses replication could eliminate;
* every **update** to a field is recorded against ``(type, field)`` -- the
  writes replication would have to propagate;
* every path that is *already* replicated keeps one account of plain
  counts: the reads served from its replica (and their rows), and the
  statements that propagated along it (with the source objects they
  changed and the referencers the change reached).

:meth:`WorkloadMonitor.candidates` then joins the two sides and hands each
candidate path to the cost-model advisor, yielding ranked, ready-to-apply
``replicate`` statements.  A replicated path's account is priced only
when it is read: the advisor's Section 6 model, at the path's observed
P_update and sharing level f, gives its strategy's percentage difference
in C_total against no replication -- ``keep`` when the strategy saves at
least the advisor's bar for replicating at all, ``drop`` otherwise.  These
measured candidates rank ahead of the advisor's nominal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.advisor import MIN_WORTHWHILE_SAVING, PathWorkload, Recommendation, recommend
from repro.costmodel.params import CostParameters, ModelStrategy

#: a path whose observed f exceeds what the model can size is priced at it
_MAX_F = CostParameters().max_f


@dataclass
class PathObservation:
    """Access counts for one reference path."""

    source_set: str
    chain: tuple[str, ...]
    terminal: str
    terminal_type: str
    #: functional joins executed (one per row that walked the path)
    join_rows: int = 0
    #: queries that walked the path at least once
    queries: int = 0

    @property
    def text(self) -> str:
        return ".".join((self.source_set,) + self.chain + (self.terminal,))


@dataclass
class FieldObservation:
    """Update counts for one (type, field)."""

    type_name: str
    field_name: str
    updates: int = 0
    statements: int = 0


@dataclass
class PathAccount:
    """What one replicated path served and propagated: plain counts."""

    path: str
    strategy: str  #: "inplace" | "separate"
    #: retrieve statements that read the replica, and the rows they returned
    reads: int = 0
    rows: int = 0
    #: statements that propagated a change along the path, the objects
    #: they changed at its far end, and the referencers the change reached
    #: (for a separate path: those sharing the rewritten replica)
    updates: int = 0
    owners: int = 0
    referencers: int = 0


@dataclass(frozen=True)
class Candidate:
    """One ranked replication candidate.

    Advisor-derived candidates (``action == "add"``) carry an observation
    and a cost-model recommendation; account-derived candidates
    (``action`` ``"keep"`` or ``"drop"``) instead carry the model's
    percentage difference in C_total against no replication for an
    already-replicated path, at its observed P_update and f.
    """

    path_text: str
    observation: PathObservation | None
    update_statements: int
    estimated_p_update: float
    recommendation: Recommendation | None
    action: str = "add"
    percent_vs_none: float | None = None

    @property
    def ddl(self) -> str | None:
        if self.action == "drop":
            return f"drop replicate {self.path_text}"
        if self.action == "keep" or self.recommendation is None:
            return None
        return self.recommendation.ddl(self.path_text)


class WorkloadMonitor:
    """Counts path accesses and field updates for one database."""

    def __init__(self) -> None:
        self._paths: dict[tuple, PathObservation] = {}
        self._fields: dict[tuple, FieldObservation] = {}
        #: replicated path text -> its account
        self._accounts: dict[str, PathAccount] = {}

    # -- recording (called by the executor / Database) -----------------------

    def record_join(self, source_set: str, chain: tuple[str, ...],
                    terminal: str, terminal_type: str, rows: int) -> None:
        """A query walked ``rows`` functional joins over one path."""
        key = (source_set, chain, terminal)
        obs = self._paths.get(key)
        if obs is None:
            obs = PathObservation(source_set, chain, terminal, terminal_type)
            self._paths[key] = obs
        obs.join_rows += rows
        obs.queries += 1

    def record_update(self, type_name: str, field_name: str, rows: int = 1) -> None:
        """An update statement wrote ``rows`` objects' ``field_name``."""
        key = (type_name, field_name)
        obs = self._fields.get(key)
        if obs is None:
            obs = FieldObservation(type_name, field_name)
            self._fields[key] = obs
        obs.updates += rows
        obs.statements += 1

    def _account(self, path) -> PathAccount:
        account = self._accounts.get(path.text)
        if account is None:
            account = PathAccount(path.text, path.strategy.value)
            self._accounts[path.text] = account
        return account

    def record_served(self, path, rows: int) -> None:
        """A retrieve read ``rows`` rows from replicated ``path``."""
        account = self._account(path)
        account.reads += 1
        account.rows += rows

    def record_propagation(self, path, owners: int, referencers: int,
                           statement: bool = True) -> None:
        """A statement changed ``owners`` objects at ``path``'s terminal end
        and propagated the change to ``referencers`` (``statement=False``:
        a lazy refresh, adding to the statements that invalidated)."""
        account = self._account(path)
        if statement:
            account.updates += 1
        account.owners += owners
        account.referencers += referencers

    def forget(self, path_text: str) -> None:
        """Drop one path's account (its ``drop replicate`` ran)."""
        self._accounts.pop(path_text, None)

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self._paths.clear()
        self._fields.clear()
        self._accounts.clear()

    # -- reporting ------------------------------------------------------------

    def path_observations(self) -> list[PathObservation]:
        """All observed paths, most-joined first."""
        return sorted(self._paths.values(), key=lambda o: -o.join_rows)

    def field_observations(self) -> list[FieldObservation]:
        """All observed updated fields, most-updated first."""
        return sorted(self._fields.values(), key=lambda o: -o.updates)

    def updates_against(self, obs: PathObservation, rows: bool = False) -> int:
        """Update statements that would propagate along ``obs``'s path.

        With ``rows=True``, count updated *objects* instead of statements.
        """
        key = (obs.terminal_type, obs.terminal)
        fobs = self._fields.get(key)
        if fobs is None:
            return 0
        return fobs.updates if rows else fobs.statements

    def candidates(self, f: int = 1, f_r: float = 0.001, f_s: float = 0.001,
                   n_s: int = 10_000, clustered: bool = False,
                   min_queries: int = 1,
                   weight_by_rows: bool = False) -> list[Candidate]:
        """Ranked candidates with advisor verdicts.

        ``P_update`` for a path is estimated as the fraction of its traffic
        (reading queries + propagating update statements) that updates.
        With ``weight_by_rows=True`` the estimate uses *row* counts instead
        -- joined rows vs. updated objects -- which weights statements by
        how much work they actually did.  The remaining knobs parameterise
        the cost model; callers can pass measured values when they have
        them.

        Every replicated path with an account additionally yields a
        *measured* candidate, priced as :meth:`ledger` prices it (with the
        same selectivities, ``n_s``, ``clustered`` and weighting): ``keep``
        when its strategy is predicted to save what the advisor asks of a
        new path, ``drop`` when it is not.  Measured candidates rank first,
        worst drop first.
        """
        out = [Candidate(row["path"], None, row["updates"], row["p_update"],
                         None, row["verdict"], row["percent_vs_none"])
               for row in self.ledger(f_r=f_r, f_s=f_s, n_s=n_s,
                                      clustered=clustered,
                                      weight_by_rows=weight_by_rows)]
        for obs in self.path_observations():
            if obs.queries < min_queries:
                continue
            updates = self.updates_against(obs)
            update_weight = self.updates_against(obs, rows=weight_by_rows)
            read_weight = obs.join_rows if weight_by_rows else obs.queries
            total = read_weight + update_weight
            p_update = update_weight / total if total else 0.0
            rec = recommend(
                PathWorkload(
                    update_probability=p_update, f=f, f_r=f_r, f_s=f_s,
                    n_s=n_s, clustered=clustered,
                )
            )
            out.append(
                Candidate(
                    path_text=obs.text,
                    observation=obs,
                    update_statements=updates,
                    estimated_p_update=p_update,
                    recommendation=rec,
                )
            )
        out.sort(key=lambda c: (
            (0, -c.percent_vs_none) if c.percent_vs_none is not None
            else (1, -c.recommendation.saving_percent)))
        return out

    def ledger(self, f_r: float = 0.001, f_s: float = 0.001,
               n_s: int = 10_000, clustered: bool = False,
               weight_by_rows: bool = False) -> list[dict]:
        """Every replicated path's account priced by the Section 6 model,
        worst first.

        P_update is the share of the path's statements that propagated
        (with ``weight_by_rows=True``: changed source objects against
        rows served), f the referencers per changed source object, capped
        at the largest the model can size.  The advisor prices the path's
        strategy against no replication there: ``keep`` when it saves
        the advisor's bar for recommending a path at all
        (:data:`MIN_WORTHWHILE_SAVING`), ``drop`` otherwise.
        """
        rows = []
        # a served engine's readers run outside its mutex: copy first
        for account in dict(self._accounts).values():
            update_weight = account.owners if weight_by_rows else account.updates
            read_weight = account.rows if weight_by_rows else account.reads
            total = read_weight + update_weight
            p_update = update_weight / total if total else 0.0
            f = (min(_MAX_F, max(1, round(account.referencers / account.owners)))
                 if account.owners else 1)
            rec = recommend(PathWorkload(
                update_probability=p_update, f=f, f_r=f_r, f_s=f_s,
                n_s=n_s, clustered=clustered))
            percent = rec.percent_vs_none(ModelStrategy(account.strategy))
            rows.append({**vars(account), "p_update": p_update, "f": f,
                         "percent_vs_none": percent,
                         "verdict": ("keep" if -percent >= MIN_WORTHWHILE_SAVING
                                     else "drop")})
        rows.sort(key=lambda r: (-r["percent_vs_none"], r["path"]))
        return rows

    def render_ledger(self) -> str:
        """The ``\\ledger`` table: :meth:`ledger` at the model's defaults."""
        rows = self.ledger()
        if not rows:
            return "(no replication activity recorded)"
        return "\n".join(ledger_lines(rows))

    def report(self) -> str:
        """A human-readable summary."""
        lines = ["observed functional joins (replication candidates):"]
        if not self._paths:
            lines.append("  (none)")
        for obs in self.path_observations():
            updates = self.updates_against(obs)
            lines.append(
                f"  {obs.text:35s} {obs.queries:5d} queries, "
                f"{obs.join_rows:7d} joins, {updates:5d} conflicting update stmts"
            )
        lines.append("observed field updates:")
        if not self._fields:
            lines.append("  (none)")
        for fobs in self.field_observations():
            lines.append(
                f"  {fobs.type_name}.{fobs.field_name:25s} "
                f"{fobs.statements:5d} statements, {fobs.updates:7d} objects"
            )
        rows = self.ledger()
        if rows:
            lines.append("replication ledger (Section 6 model at the observed "
                         "P_update and f):")
            lines.extend("  " + line for line in ledger_lines(rows))
        return "\n".join(lines)


def ledger_lines(rows: list[dict]) -> list[str]:
    """A header and one line per :meth:`WorkloadMonitor.ledger` row (the
    ``\\ledger`` table, ``\\monitor``'s ledger section, ``\\top``'s pane)."""
    lines = [f"{'reads':>6} {'rows':>7} {'updates':>7} {'owners':>6} "
             f"{'refs':>7} {'P_update':>8} {'f':>4} {'vs none':>8}  "
             f"verdict  path"]
    for r in rows:
        lines.append(
            f"{r['reads']:6d} {r['rows']:7d} {r['updates']:7d} "
            f"{r['owners']:6d} {r['referencers']:7d} {r['p_update']:8.3f} "
            f"{r['f']:4d} {r['percent_vs_none']:+7.1f}%  {r['verdict']:7s}  "
            f"{r['path']}")
    return lines


def apply_recommendations(db, candidates: list[Candidate],
                          max_paths: int | None = None) -> list[str]:
    """Apply the advisor's DDL for the top candidates; returns statements run."""
    applied = []
    for candidate in candidates:
        if max_paths is not None and len(applied) >= max_paths:
            break
        ddl = candidate.ddl
        if ddl is None or candidate.action != "add":
            continue
        strategy = (
            "separate"
            if candidate.recommendation.strategy is ModelStrategy.SEPARATE
            else "inplace"
        )
        db.replicate(candidate.path_text, strategy=strategy)
        applied.append(ddl)
    return applied
