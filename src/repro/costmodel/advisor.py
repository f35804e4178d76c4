"""A replication advisor built on the analytical cost model.

The paper leans on a knowledgeable DBA: "replication should only be
specified on reference paths that are frequently accessed and, at the same
time, infrequently updated" (Section 3.1).  The advisor mechanises that
judgement: given a path's observed workload -- how often queries read it,
how often its source data is updated, the sharing level, the selectivities
-- it evaluates C_total under all three strategies and recommends the
cheapest, with the margin and the DDL to apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.model import Setting, total_cost
from repro.costmodel.params import CostParameters, ModelStrategy
from repro.errors import CostModelError


@dataclass(frozen=True)
class PathWorkload:
    """Observed / estimated workload on one reference path."""

    #: probability that a query against the mix is an update (the model's
    #: P_update); reads make up the rest.
    update_probability: float
    #: sharing level: average referencers per referenced object.
    f: int = 1
    #: read / update query selectivities.
    f_r: float = 0.001
    f_s: float = 0.001
    #: whether the driving indexes are clustered.
    clustered: bool = False
    #: size knobs (defaults are the paper's).
    n_s: int = 10_000
    k: int = 20
    r: int = 100
    s: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.update_probability <= 1.0:
            raise CostModelError("update probability must be in [0, 1]")

    def parameters(self) -> CostParameters:
        """The cost-model parameters this workload implies."""
        return CostParameters(
            n_s=self.n_s, f=self.f, f_r=self.f_r, f_s=self.f_s,
            k=self.k, r=self.r, s=self.s,
        )

    @property
    def setting(self) -> Setting:
        return Setting.CLUSTERED if self.clustered else Setting.UNCLUSTERED


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one path."""

    strategy: ModelStrategy
    costs: dict = field(default_factory=dict)
    #: percentage saved vs. no replication (0 when the verdict IS none).
    saving_percent: float = 0.0
    reasoning: str = ""

    def percent_vs_none(self, strategy: ModelStrategy) -> float:
        """``strategy``'s C_total against no replication, in percent."""
        base = self.costs[ModelStrategy.NO_REPLICATION]
        return 100.0 * (self.costs[strategy] - base) / base

    def ddl(self, path_text: str) -> str | None:
        """The statement to apply (None when replication doesn't pay)."""
        if self.strategy is ModelStrategy.NO_REPLICATION:
            return None
        if self.strategy is ModelStrategy.SEPARATE:
            return f"replicate {path_text} using separate"
        return f"replicate {path_text}"


#: require at least this much predicted saving before recommending the
#: extra storage and maintenance machinery.
MIN_WORTHWHILE_SAVING = 2.0  # percent


def recommend(workload: PathWorkload) -> Recommendation:
    """Evaluate all strategies on the workload and pick the cheapest."""
    params = workload.parameters()
    p = workload.update_probability
    costs = {
        strategy: total_cost(params, strategy, workload.setting, p)
        for strategy in ModelStrategy
    }
    base = costs[ModelStrategy.NO_REPLICATION]
    best = min(costs, key=costs.get)
    saving = 100.0 * (base - costs[best]) / base
    if best is not ModelStrategy.NO_REPLICATION and saving < MIN_WORTHWHILE_SAVING:
        best, saving = ModelStrategy.NO_REPLICATION, 0.0
    return Recommendation(
        strategy=best,
        costs=costs,
        saving_percent=max(saving, 0.0),
        reasoning=_explain(workload, costs, best, saving),
    )


def _explain(workload: PathWorkload, costs, best, saving) -> str:
    p = workload.update_probability
    parts = [
        f"P_update={p:.2f}, f={workload.f}, "
        f"{'clustered' if workload.clustered else 'unclustered'} indexes."
    ]
    if best is ModelStrategy.NO_REPLICATION:
        parts.append(
            "Updates are too frequent (or sharing too unfavourable) for "
            "replication to pay for its propagation cost."
        )
    elif best is ModelStrategy.IN_PLACE:
        parts.append(
            f"In-place replication eliminates the functional join outright; "
            f"at this update rate the propagation to f={workload.f} "
            f"referencers stays affordable (saves {saving:.0f}%)."
        )
    else:
        parts.append(
            f"Separate replication keeps update propagation cheap (one "
            f"shared replica per source object) while the small S' still "
            f"shrinks the join (saves {saving:.0f}%)."
        )
    return " ".join(parts)


def sweep_recommendations(workload: PathWorkload,
                          p_updates=(0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)) -> list:
    """The verdict across a grid of update probabilities."""
    out = []
    for p in p_updates:
        w = PathWorkload(
            update_probability=p, f=workload.f, f_r=workload.f_r,
            f_s=workload.f_s, clustered=workload.clustered,
            n_s=workload.n_s, k=workload.k, r=workload.r, s=workload.s,
        )
        out.append((p, recommend(w)))
    return out
