"""The empirical simulator: run the model's query mix on the real engine.

Read and update queries are the paper's (Section 6)::

    retrieve (R.field_r, R.sref.repfield)
    where R.field_r >= lo and R.field_r <= hi       -- f_r |R| objects

    replace (S.repfield = '...', S.payload...)
    where S.field_s >= lo and S.field_s <= hi       -- f_s |S| objects

Each query starts from a cold buffer pool, matching the model's
assumption that queries are charged for every page they touch; the pool
is sized so that no page is read twice within one query (the "optimal
join" assumption of Section 6.2).

The entry point, :func:`compare_strategies`, measures average read and
update costs for the three strategies on identically seeded databases and
returns per-P_update totals -- the empirical analogue of Figures 11/13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.costmodel import (
    CostParameters,
    ModelStrategy,
    Setting,
    batched_read_cost,
    update_cost,
)
from repro.workloads.generator import ModelDatabase, WorkloadConfig, build_model_database

STRATEGIES = ("none", "inplace", "separate")

_MODEL_STRATEGY = {
    "none": ModelStrategy.NO_REPLICATION,
    "inplace": ModelStrategy.IN_PLACE,
    "separate": ModelStrategy.SEPARATE,
}


def model_params(config: WorkloadConfig) -> CostParameters:
    """The Section 6 parameters matching a workload configuration."""
    return CostParameters(n_s=config.n_s, f=config.f, f_r=config.f_r,
                          f_s=config.f_s, k=config.k, r=config.r, s=config.s)


def model_prediction(config: WorkloadConfig, kind: str) -> float:
    """The cost model's predicted I/O for one query of ``kind`` on
    ``config`` ("read" or "update").

    Reads are priced as the executor runs them: the sorted-probe bound
    (one ordered sweep per hop level) in place of the paper's Yao
    random-probe join term.  Updates never functionally join.
    """
    params = model_params(config)
    strategy = _MODEL_STRATEGY[config.strategy]
    setting = Setting.CLUSTERED if config.clustered else Setting.UNCLUSTERED
    if kind == "read":
        return batched_read_cost(params, strategy, setting)
    if kind == "update":
        return update_cost(params, strategy, setting)
    raise ValueError(f"unknown query kind {kind!r}")


def run_read_query(mdb: ModelDatabase, rng: random.Random,
                   materialize: bool = True) -> int:
    """One cold-cache read query; returns its physical I/O.

    Every measured query also feeds the model database's drift monitor
    with the cost model's prediction for this configuration.
    """
    cfg = mdb.config
    span = cfg.objects_per_read
    lo = rng.randrange(0, cfg.n_r - span + 1)
    hi = lo + span - 1
    mdb.db.cold_cache()
    before = mdb.db.stats.snapshot()
    result = mdb.db.execute(
        f"retrieve (R.field_r, R.sref.repfield) "
        f"where R.field_r >= {lo} and R.field_r <= {hi}",
        materialize=materialize,
    )
    mdb.db.storage.pool.flush_all()  # charge deferred write-backs to this query
    assert len(result) == span
    observed = (mdb.db.stats.snapshot() - before).total_io
    mdb.drift.record(
        "read", cfg.strategy, model_prediction(cfg, "read"), observed)
    return observed


def run_update_query(mdb: ModelDatabase, rng: random.Random) -> int:
    """One cold-cache update query; returns its physical I/O."""
    cfg = mdb.config
    span = cfg.objects_per_update
    lo = rng.randrange(0, cfg.n_s - span + 1)
    hi = lo + span - 1
    value = f"u{rng.randrange(10_000)}"
    mdb.db.cold_cache()
    before = mdb.db.stats.snapshot()
    result = mdb.db.execute(
        f"replace (S.repfield = '{value}') "
        f"where S.field_s >= {lo} and S.field_s <= {hi}"
    )
    mdb.db.storage.pool.flush_all()  # charge deferred write-backs to this query
    assert len(result) == span
    observed = (mdb.db.stats.snapshot() - before).total_io
    mdb.drift.record(
        "update", cfg.strategy, model_prediction(cfg, "update"), observed)
    return observed


def run_mix(mdb: ModelDatabase, p_update: float, n_queries: int,
            rng: random.Random | None = None) -> float:
    """Run a randomized read/update mix; returns average I/O per query.

    This measures C_total directly -- each query is drawn to be an update
    with probability ``p_update`` -- rather than composing separately
    measured averages, validating the model's linear mixing assumption.
    """
    rng = rng or random.Random(mdb.config.seed + 7)
    total = 0
    for __ in range(n_queries):
        if rng.random() < p_update:
            total += run_update_query(mdb, rng)
        else:
            total += run_read_query(mdb, rng)
    return total / n_queries


@dataclass(frozen=True)
class MeasuredCosts:
    """Average measured I/O per query kind for one strategy."""

    strategy: str
    read: float
    update: float

    def total(self, p_update: float) -> float:
        """The empirical C_total."""
        return (1.0 - p_update) * self.read + p_update * self.update


def measure_strategy(config: WorkloadConfig, trials: int = 5) -> MeasuredCosts:
    """Build one database and average its query costs over ``trials``."""
    mdb = build_model_database(config)
    rng = random.Random(config.seed + 1)
    reads = [run_read_query(mdb, rng) for __ in range(trials)]
    updates = [run_update_query(mdb, rng) for __ in range(trials)]
    # drain lazy queues so averages stay comparable across trials
    mdb.db.refresh()
    return MeasuredCosts(
        strategy=config.strategy,
        read=sum(reads) / len(reads),
        update=sum(updates) / len(updates),
    )


def compare_strategies(base: WorkloadConfig, trials: int = 5) -> dict[str, MeasuredCosts]:
    """Measure all three strategies on identically seeded databases."""
    return {
        strategy: measure_strategy(replace(base, strategy=strategy), trials)
        for strategy in STRATEGIES
    }


def percent_differences(costs: dict[str, MeasuredCosts],
                        p_updates=(0.0, 0.25, 0.5, 0.75, 1.0)) -> dict[str, list[float]]:
    """Empirical Figure 11/13 series: % difference in C_total vs none."""
    out: dict[str, list[float]] = {}
    for strategy in ("inplace", "separate"):
        series = []
        for p in p_updates:
            base_total = costs["none"].total(p)
            series.append(100.0 * (costs[strategy].total(p) - base_total) / base_total)
        out[strategy] = series
    return out
