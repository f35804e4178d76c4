"""Model-vs-actual drift on the Section 6 workload (acceptance: < 15%)."""

import random

import pytest

from repro.workloads import (
    WorkloadConfig,
    build_model_database,
    model_prediction,
    run_read_query,
    run_update_query,
)

#: the Figure 11-style scaled configuration (unclustered, f = 5)
_CONFIG = dict(n_s=300, f=5, f_r=0.01, f_s=0.01, clustered=False)


@pytest.mark.parametrize("strategy", ["none", "inplace", "separate"])
def test_read_drift_under_15_percent_unclustered(strategy):
    cfg = WorkloadConfig(strategy=strategy, **_CONFIG)
    mdb = build_model_database(cfg)
    rng = random.Random(cfg.seed + 1)
    for __ in range(6):
        run_read_query(mdb, rng)
    drift = mdb.drift
    assert len(drift.select(kind="read", strategy=strategy)) == 6
    assert drift.mean_rel_error("read", strategy) < 0.15


def test_update_drift_is_recorded_and_bounded():
    cfg = WorkloadConfig(strategy="inplace", **_CONFIG)
    mdb = build_model_database(cfg)
    rng = random.Random(cfg.seed + 1)
    for __ in range(6):
        run_update_query(mdb, rng)
    drift = mdb.drift
    records = drift.select(kind="update", strategy="inplace")
    assert len(records) == 6
    predicted = model_prediction(cfg, "update")
    assert all(r.predicted == predicted for r in records)
    # same tolerance the model-vs-engine benchmark enforces
    mean_obs = sum(r.observed for r in records) / len(records)
    assert abs(mean_obs - predicted) <= 0.30 * predicted + 2


def test_model_prediction_rejects_unknown_kind():
    cfg = WorkloadConfig(**_CONFIG)
    with pytest.raises(ValueError):
        model_prediction(cfg, "scan")
