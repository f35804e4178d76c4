"""Model-vs-actual drift tracking.

The paper's evaluation (Section 6) is purely analytical; this repo also
runs the same workload on the real engine.  The drift monitor closes the
loop *continuously*: each :class:`~repro.workloads.generator.ModelDatabase`
owns one, every measured query over the two-set model schema records the
cost-model prediction next to the observed physical I/O, and the relative
error is tracked per (strategy, query kind).  A healthy
reproduction keeps drift small; a regression in the engine (or a model
change) shows up here before it shows up in a figure.

Predictions are supplied by callers (see
:func:`repro.workloads.simulate.model_prediction`) so this module stays
free of cost-model imports and can score any predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DriftRecord:
    """One prediction/observation pair."""

    kind: str          #: "read" | "update"
    strategy: str      #: "none" | "inplace" | "separate"
    predicted: float
    observed: float

    @property
    def rel_error(self) -> float:
        """|observed - predicted| / predicted (observed itself when the
        model predicts zero)."""
        if self.predicted == 0:
            return float(abs(self.observed))
        return abs(self.observed - self.predicted) / abs(self.predicted)


@dataclass
class DriftMonitor:
    """Accumulates drift records and summarises relative error."""

    records: list = field(default_factory=list)

    def record(self, kind: str, strategy: str,
               predicted: float, observed: float) -> DriftRecord:
        rec = DriftRecord(kind, strategy, float(predicted), float(observed))
        self.records.append(rec)
        return rec

    def reset(self) -> None:
        self.records.clear()

    # -- selection / aggregation ---------------------------------------------

    def select(self, kind: str | None = None,
               strategy: str | None = None) -> list[DriftRecord]:
        return [
            r for r in self.records
            if (kind is None or r.kind == kind)
            and (strategy is None or r.strategy == strategy)
        ]

    def mean_rel_error(self, kind: str | None = None,
                       strategy: str | None = None) -> float:
        """Relative error of the mean observation against the mean
        prediction (queries are randomized; individual queries wobble
        around the model's expectation, the average is what it predicts)."""
        picked = self.select(kind, strategy)
        if not picked:
            return 0.0
        predicted = sum(r.predicted for r in picked) / len(picked)
        observed = sum(r.observed for r in picked) / len(picked)
        if predicted == 0:
            return float(abs(observed))
        return abs(observed - predicted) / abs(predicted)

    def max_rel_error(self, kind: str | None = None,
                      strategy: str | None = None) -> float:
        picked = self.select(kind, strategy)
        return max((r.rel_error for r in picked), default=0.0)

    def groups(self) -> list[tuple[str, str]]:
        """Distinct (strategy, kind) pairs seen, sorted."""
        return sorted({(r.strategy, r.kind) for r in self.records})

    # -- reporting -----------------------------------------------------------

    def report(self) -> str:
        """A human-readable drift table."""
        if not self.records:
            return "model-vs-actual drift: (no measured queries)"
        lines = [
            "model-vs-actual drift (cost-model prediction vs. measured I/O):",
            f"  {'strategy':10s} {'kind':7s} {'n':>4s} {'predicted':>10s} "
            f"{'observed':>9s} {'rel.err':>8s}",
        ]
        for strategy, kind in self.groups():
            picked = self.select(kind, strategy)
            predicted = sum(r.predicted for r in picked) / len(picked)
            observed = sum(r.observed for r in picked) / len(picked)
            err = self.mean_rel_error(kind, strategy)
            lines.append(
                f"  {strategy:10s} {kind:7s} {len(picked):4d} {predicted:10.1f} "
                f"{observed:9.1f} {err:7.1%}"
            )
        return "\n".join(lines)
