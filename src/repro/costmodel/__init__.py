"""The analytical I/O cost model of Section 6."""

from repro.costmodel.claims import ALL_CLAIMS, ClaimResult, check_all_claims
from repro.costmodel.figures import (
    PAPER_FIGURE12,
    PAPER_FIGURE14,
    figure11,
    figure12,
    figure13,
    figure14,
    render_selected_values,
    render_series_table,
    selected_values,
)
from repro.costmodel.model import (
    CostSeries,
    Setting,
    percent_difference,
    read_cost,
    rounded_up,
    sweep,
    total_cost,
    update_cost,
)
from repro.costmodel.params import CostParameters, DerivedParameters, ModelStrategy
from repro.costmodel.sortedprobe import batched_read_cost, expected_distinct
from repro.costmodel.yao import expected_pages, yao

__all__ = [
    "ALL_CLAIMS",
    "ClaimResult",
    "CostParameters",
    "CostSeries",
    "DerivedParameters",
    "ModelStrategy",
    "PAPER_FIGURE12",
    "PAPER_FIGURE14",
    "Setting",
    "batched_read_cost",
    "check_all_claims",
    "expected_distinct",
    "expected_pages",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "percent_difference",
    "read_cost",
    "render_selected_values",
    "render_series_table",
    "rounded_up",
    "selected_values",
    "sweep",
    "total_cost",
    "update_cost",
    "yao",
]
