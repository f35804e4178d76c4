"""``compare A.json B.json``: is record B worse than record A?

One row per workload and end-to-end metric, never a combined score.
"""

from __future__ import annotations

from benchmarks.harness import metrics as m


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok`` | ``worse`` | ``unresolved`` for B's values against A's.

    ``worse``: B's median is beyond A's by more than ``bound`` of A's.
    ``unresolved``: either side's quartile spread exceeds the bound, so
    the medians cannot carry a verdict -- unless every B run reads better
    than every A run.
    """
    sign = 1.0 if better == "lower" else -1.0
    mid_a, mid_b = m.median(a), m.median(b)
    if sign * (mid_b - mid_a) > bound * abs(mid_a):
        return "worse"
    if max(m.spread(a), m.spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "ok"
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether B may be accepted."""
    lines = [f"A: commit {a['commit']} seed {a['seed']}   "
             f"B: commit {b['commit']} seed {b['seed']}",
             f"{'workload':12s} {'metric':24s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s} {'bound':>6s}  verdict"]
    accepted = True
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            lines.append(f"{name:12s} missing from B")
            accepted = False
            continue
        for metric, (__, better, bound) in m.END_TO_END.items():
            va = side_a["end_to_end"][metric]["values"]
            vb = side_b["end_to_end"][metric]["values"]
            result = verdict(va, vb, better, bound)
            accepted = accepted and result != "worse"
            lines.append(f"{name:12s} {metric:24s} {_cell(va):>34s} "
                         f"{_cell(vb):>34s} {bound:6.2f}  {result}")
        share_a = m.per(side_a["failed"], side_a["attempted"])
        share_b = m.per(side_b["failed"], side_b["attempted"])
        failed = "ok" if share_b <= share_a else "worse"
        accepted = accepted and failed == "ok"
        lines.append(f"{name:12s} {'failed_share':24s} {share_a:34.6f} "
                     f"{share_b:34.6f} {0.0:6.2f}  {failed}")
    return lines, accepted


def _cell(values: list[float]) -> str:
    first, third = m.quartiles(values)
    return f"{m.median(values):.4f} [{first:.4f}, {third:.4f}]"
