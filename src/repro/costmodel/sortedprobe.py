"""Sorted-probe cost formula for the batched (set-oriented) join.

Yao's function prices a functional join as *unordered* OID probes: each of
the ``c`` qualifying R objects dereferences its S reference independently,
so the expected S pages touched are ``P_s * y(|R|, f*O_s, c)`` -- with a
buffer pool smaller than S, every probe can be a fresh physical read.

The batched executor changes the physics.  It collects a batch of probe
OIDs, sorts them by ``(file_id, page_no, slot)``, dedupes, and resolves
the whole level in one ordered sweep -- so a page is touched at most once
per sweep no matter how many probes land on it, and the sweep's cost is
bounded by *both* the file size and the number of distinct objects probed:

    min(P, d)

where ``d`` is the expected number of *distinct* target objects among the
``c`` probes.  With exactly ``f`` referencers per S object, ``d`` is the
expected number of S objects hit when ``c`` of the ``n_r = f * n_s``
references are chosen without replacement -- which is itself a Yao
expectation over "pages" of ``f`` references each:

    d = n_s * y(n_r, f, c)

The formulas below mirror :mod:`repro.costmodel.unclustered` /
:mod:`repro.costmodel.clustered` read equations with the functional-join
term swapped for the sorted-probe bound; everything else (index descent,
reading R, producing T) is unchanged, and update queries have no
functional-join term so they are identical under both executors.
"""

from __future__ import annotations

from repro.costmodel.model import Setting, read_cost
from repro.costmodel.params import CostParameters, ModelStrategy
from repro.costmodel.yao import yao


def expected_distinct(n_s: float, f: float, probes: float) -> float:
    """Expected distinct S objects among ``probes`` R references (each S
    object owns exactly ``f`` of the ``f * n_s`` references)."""
    if n_s <= 0 or f <= 0 or probes <= 0:
        return 0.0
    return n_s * yao(f * n_s, f, min(probes, f * n_s))


def _join_term(params: CostParameters, strategy: ModelStrategy) -> float:
    """The Yao functional-join term of the matching *read* equation."""
    d = params.derive(strategy)
    c = params
    if strategy is ModelStrategy.NO_REPLICATION:
        return d.p_s * yao(c.n_r, c.f * d.o_s, c.f_r * c.n_r)
    if strategy is ModelStrategy.SEPARATE:
        return d.p_s_prime * yao(c.n_r, c.f * d.o_s_prime, c.f_r * c.n_r)
    return 0.0  # in-place reads have no join to batch


def _sweep_term(params: CostParameters, strategy: ModelStrategy) -> float:
    """Pages the deduped ordered sweep touches.

    The sweep dereferences the expected ``d`` *distinct* targets (the
    sort-and-dedupe saved the duplicates), so its Yao expectation is over
    ``d`` draws -- and it can never exceed the sorted-probe bound
    ``min(pages, d)``: one page per distinct OID, one read per page.
    """
    d = params.derive(strategy)
    c = params
    distinct = expected_distinct(c.n_s, c.f, c.f_r * c.n_r)
    if strategy is ModelStrategy.NO_REPLICATION:
        pages, per_page = d.p_s, d.o_s
    elif strategy is ModelStrategy.SEPARATE:
        pages, per_page = d.p_s_prime, d.o_s_prime
    else:
        return 0.0  # in-place reads have no join to batch
    swept = pages * yao(c.n_s, per_page, min(distinct, c.n_s))
    return min(swept, pages, distinct)


def batched_read_cost(params: CostParameters, strategy: ModelStrategy,
                      setting: Setting) -> float:
    """Expected I/O of one read query under the batched executor."""
    return (read_cost(params, strategy, setting)
            - _join_term(params, strategy)
            + _sweep_term(params, strategy))
