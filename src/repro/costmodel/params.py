"""Cost-model parameters (Figure 10 of the paper).

Core parameters carry the paper's defaults; everything else is derived.
Because object sizes differ per replication strategy ("the values actually
used for r and s will differ from strategy to strategy"), the derived
quantities are exposed through :meth:`CostParameters.derive`, which takes
the strategy and applies the per-strategy size adjustments:

* **in-place**: ``r`` grows by the replicated field (``k``); ``s`` grows by
  one ``(link-OID, link-ID)`` pair; the link file L holds one object of
  ``l = link_id + type_tag + f * oid`` bytes per object in S.
* **separate**: S' objects are ``s' = k + type_tag`` bytes; following the
  paper, ``r`` and ``s`` are left at their base sizes (the replica
  reference and the replica entry are absorbed into the base figures --
  this choice reproduces the published Figure 12/14 cells, see
  EXPERIMENTS.md).

``eliminate_singleton_links`` applies Section 4.3.1 at ``f = 1``: every
link object would hold exactly one OID, so link objects are inlined and
the L terms of the in-place update cost vanish.  The published selected
values (Figure 12: C_update = 42 at f = 1) are only reproducible with this
optimization on, so it defaults on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.errors import CostModelError


class ModelStrategy(enum.Enum):
    """The three strategies the model compares."""

    NO_REPLICATION = "none"
    IN_PLACE = "inplace"
    SEPARATE = "separate"


@dataclass(frozen=True)
class CostParameters:
    """Core parameters; defaults are the paper's (Figure 10)."""

    B: int = 4056              #: usable bytes per disk page
    h: int = 20                #: per-object storage overhead
    m: int = 350               #: B+-tree fanout
    n_s: int = 10_000          #: |S|
    f: int = 1                 #: sharing level (each S object has f referencers)
    f_r: float = 0.001         #: read-query selectivity (fraction of R)
    f_s: float = 0.001         #: update-query selectivity (fraction of S)
    oid_bytes: int = 8
    link_id_bytes: int = 1
    type_tag_bytes: int = 2
    k: int = 20                #: size of the replicated field
    r: int = 100               #: base size of R objects
    s: int = 200               #: base size of S objects
    t: int = 100               #: size of output (T) objects
    eliminate_singleton_links: bool = True

    def __post_init__(self) -> None:
        if min(self.B, self.h, self.m, self.n_s, self.f, self.k, self.r, self.s, self.t) <= 0:
            raise CostModelError("core parameters must be positive")
        if not (0 < self.f_r <= 1 and 0 < self.f_s <= 1):
            raise CostModelError("selectivities must be in (0, 1]")
        if self.f > self.max_f:
            raise CostModelError(
                f"f = {self.f}: a link object holds at most {self.max_f} "
                f"OIDs on a {self.B}-byte page")

    @property
    def max_f(self) -> int:
        """The largest f whose link object (``h + l`` bytes) fits a page."""
        return (self.B - self.h - self.link_id_bytes - self.type_tag_bytes) // self.oid_bytes

    @property
    def n_r(self) -> int:
        """|R| = f * |S|."""
        return self.f * self.n_s

    def with_(self, **changes) -> "CostParameters":
        """A copy with some core parameters changed."""
        return replace(self, **changes)

    def derive(self, strategy: ModelStrategy) -> "DerivedParameters":
        """Strategy-adjusted object sizes and page counts."""
        r, s = self.r, self.s
        if strategy is ModelStrategy.IN_PLACE:
            r = self.r + self.k
            s = self.s + self.oid_bytes + self.link_id_bytes
        s_prime = self.k + self.type_tag_bytes
        l = self.link_id_bytes + self.type_tag_bytes + self.f * self.oid_bytes
        return DerivedParameters(core=self, strategy=strategy,
                                 r=r, s=s, s_prime=s_prime, l=l)


@dataclass(frozen=True)
class DerivedParameters:
    """Everything below the double line of Figure 10."""

    core: CostParameters
    strategy: ModelStrategy
    r: int
    s: int
    s_prime: int
    l: int

    def _per_page(self, size: int) -> int:
        return self.core.B // (self.core.h + size)

    # objects per page ---------------------------------------------------

    @property
    def o_r(self) -> int:
        return self._per_page(self.r)

    @property
    def o_s(self) -> int:
        return self._per_page(self.s)

    @property
    def o_s_prime(self) -> int:
        return self._per_page(self.s_prime)

    @property
    def o_l(self) -> int:
        return self._per_page(self.l)

    @property
    def o_t(self) -> int:
        return self._per_page(self.core.t)

    # page counts ----------------------------------------------------------

    @property
    def p_r(self) -> int:
        return math.ceil(self.core.n_r / self.o_r)

    @property
    def p_s(self) -> int:
        return math.ceil(self.core.n_s / self.o_s)

    @property
    def p_s_prime(self) -> int:
        return math.ceil(self.core.n_s / self.o_s_prime)

    @property
    def p_l(self) -> int:
        return math.ceil(self.core.n_s / self.o_l)

    @property
    def p_t(self) -> int:
        return math.ceil(self.core.f_r * self.core.n_r / self.o_t)

    # index costs ----------------------------------------------------------

    def index_read_cost(self, n: int, selectivity: float) -> float:
        """Descend the B+-tree, then scan leaves for the qualifying OIDs."""
        descend = math.ceil(math.log(n, self.core.m))
        leaves = max(0.0, math.ceil(selectivity * n / self.core.m - 1))
        return descend + leaves

    @property
    def index_r(self) -> float:
        """Cost to read the index on field_r for one read query."""
        return self.index_read_cost(self.core.n_r, self.core.f_r)

    @property
    def index_s(self) -> float:
        """Cost to read the index on field_s for one update query."""
        return self.index_read_cost(self.core.n_s, self.core.f_s)

    @property
    def links_eliminated(self) -> bool:
        """Section 4.3.1 at f = 1: singleton link objects are inlined."""
        return self.core.eliminate_singleton_links and self.core.f == 1
