"""Workload generator for the cost model's schema (Section 6).

Builds the two-set database of the analysis on the real storage engine::

    define type RTYPE (field_r: int, sref: ref STYPE, pad: char[...])
    define type STYPE (field_s: int, repfield: char[k], pad: char[...])
    create R: {own ref RTYPE}     |R| = f * |S|
    create S: {own ref STYPE}
    replicate R.sref.repfield     (per the configured strategy)

faithful to the model's assumptions:

* every S object is referenced by exactly ``f`` R objects,
* R and S are *relatively unclustered* -- the reference targets are
  shuffled, so consecutive R objects point at scattered S pages,
* "clustered index" means the file is physically ordered by the indexed
  field; "unclustered" loads the file in random key order,
* pad fields bring object sizes to the model's ``r`` and ``s`` bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import CostModelError
from repro.objects.types import TypeDefinition, char_field, int_field, ref_field
from repro.schema.database import Database
from repro.storage.oid import OID
from repro.workloads.drift import DriftMonitor

#: bytes of RTYPE taken by field_r + sref
_R_FIXED = 4 + 8
#: bytes of STYPE taken by field_s
_S_FIXED = 4


@dataclass(frozen=True)
class WorkloadConfig:
    """Scaled-down instance of the Figure 10 parameter space."""

    n_s: int = 500
    f: int = 1
    f_r: float = 0.01
    f_s: float = 0.01
    k: int = 20
    r: int = 100
    s: int = 200
    clustered: bool = False
    #: "none" | "inplace" | "separate"
    strategy: str = "none"
    lazy: bool = False
    #: engine-level Section 4.3.1 optimization (inline singleton links)
    inline_links: bool = False
    buffer_frames: int = 2048
    seed: int = 42

    def __post_init__(self) -> None:
        if self.r < _R_FIXED + 1 or self.s < _S_FIXED + self.k + 1:
            raise CostModelError("object sizes too small for the fixed fields")
        if self.strategy not in ("none", "inplace", "separate"):
            raise CostModelError(f"unknown strategy {self.strategy!r}")

    @property
    def n_r(self) -> int:
        return self.f * self.n_s

    @property
    def objects_per_read(self) -> int:
        return max(1, round(self.f_r * self.n_r))

    @property
    def objects_per_update(self) -> int:
        return max(1, round(self.f_s * self.n_s))


@dataclass
class ModelDatabase:
    """A built workload instance."""

    db: Database
    config: WorkloadConfig
    s_oids: list[OID] = field(default_factory=list)
    r_oids: list[OID] = field(default_factory=list)
    #: every measured query's model prediction beside its observed I/O
    drift: DriftMonitor = field(default_factory=DriftMonitor)


def build_model_database(config: WorkloadConfig) -> ModelDatabase:
    """Create, load, index, and (optionally) replicate the model database."""
    rng = random.Random(config.seed)
    db = Database(buffer_frames=config.buffer_frames,
                  inline_singleton_links=config.inline_links)
    db.define_type(
        TypeDefinition(
            "STYPE",
            [
                int_field("field_s"),
                char_field("repfield", config.k),
                char_field("pad", config.s - _S_FIXED - config.k),
            ],
        )
    )
    db.define_type(
        TypeDefinition(
            "RTYPE",
            [
                int_field("field_r"),
                ref_field("sref", "STYPE"),
                char_field("pad", config.r - _R_FIXED),
            ],
        )
    )
    db.create_set("S", "STYPE")
    db.create_set("R", "RTYPE")

    # --- load S --------------------------------------------------------
    s_keys = list(range(config.n_s))
    if not config.clustered:
        rng.shuffle(s_keys)
    s_oid_by_key: dict[int, OID] = {}
    for key in s_keys:
        s_oid_by_key[key] = db.insert(
            "S", {"field_s": key, "repfield": f"v{key % 499}", "pad": "x"}
        )
    s_oids = [s_oid_by_key[k] for k in range(config.n_s)]

    # --- load R ----------------------------------------------------------
    # Exactly f referencers per S object, in shuffled order: R and S are
    # relatively unclustered.
    targets = [oid for oid in s_oids for __ in range(config.f)]
    rng.shuffle(targets)
    r_keys = list(range(config.n_r))
    if not config.clustered:
        rng.shuffle(r_keys)
    r_oid_by_key: dict[int, OID] = {}
    for key in r_keys:
        r_oid_by_key[key] = db.insert(
            "R", {"field_r": key, "sref": targets[key], "pad": "y"}
        )
    r_oids = [r_oid_by_key[k] for k in range(config.n_r)]

    # --- indexes and replication ------------------------------------------
    db.build_index("R.field_r", clustered=config.clustered)
    db.build_index("S.field_s", clustered=config.clustered)
    if config.strategy != "none":
        db.replicate("R.sref.repfield", strategy=config.strategy, lazy=config.lazy)
    db.cold_cache()
    return ModelDatabase(db=db, config=config, s_oids=s_oids, r_oids=r_oids)
