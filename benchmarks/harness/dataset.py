"""Build the R -> S database with the WAL on and snapshot it."""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass

from repro.schema.database import Database
from repro.snapshot import save_database
from repro.storage.constants import PAGE_SIZE
from repro.workloads import generator

from benchmarks.harness.workloads import Scale, Workload


@dataclass(frozen=True)
class Snapshot:
    path: str
    pages: int
    space_amplification: float  #: snapshot bytes per byte of user data


@contextmanager
def _wal_on():
    """``build_model_database`` constructs its ``Database`` without a
    ``wal`` argument, and a WAL-less snapshot serves updates with no log;
    substitute the constructor for the duration of one build."""
    original = generator.Database
    generator.Database = functools.partial(Database, wal=True)
    try:
        yield
    finally:
        generator.Database = original


def build_snapshot(workload: Workload, scale: Scale, seed: int,
                   path: str) -> Snapshot:
    config = generator.WorkloadConfig(
        n_s=scale.n_s, f=scale.f, r=scale.r, s=scale.s, k=scale.k,
        clustered=False, strategy=workload.strategy,
        buffer_frames=workload.frames, seed=seed)
    with _wal_on():
        db = generator.build_model_database(config).db
    save_database(db, path)
    disk = db.storage.disk
    pages = sum(disk.num_pages(fid) for fid in disk.file_ids())
    return Snapshot(path, pages, pages * PAGE_SIZE / scale.user_bytes)
