"""The four workloads, their seeded statement streams and the shadow model.

Everything here is a function of ``--seed``: the database contents, the
statements each connection sends and therefore the rows the server must
return.  The server receives only statement text.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """The paper's R -sref-> S schema (PAPER.md section 6) at one size."""

    n_s: int = 2000        #: |S|
    f: int = 5             #: R objects per S object, so |R| = f * |S|
    r: int = 100           #: bytes per R object
    s: int = 200           #: bytes per S object
    k: int = 20            #: bytes of the replicated field
    read_rows: int = 50    #: R objects one read statement returns
    update_rows: int = 10  #: S objects one update statement rewrites

    @property
    def n_r(self) -> int:
        return self.f * self.n_s

    @property
    def user_bytes(self) -> int:
        return self.n_r * self.r + self.n_s * self.s


DEFAULT_SCALE = Scale()
#: a fifth of the data: builds in about a second, for ``--smoke`` and tests
SMOKE_SCALE = Scale(n_s=400)


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str            #: replication strategy of the snapshot
    frames: int              #: buffer-pool frames of the snapshot
    server_flags: tuple      #: flags beyond the server's defaults
    connections: int
    p_update: float          #: share of update statements per connection
    zipf_ranges: int         #: 0: uniform read ranges; N: Zipf(1) over N ranges
    warmup: int              #: untimed statements per connection before timing
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "join_cold", "none", 64, (), 1, 0.0, 0, 100,
        "The paper's baseline C_read: a functional join with the pool an "
        "eighth of the data, so executor, batchjoin, objects, buffer and "
        "disk do the work and locks, wal, replication and cache do none."),
    Workload(
        "inplace_hot", "inplace", 2048, (), 1, 0.0, 0, 100,
        "The replicated read the paper argues for, with zero page misses: "
        "what remains is per-statement fixed cost (session, plan, scan and "
        "decode, result file, serialize, frame). No join, no eviction."),
    # 2048 frames, not 64: with two connections and a full pool the seed
    # server deadlocks (BufferPool._evict takes frame latch then shard
    # lock, drop_file_pages the reverse) about once in five minutes
    Workload(
        "mixed_prop", "inplace", 2048, (), 2, 0.2, 0, 100,
        "The same hidden fields written: propagation over the inverted "
        "path, WAL, X-locks on R and S against readers, dirty write-backs. "
        "The only workload with two connections and so with lock waits."),
    Workload(
        "cached_zipf", "inplace", 2048, ("--cache",), 1, 0.01, 64, 300,
        "Result-cache hits bypass the engine, so protocol, service, "
        "session, cache and telemetry are the statement; each update "
        "invalidates every entry. Engine changes predict no read_p50 move."),
)}


@dataclass(frozen=True)
class Statement:
    kind: str    #: "read" | "update"
    lo: int      #: first key of the range
    value: str   #: the new repfield (updates only)
    text: str


def read_statement(scale: Scale, lo: int) -> Statement:
    hi = lo + scale.read_rows - 1
    return Statement("read", lo, "", (
        "retrieve (R.field_r, R.sref.repfield) "
        f"where R.field_r >= {lo} and R.field_r <= {hi}"))


def update_statement(scale: Scale, lo: int, value: str) -> Statement:
    hi = lo + scale.update_rows - 1
    return Statement("update", lo, value, (
        f"replace (S.repfield = '{value}') "
        f"where S.field_s >= {lo} and S.field_s <= {hi}"))


def owned_keys(scale: Scale, connections: int, conn: int) -> range:
    """The S keys connection ``conn`` alone writes (disjoint across
    connections, so the final state is a function of the seed)."""
    return range(conn * scale.n_s // connections,
                 (conn + 1) * scale.n_s // connections)


class Stream:
    """One connection's endless statement sequence."""

    def __init__(self, workload: Workload, scale: Scale, seed: int,
                 conn: int, p_update: float | None = None) -> None:
        self.scale = scale
        self.conn = conn
        p_update = workload.p_update if p_update is None else p_update
        # updates come at a fixed period, not by coin toss: the share is
        # exact in every window, and on cached_zipf the stretch between
        # two invalidations -- which sets the hit ratio -- does not vary
        # with the seed.  Connections start out of phase.
        self._period = round(1 / p_update) if p_update else 0
        self._phase = conn * self._period // workload.connections
        self._rng = random.Random(f"{seed}/{workload.name}/{conn}")
        self._index = itertools.count()
        owned = owned_keys(scale, workload.connections, conn)
        self._update_los = range(owned.start,
                                 owned.stop - scale.update_rows + 1)
        self._read_los = range(scale.n_r - scale.read_rows + 1)
        self._hot: list[int] = []
        self._cum: list[float] = []
        if workload.zipf_ranges:
            # the hot ranges are the workload's, not the connection's
            picker = random.Random(f"{seed}/{workload.name}/ranges")
            self._hot = picker.sample(self._read_los, workload.zipf_ranges)
            self._cum = list(itertools.accumulate(
                1.0 / rank for rank in range(1, workload.zipf_ranges + 1)))

    def next(self) -> Statement:
        index = next(self._index)
        rng = self._rng
        if self._period and (index + self._phase) % self._period == self._period - 1:
            # the value names its statement, so every update changes all
            # its rows and a reader can tell which write it observed
            return update_statement(self.scale, rng.choice(self._update_los),
                                    f"u{self.conn}_{index}")
        if self._hot:
            pick = bisect.bisect_left(self._cum,
                                      rng.random() * self._cum[-1])
            return read_statement(self.scale, self._hot[pick])
        return read_statement(self.scale, rng.choice(self._read_los))


def reference_targets(scale: Scale, seed: int) -> list[int]:
    """R key -> S key, as ``build_model_database`` assigns them.

    Re-derived from the generator's documented draw order (shuffle the S
    load order, then shuffle the f-fold target list) without touching
    the engine, so the oracle is independent of the program under test.
    """
    rng = random.Random(seed)
    rng.shuffle(list(range(scale.n_s)))
    targets = [key for key in range(scale.n_s) for __ in range(scale.f)]
    rng.shuffle(targets)
    return targets


class Shadow:
    """What the database must contain: R key -> S key -> repfield."""

    def __init__(self, scale: Scale, seed: int, connections: int) -> None:
        self.scale = scale
        self.connections = connections
        self.s_of_r = reference_targets(scale, seed)
        self.base = [f"v{key % 499}" for key in range(scale.n_s)]
        self.value = list(self.base)
        #: value -> the update that wrote it (for cross-connection reads)
        self.writes: dict[str, Statement] = {}

    def sending(self, stmt: Statement) -> None:
        """Call before an update is sent: another connection may read the
        new value before this one sees the acknowledgement."""
        self.writes[stmt.value] = stmt

    def apply(self, stmt: Statement) -> None:
        """Call once an update is acknowledged."""
        for key in range(stmt.lo, stmt.lo + self.scale.update_rows):
            self.value[key] = stmt.value

    def check(self, stmt: Statement, rows: list, conn: int) -> bool:
        """Whether ``rows`` is a correct answer to ``stmt``.

        Exact, except for S keys another live connection owns: there the
        value must be the initial one or one that connection wrote to
        exactly that key.
        """
        if stmt.kind == "update":
            return len(rows) == self.scale.update_rows
        if len(rows) != self.scale.read_rows:
            return False
        mine = owned_keys(self.scale, self.connections, conn)
        for offset, row in enumerate(rows):
            key, got = row
            if key != stmt.lo + offset:
                return False
            s_key = self.s_of_r[key]
            if s_key in mine:
                if got != self.value[s_key]:
                    return False
            elif got != self.base[s_key]:
                wrote = self.writes.get(got)
                if wrote is None or not (
                        wrote.lo <= s_key < wrote.lo + self.scale.update_rows):
                    return False
        return True

    def final_r(self) -> list[tuple]:
        return [(key, self.value[s_key])
                for key, s_key in enumerate(self.s_of_r)]

    def final_s(self) -> list[tuple]:
        return list(enumerate(self.value))
