"""One run of one workload: set up, warm up, timed windows, verification."""

from __future__ import annotations

import os
import pathlib
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.harness import metrics as m
from benchmarks.harness.calibrate import (
    NOMINAL_KERNEL_MS,
    KernelSampler,
    pin_to_fastest_core,
)
from benchmarks.harness.dataset import Snapshot, build_snapshot
from benchmarks.harness.loadgen import Connection, Tally, run_window
from benchmarks.harness.server import (
    ServerProcess,
    delta,
    process_cpu_seconds,
)
from benchmarks.harness.workloads import Scale, Shadow, Workload

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
#: timed windows per untraced run; a metric is the median of its windows
WINDOWS = 5
#: updates sent after the timed windows of a read-only workload, so that
#: update latency on its snapshot is measured without writing during them
PROBE_UPDATES = 60
_VERIFIED = "all replication invariants hold"


@dataclass
class WindowStats:
    """One timed window with the counters read around it."""

    tally: Tally
    counters: dict          #: server counter differences over the window
    gauges: dict            #: the server's series as read after the window
    server_cpu_s: float
    generator_cpu_s: float


@dataclass
class Run:
    """The result of one run, as the last line of output reports it."""

    workload: str
    seed: int
    trace: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    #: per-window values of the windowed metrics, for the ``run`` record
    windows: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": value, "unit": m.unit_of(name)}

    def count(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed

    def fail(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    def summary(self) -> dict:
        return {"correct": self.correct and self.failed == 0,
                "attempted": max(1, self.attempted), "failed": self.failed,
                "metrics": self.metrics}


class Deployment:
    """A snapshot, the live server on it and the connections to it."""

    def __init__(self, workload: Workload, scale: Scale, seed: int,
                 run_dir: pathlib.Path) -> None:
        # the server inherits the core, so the generator's reference
        # kernel is timed where the server runs
        pin_to_fastest_core()
        self.workload = workload
        self.scale = scale
        self.seed = seed
        with KernelSampler() as sampler:
            started = time.perf_counter()
            self.snapshot: Snapshot = build_snapshot(
                workload, scale, seed, str(run_dir / f"{workload.name}.frdb"))
            self.server = ServerProcess(self.snapshot.path,
                                        workload.server_flags)
            #: build + snapshot + server start to first pong, wall-clock
            self.setup_wall_s = time.perf_counter() - started
        #: the same in seconds of a core on which the kernel takes its
        #: nominal time: the host's speed during the set-up divided out
        self.setup_s = (self.setup_wall_s * NOMINAL_KERNEL_MS
                        / sampler.median_ms())
        self.shadow = Shadow(scale, seed, workload.connections)
        self.connections: list[Connection] = []

    def connect(self) -> None:
        self.connections = [
            Connection(self.server, self.workload, self.scale, self.seed,
                       conn, self.shadow)
            for conn in range(self.workload.connections)]

    def window(self, seconds: float | None = None, count: int | None = None,
               calibrated: bool = False) -> WindowStats:
        """One window, with every counter read as a difference around it."""
        server = self.server
        before = server.counters()
        cpu0, own0 = server.cpu_seconds(), process_cpu_seconds()
        tally = run_window(self.connections, seconds, count, calibrated)
        cpu1, own1 = server.cpu_seconds(), process_cpu_seconds()
        after = server.counters()
        return WindowStats(tally, delta(after, before), after,
                           cpu1 - cpu0, own1 - own0)

    def verify(self, run: Run) -> None:
        """The ``verify`` meta plus a full scan of both sets against the
        shadow model."""
        control = self.server.control
        if control.meta("verify") != _VERIFIED:
            run.fail("verify meta reported broken replication invariants")
        scans = (("retrieve (R.field_r, R.sref.repfield)", self.shadow.final_r()),
                 ("retrieve (S.field_s, S.repfield)", self.shadow.final_s()))
        for text, expected in scans:
            if sorted(control.execute(text).rows) != expected:
                run.fail(f"full scan differs from the shadow model: {text}")

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.stop()


@contextmanager
def run_directory():
    """A scratch directory for one run's snapshot, removed on exit."""
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield run_dir
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def deploy(workload: Workload, scale: Scale, seed: int,
           run_dir: pathlib.Path, setups: int) -> tuple[Deployment, float, float]:
    """Set up ``setups`` times, keep the last deployment live; returns it
    with the median set-up time, calibrated and wall-clock."""
    times, wall = [], []
    for attempt in range(setups):
        deployment = Deployment(workload, scale, seed, run_dir)
        times.append(deployment.setup_s)
        wall.append(deployment.setup_wall_s)
        if attempt < setups - 1:
            deployment.close()
    return deployment, m.median(times), m.median(wall)


def measure(workload: Workload, scale: Scale, seed: int, seconds: float,
            setups: int = 2, windows: int = WINDOWS) -> Run:
    """The untraced run: every end-to-end metric."""
    run = Run(workload.name, seed, trace=False)
    with run_directory() as run_dir:
        deployment, setup_s, setup_wall_s = deploy(workload, scale, seed,
                                                   run_dir, setups)
        try:
            deployment.connect()
            run.count(deployment.window(count=workload.warmup).tally)
            # after a fixed count of statements, not after the timed
            # windows: the log keeps every update's page images, so memory
            # there grows with how many statements a faster server
            # completes in the time
            rss_mb = deployment.server.peak_rss_mb()
            timed = [deployment.window(seconds=seconds / windows,
                                       calibrated=True)
                     for __ in range(windows)]
            updates, updates_rel = [], []
            for stats in timed:
                run.count(stats.tally)
                updates += stats.tally.latency_ms["update"]
                updates_rel += stats.tally.relative["update"]
            if not workload.p_update:
                probe = Connection(deployment.server, workload, scale, seed,
                                   0, deployment.shadow, p_update=1.0)
                deployment.connections.append(probe)
                tally = probe.drive(count=PROBE_UPDATES, calibrated=True)
                run.count(tally)
                updates += tally.latency_ms["update"]
                updates_rel += tally.relative["update"]
            deployment.verify(run)
        finally:
            deployment.close()

    def windowed(name: str, values: list[float]) -> None:
        run.windows[name] = values
        run.put(name, m.median(values))

    tallies = [stats.tally for stats in timed]
    windowed("read_p50_rel", [m.percentile(t.relative["read"], 0.50)
                              for t in tallies])
    # too few updates fall in one window of a read-mostly workload for a
    # per-window percentile: the median is over every update of the run
    run.put("update_p50_rel", m.percentile(updates_rel, 0.50))
    # statements per thousand kernel times; the kernels' own time (each
    # connection runs its own, in turn on the one core) is not the server's
    windowed("throughput_rel", [
        1000.0 * t.completed * m.median(t.kernel_ms)
        / (t.elapsed_s * 1000.0 - sum(t.kernel_ms) / workload.connections)
        for t in tallies])
    pages = sum(s.counters["disk_reads_total"] + s.counters["disk_writes_total"]
                for s in timed)
    run.put("io_pages_per_stmt", m.per(pages, sum(t.completed for t in tallies)))
    run.put("space_amplification", deployment.snapshot.space_amplification)
    run.put("server_rss_mb", rss_mb)
    run.put("setup_s", setup_s)
    # the same windows in the host's own units: printed, not bounded (the
    # traced run reports them per layer, from windows without the kernel)
    raw = {"kernel_ms": [m.median(t.kernel_ms) for t in tallies],
           "read_p50_ms": [m.percentile(t.latency_ms["read"], 0.50)
                           for t in tallies],
           "stmts_per_s": [m.per(t.completed, t.elapsed_s) for t in tallies],
           "server_cpu_ms_per_stmt": [
               m.per(s.server_cpu_s * 1000.0, s.tally.completed)
               for s in timed]}
    run.windows.update(raw)
    run.notes.append("uncalibrated, with the reference kernel run between "
                     "statements: " + ", ".join(
                         f"{name} {m.median(values):.4f}"
                         for name, values in raw.items())
                     + f", update_p50_ms {m.percentile(updates, 0.50):.4f}"
                     + f", setup_wall_s {setup_wall_s:.4f}")
    run.windows["samples"] = {"read": [t.count("read") for t in tallies],
                              "update": len(updates)}
    # the tail is printed, not bounded: on a shared box p95/p50 alternates
    # between 1.1 and 1.5 with the box's state (client.read_p95_ms per layer)
    for kind, samples in (("read", [x for t in tallies
                                    for x in t.latency_ms["read"]]),
                          ("update", updates)):
        tail = m.highest_percentile(len(samples))
        run.notes.append(
            f"{kind} latency over {len(samples)} samples: p50 "
            f"{m.percentile(samples, 0.5):.3f} ms, p{tail * 100:g} "
            f"{m.percentile(samples, tail):.3f} ms (the highest percentile "
            f"with {m.SAMPLES_BEYOND} samples beyond it)")
    return run


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

#: shares of ``--seconds`` the traced run spends untraced and wire-traced
_UNTRACED_SHARE, _WIRE_TRACED_SHARE = 0.5, 0.25
_UNTRACED_WINDOWS = 3
#: reads compared with and without the result file
_MATERIALIZE_READS = 60
#: counters that must repeat exactly between the served warm-up and the
#: in-process replay of the same statements (one connection, seeded)
_EXACT = ("disk_reads_total", "disk_writes_total", "bufferpool_hits_total",
          "bufferpool_misses_total", "bufferpool_evictions_total",
          "wal_records_total", "wal_flushes_total")


def trace_run(workload: Workload, scale: Scale, seed: int,
              seconds: float) -> Run:
    """The traced run: every per-layer metric.

    Server counters are differenced around untraced windows; a wire-traced
    window gives the stitched client/server spans; an in-process replay
    of the warm-up statements with every layer wrapped gives self times.
    """
    from benchmarks.harness import trace

    run = Run(workload.name, seed, trace=True)
    with run_directory() as run_dir:
        deployment, __, __ = deploy(workload, scale, seed, run_dir, setups=1)
        try:
            deployment.connect()
            warm = deployment.window(count=workload.warmup)
            untraced = [deployment.window(
                seconds=seconds * _UNTRACED_SHARE / _UNTRACED_WINDOWS)
                for __ in range(_UNTRACED_WINDOWS)]
            for connection in deployment.connections:
                connection.client.trace_enabled = True
            traced = deployment.window(seconds=seconds * _WIRE_TRACED_SHARE)
            for stats in (warm, *untraced, traced):
                run.count(stats.tally)
            deployment.verify(run)
        finally:
            deployment.close()
        # the server is gone: the replay has the machine to itself
        replayed = trace.replay(deployment.snapshot.path, workload, scale,
                                seed, workload.warmup)
        materialize_ms = trace.materialize_ms_per_read(
            replayed.db, replayed.read_texts[:_MATERIALIZE_READS])
    OUT_DIR.mkdir(exist_ok=True)
    replayed.recorder.write_jsonl(str(OUT_DIR / f"trace-{workload.name}.jsonl"))
    run.attempted += replayed.statements
    run.failed += replayed.failed

    if workload.connections == 1:
        # counter hygiene: two executions of one seeded stream (served and
        # replayed) must agree to the page and to the log record
        for key in _EXACT:
            if warm.counters[key] != replayed.counters[key]:
                run.fail(f"{key} differs between the served warm-up "
                         f"({warm.counters[key]:.0f}) and its replay "
                         f"({replayed.counters[key]:.0f})")

    _per_layer_metrics(run, untraced, traced, replayed, materialize_ms)
    if workload.p_update and run.metrics["wal.records_per_update"]["value"] <= 0:
        run.fail("updates left no WAL records")
    return run


def _per_layer_metrics(run: Run, untraced: list[WindowStats],
                       traced: WindowStats, replayed, materialize_ms) -> None:
    from benchmarks.harness import trace

    put, per = run.put, m.per
    tally = Tally()
    c: dict = defaultdict(float)    # summed counter differences
    server_cpu_s = generator_cpu_s = 0.0
    for stats in untraced:
        tally.merge(stats.tally)
        for key, value in stats.counters.items():
            c[key] += value
        server_cpu_s += stats.server_cpu_s
        generator_cpu_s += stats.generator_cpu_s
    stmts, reads, updates = (tally.completed, tally.count("read"),
                             tally.count("update"))
    wall_s = sum(stats.tally.elapsed_s for stats in untraced)
    read_ms, update_ms = tally.latency_ms["read"], tally.latency_ms["update"]

    # -- client and processes (load generator's own view) -------------------
    put("client.read_p50_ms", m.percentile(read_ms, 0.50))
    put("client.read_p95_ms", m.percentile(read_ms, 0.95))
    put("client.read_p99_ms", m.percentile(read_ms, 0.99))
    put("client.update_p50_ms", m.percentile(update_ms, 0.50))
    put("client.update_p95_ms", m.percentile(update_ms, 0.95))
    put("client.update_p99_ms", m.percentile(update_ms, 0.99))
    put("client.samples_read", reads)
    put("client.samples_update", updates)
    put("client.failed_share", per(run.failed, run.attempted))
    put("client.stmts_per_s", per(stmts, wall_s))
    put("process.server_cpu_ms_per_stmt", per(server_cpu_s * 1000.0, stmts))
    put("process.cpu_utilisation", per(server_cpu_s, wall_s))
    put("process.load_generator_cpu_share",
        per(generator_cpu_s, generator_cpu_s + server_cpu_s))
    put("buffer.pinned_errors", tally.pinned_errors)
    put("executor.read_io_pages", per(tally.io_pages["read"], reads))
    put("executor.update_io_pages", per(tally.io_pages["update"], updates))
    put("executor.rows_per_read", per(tally.rows["read"], reads))
    put("disk.writes_per_read_stmt", per(tally.io_writes["read"], reads))

    # -- server counters, differenced around the untraced windows ----------
    def wait_ms(event: str) -> float:
        return c[f'wait_seconds_total{{event="{event}"}}'] * 1000.0

    hits, misses = c["bufferpool_hits_total"], c["bufferpool_misses_total"]
    put("buffer.hit_ratio", per(hits, hits + misses))
    put("buffer.misses_per_stmt", per(misses, stmts))
    put("buffer.evictions_per_stmt", per(c["bufferpool_evictions_total"], stmts))
    put("buffer.writebacks_per_stmt", per(c["bufferpool_writebacks_total"], stmts))
    put("buffer.io_wait_ms_per_stmt", per(wait_ms("buffer_io"), stmts))
    put("disk.reads_per_stmt", per(c["disk_reads_total"], stmts))
    put("disk.writes_per_stmt", per(c["disk_writes_total"], stmts))
    put("index.lookups_per_stmt",
        per(c["index_lookups_total"] + c["index_range_scans_total"],
            stmts))
    put("wal.records_per_update", per(c["wal_records_total"], updates))
    put("wal.bytes_per_update", per(c["wal_bytes_total"], updates))
    put("wal.flushes_per_update", per(c["wal_flushes_total"], updates))
    put("wal.flush_wait_ms_per_stmt", per(wait_ms("wal_flush"), stmts))
    put("replication.propagations_per_update",
        per(c["replication_propagations_total"], updates))
    put("replication.fanout_per_update",
        per(c["replication_fanout_total"], updates))
    put("replication.link_touches_per_update",
        per(c["replication_link_touches_total"], updates))
    put("locks.waits_per_stmt", per(c["lock_waits_total"], stmts))
    put("locks.wait_ms_per_stmt",
        per(c["lock_wait_seconds_sum"] * 1000.0, stmts))
    put("locks.deadlocks", c["deadlocks_total"])
    put("locks.timeouts", c["lock_timeouts_total"])
    put("admission.wait_ms_per_stmt",
        per(c["admission_wait_seconds_sum"] * 1000.0, stmts))
    # a high-water gauge, not a counter: read whole, not differenced
    put("admission.concurrent_peak",
        untraced[-1].gauges.get("concurrent_statements_peak", 0.0))
    put("session.queue_wait_ms_per_stmt",
        per(c["queue_wait_seconds_sum"] * 1000.0, stmts))
    put("session.rejected", c["server_rejected_total"])
    cache_hits = c["result_cache_hits_total"]
    put("cache.hit_ratio",
        per(cache_hits, cache_hits + c["result_cache_misses_total"]))
    put("cache.invalidated_entries_per_update",
        per(c["result_cache_invalidations_total"], updates))
    put("cache.bypasses", c["result_cache_bypass_total"])
    statement_s = c["waits.statement_seconds"]
    put("telemetry.cpu_residual_share", per(wait_ms("cpu") / 1000.0, statement_s))
    put("telemetry.wait_coverage",
        per(c["waits.attributed_seconds"], statement_s))

    # -- the wire-traced window ---------------------------------------------
    wire = traced.tally.wire
    put("service.wire_ms_per_stmt",
        per(sum(client - server for client, server in wire), len(wire)))
    traced_read_p50 = m.percentile(traced.tally.latency_ms["read"], 0.5)
    put("trace.overhead_ratio",
        per(traced_read_p50, m.percentile(read_ms, 0.5)))
    put("trace.wire_traced_p50_ms", m.median([client for client, __ in wire]))

    # -- the in-process replay ----------------------------------------------
    spans = replayed.recorder.spans
    t = trace.totals(spans)
    n, n_reads, n_updates = replayed.statements, replayed.reads, replayed.updates

    def incl_ms(*names: str) -> float:
        return sum(t.inclusive_s[name] for name in names) * 1000.0

    def layer_ms(layer: str) -> float:
        return t.layer_self_s(layer) * 1000.0

    root_s = t.inclusive_s[trace.ROOT]
    put("trace.coverage", per(root_s - t.self_s[trace.ROOT], root_s))
    put("trace.inprocess_stmt_p50_ms", m.median(
        [(s[trace.END] - s[trace.START]) * 1000.0 for s in spans
         if s[trace.NAME] == "session.run_statement"]))
    put("client.self_ms_per_stmt", per(t.self_s[trace.ROOT] * 1000.0, n))
    put("protocol.encode_ms_per_stmt", per(incl_ms("protocol.encode_frame"), n))
    put("protocol.decode_ms_per_stmt", per(incl_ms("protocol.read_frame"), n))
    put("protocol.response_bytes_per_stmt", per(replayed.response_bytes, n))
    put("session.self_ms_per_stmt", per(layer_ms("session"), n))
    put("session.serialize_ms_per_stmt",
        per(incl_ms("session.serialize_result"), n))
    put("telemetry.observe_ms_per_stmt", per(layer_ms("telemetry"), n))
    put("cache.get_ms_per_stmt", per(incl_ms("cache.get"), n))
    put("cache.fill_ms_per_miss",
        per(incl_ms("cache.fill"), t.calls["cache.fill"]))
    put("cache.invalidate_ms_per_update",
        per(incl_ms("cache.invalidate"), n_updates))
    put("parser.parse_ms_per_stmt", per(incl_ms("parser.parse_statement"), n))
    put("planner.plan_ms_per_stmt",
        per(incl_ms("planner.plan_retrieve", "planner.plan_replace"), n))
    put("locks.footprint_ms_per_stmt",
        per(incl_ms("locks.footprint_for_statement"), n))
    put("locks.acquire_ms_per_stmt",
        per(incl_ms("locks.acquire", "locks.release_all"), n))
    put("executor.read_ms_per_stmt", per(incl_ms("executor.execute_retrieve"), n))
    put("executor.update_ms_per_stmt", per(incl_ms("executor.execute_update"), n))
    put("executor.self_ms_per_read",
        per(t.self_s["executor.execute_retrieve"] * 1000.0, n_reads))
    put("executor.materialize_ms_per_read", materialize_ms)
    put("batchjoin.resolve_ms_per_read",
        per(incl_ms("batchjoin.resolve_chain_values"), n_reads))
    put("batchjoin.probes_per_read",
        per(t.units["batchjoin.resolve_chain_values"], n_reads))
    put("objects.decode_calls_per_stmt", per(t.calls["objects.decode_object"], n))
    put("objects.decode_ms_per_stmt", per(incl_ms("objects.decode_object"), n))
    put("objects.store_ms_per_stmt", per(
        sum(t.self_s[f"objects.{name}"] for name in
            ("read", "read_many", "update", "insert", "scan")) * 1000.0, n))
    put("index.range_scan_ms_per_stmt", per(incl_ms("index.range_scan"), n))
    put("heapfile.self_ms_per_stmt", per(layer_ms("heapfile"), n))
    put("buffer.pin_calls_per_stmt", per(t.calls["buffer.fetch"], n))
    put("buffer.self_ms_per_stmt", per(layer_ms("buffer"), n))
    put("buffer.flush_all_ms_per_stmt", per(incl_ms("buffer.flush_all"), n))
    put("disk.self_ms_per_stmt", per(layer_ms("disk"), n))
    put("replication.propagate_ms_per_update",
        per(incl_ms("replication.propagate_update"), n_updates))
    put("wal.commit_ms_per_update", per(incl_ms("wal.commit"), n_updates))
    run.notes.append(
        "two traced views of one statement: in-process run_statement p50 "
        f"{run.metrics['trace.inprocess_stmt_p50_ms']['value']:.3f} ms + wire "
        f"{run.metrics['service.wire_ms_per_stmt']['value']:.3f} ms, against "
        "the wire-traced client p50 "
        f"{run.metrics['trace.wire_traced_p50_ms']['value']:.3f} ms")
