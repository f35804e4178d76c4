"""Percentiles, spread, and the catalogue of metric names and units.

``BENCHMARK.json`` at the repository root is the contract; the catalogue
here is what the harness emits, and ``test_harness.py`` holds the two
together.
"""

from __future__ import annotations

import math
import statistics

#: a percentile is reported only with this many samples beyond it
SAMPLES_BEYOND = 10
_CANDIDATES = (0.5, 0.9, 0.95, 0.99, 0.999)


def _rank(n: int, q: float) -> int:
    """Nearest rank of percentile ``q`` among ``n`` samples (1-based);
    the epsilon keeps 0.9 * 100 at rank 90 despite binary fractions."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 of an empty sample."""
    if not samples:
        return 0.0
    return sorted(samples)[_rank(len(samples), q) - 1]


def highest_percentile(n: int) -> float:
    """The highest candidate percentile with at least ``SAMPLES_BEYOND``
    of ``n`` samples beyond it (the median when none qualifies)."""
    supported = [q for q in _CANDIDATES if n - _rank(n, q) >= SAMPLES_BEYOND]
    return max(supported, default=0.5)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    """(first, third) quartile, as ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only
    first, __, third = statistics.quantiles(values, n=4)
    return first, third


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    first, third = quartiles(values)
    mid = median(values)
    return (third - first) / mid if mid else 0.0


def per(total: float, count: float) -> float:
    """``total / count``, 0.0 when nothing was counted."""
    return total / count if count else 0.0


#: end-to-end metrics: name -> (unit, better, bound).  The three timings
#: are in multiples of the reference kernel (``calibrate``): ms on a shared
#: host do not repeat within any bound the contract allows, the ratio does.
#: The timing bounds are the contract's widest; over two sets of ten seeds
#: no spread of theirs was above 0.14 (README).
END_TO_END = {
    "read_p50_rel": ("kernels", "lower", 0.25),
    "update_p50_rel": ("kernels", "lower", 0.25),
    "throughput_rel": ("1/kkernel", "higher", 0.25),
    "io_pages_per_stmt": ("pages", "lower", 0.05),
    "space_amplification": ("ratio", "lower", 0.02),
    "server_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "client.read_p50_ms": ("ms", "lower"),
    "client.read_p95_ms": ("ms", "lower"),
    "client.read_p99_ms": ("ms", "lower"),
    "client.update_p50_ms": ("ms", "lower"),
    "client.update_p95_ms": ("ms", "lower"),
    "client.update_p99_ms": ("ms", "lower"),
    "client.samples_read": ("count", "higher"),
    "client.samples_update": ("count", "higher"),
    "client.failed_share": ("ratio", "lower"),
    "client.self_ms_per_stmt": ("ms", "lower"),
    "client.stmts_per_s": ("1/s", "higher"),
    "process.server_cpu_ms_per_stmt": ("ms", "lower"),
    "process.cpu_utilisation": ("ratio", "lower"),
    "process.load_generator_cpu_share": ("ratio", "lower"),
    "protocol.encode_ms_per_stmt": ("ms", "lower"),
    "protocol.decode_ms_per_stmt": ("ms", "lower"),
    "protocol.response_bytes_per_stmt": ("bytes", "lower"),
    "service.wire_ms_per_stmt": ("ms", "lower"),
    "session.queue_wait_ms_per_stmt": ("ms", "lower"),
    "session.self_ms_per_stmt": ("ms", "lower"),
    "session.serialize_ms_per_stmt": ("ms", "lower"),
    "session.rejected": ("count", "lower"),
    "telemetry.observe_ms_per_stmt": ("ms", "lower"),
    "telemetry.cpu_residual_share": ("ratio", "lower"),
    "telemetry.wait_coverage": ("ratio", "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.get_ms_per_stmt": ("ms", "lower"),
    "cache.fill_ms_per_miss": ("ms", "lower"),
    "cache.invalidate_ms_per_update": ("ms", "lower"),
    "cache.invalidated_entries_per_update": ("count", "lower"),
    "cache.bypasses": ("count", "lower"),
    "parser.parse_ms_per_stmt": ("ms", "lower"),
    "planner.plan_ms_per_stmt": ("ms", "lower"),
    "locks.footprint_ms_per_stmt": ("ms", "lower"),
    "locks.acquire_ms_per_stmt": ("ms", "lower"),
    "locks.waits_per_stmt": ("count", "lower"),
    "locks.wait_ms_per_stmt": ("ms", "lower"),
    "locks.deadlocks": ("count", "lower"),
    "locks.timeouts": ("count", "lower"),
    "admission.wait_ms_per_stmt": ("ms", "lower"),
    "admission.concurrent_peak": ("count", "higher"),
    "executor.read_ms_per_stmt": ("ms", "lower"),
    "executor.update_ms_per_stmt": ("ms", "lower"),
    "executor.self_ms_per_read": ("ms", "lower"),
    "executor.materialize_ms_per_read": ("ms", "lower"),
    "executor.read_io_pages": ("pages", "lower"),
    "executor.update_io_pages": ("pages", "lower"),
    "executor.rows_per_read": ("count", "higher"),
    "batchjoin.resolve_ms_per_read": ("ms", "lower"),
    "batchjoin.probes_per_read": ("count", "lower"),
    "objects.decode_calls_per_stmt": ("count", "lower"),
    "objects.decode_ms_per_stmt": ("ms", "lower"),
    "objects.store_ms_per_stmt": ("ms", "lower"),
    "index.range_scan_ms_per_stmt": ("ms", "lower"),
    "index.lookups_per_stmt": ("count", "lower"),
    "heapfile.self_ms_per_stmt": ("ms", "lower"),
    "buffer.hit_ratio": ("ratio", "higher"),
    "buffer.misses_per_stmt": ("pages", "lower"),
    "buffer.evictions_per_stmt": ("pages", "lower"),
    "buffer.writebacks_per_stmt": ("pages", "lower"),
    "buffer.pin_calls_per_stmt": ("count", "lower"),
    "buffer.self_ms_per_stmt": ("ms", "lower"),
    "buffer.flush_all_ms_per_stmt": ("ms", "lower"),
    "buffer.io_wait_ms_per_stmt": ("ms", "lower"),
    "buffer.pinned_errors": ("count", "lower"),
    "disk.reads_per_stmt": ("pages", "lower"),
    "disk.writes_per_stmt": ("pages", "lower"),
    "disk.writes_per_read_stmt": ("pages", "lower"),
    "disk.self_ms_per_stmt": ("ms", "lower"),
    "replication.propagate_ms_per_update": ("ms", "lower"),
    "replication.propagations_per_update": ("count", "lower"),
    "replication.fanout_per_update": ("count", "lower"),
    "replication.link_touches_per_update": ("count", "lower"),
    "wal.records_per_update": ("count", "lower"),
    "wal.bytes_per_update": ("bytes", "lower"),
    "wal.flushes_per_update": ("count", "lower"),
    "wal.commit_ms_per_update": ("ms", "lower"),
    "wal.flush_wait_ms_per_stmt": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.inprocess_stmt_p50_ms": ("ms", "lower"),
    "trace.wire_traced_p50_ms": ("ms", "lower"),
}


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
