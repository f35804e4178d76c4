"""The closed-loop load generator: each connection sends its next
statement only when the reply to the previous one has been checked."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServerError

from benchmarks.harness.calibrate import kernel_ms
from benchmarks.harness.server import ServerProcess
from benchmarks.harness.workloads import Scale, Shadow, Stream, Workload

KINDS = ("read", "update")


@dataclass
class Tally:
    """What one window produced, over all its connections."""

    latency_ms: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    #: per kind: each latency as a multiple of the reference kernel timed
    #: on the same core just before and just after it (calibrated windows)
    relative: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    #: every timed run of the reference kernel (calibrated windows)
    kernel_ms: list = field(default_factory=list)
    #: per kind: result.io.total, result.io.writes and rows, summed
    io_pages: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    io_writes: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    rows: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    attempted: int = 0
    failed: int = 0
    #: statements refused with "all buffer frames are pinned"
    pinned_errors: int = 0
    #: (client_request ms, server statement ms) of wire-traced statements
    wire: list = field(default_factory=list)
    started: float = float("inf")
    ended: float = 0.0

    @property
    def elapsed_s(self) -> float:
        return self.ended - self.started

    def count(self, kind: str) -> int:
        return len(self.latency_ms[kind])

    @property
    def completed(self) -> int:
        return sum(self.count(kind) for kind in KINDS)

    def merge(self, other: "Tally") -> None:
        for kind in KINDS:
            self.latency_ms[kind] += other.latency_ms[kind]
            self.relative[kind] += other.relative[kind]
            self.io_pages[kind] += other.io_pages[kind]
            self.io_writes[kind] += other.io_writes[kind]
            self.rows[kind] += other.rows[kind]
        self.kernel_ms += other.kernel_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.pinned_errors += other.pinned_errors
        self.wire += other.wire
        self.started = min(self.started, other.started)
        self.ended = max(self.ended, other.ended)


class Connection:
    """One client connection, its statement stream and its oracle."""

    def __init__(self, server: ServerProcess, workload: Workload,
                 scale: Scale, seed: int, conn: int, shadow: Shadow,
                 p_update: float | None = None) -> None:
        self.client = server.connect()
        self.stream = Stream(workload, scale, seed, conn, p_update)
        self.conn = conn
        self.shadow = shadow

    def drive(self, seconds: float | None = None, count: int | None = None,
              calibrated: bool = False) -> Tally:
        """Run statements for ``seconds`` or exactly ``count`` of them;
        ``calibrated`` times the reference kernel between statements."""
        tally = Tally()
        kernel_before = kernel_ms() if calibrated else 0.0
        clock = time.perf_counter
        execute = self.client.execute
        shadow = self.shadow
        tally.started = clock()
        deadline = None if seconds is None else tally.started + seconds
        while True:
            if count is not None and tally.attempted >= count:
                break
            if deadline is not None and clock() >= deadline:
                break
            stmt = self.stream.next()
            tally.attempted += 1
            if stmt.kind == "update":
                shadow.sending(stmt)
            begun = clock()
            try:
                result = execute(stmt.text)
            except (ServerError, OSError) as exc:
                tally.failed += 1
                if "all buffer frames are pinned" in str(exc):
                    tally.pinned_errors += 1
                continue
            ms = (clock() - begun) * 1000.0
            if calibrated:
                kernel_after = kernel_ms()
                tally.kernel_ms.append(kernel_after)
                tally.relative[stmt.kind].append(
                    2.0 * ms / (kernel_before + kernel_after))
                kernel_before = kernel_after
            if not shadow.check(stmt, result.rows, self.conn):
                tally.failed += 1
                continue
            if stmt.kind == "update":
                shadow.apply(stmt)
            tally.latency_ms[stmt.kind].append(ms)
            tally.io_pages[stmt.kind] += result.io.total_io
            tally.io_writes[stmt.kind] += result.io.physical_writes
            tally.rows[stmt.kind] += len(result.rows)
            if result.trace is not None:
                spans = result.trace["spans"]
                server_ms = next((s["duration_ms"] for s in spans
                                  if s["name"] == "statement"), 0.0)
                tally.wire.append((spans[0]["duration_ms"], server_ms))
        tally.ended = clock()
        return tally

    def close(self) -> None:
        self.client.close()


def run_window(connections: list[Connection], seconds: float | None = None,
               count: int | None = None, calibrated: bool = False) -> Tally:
    """Drive every connection at once; returns their merged tally."""
    tallies: list[Tally] = []
    errors: list[BaseException] = []

    def work(connection: Connection) -> None:
        try:
            tallies.append(connection.drive(seconds, count, calibrated))
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged
