"""Deterministic disk fault injection.

Crash-safety claims are only as good as the failures they were tested
against, so the simulated disk carries a :class:`FaultInjector` that can
reproduce, on demand and bit-for-bit, the three failure modes a page
store has to survive:

* **fail-after-N-writes** -- the (N+1)-th physical page write raises
  :class:`DiskFault` and the disk goes *down* (every later I/O fails too)
  until :meth:`FaultInjector.disarm`, modelling a machine crash at an
  exact point of a workload;
* **torn page writes** -- the fatal write additionally persists a
  half-new / half-old page image before failing, the classic partial
  sector write that full-page WAL images exist to repair;
* **transient read errors** -- a seeded fraction of reads glitch; the
  disk retries with exponential backoff (accounted, never slept) and
  only raises :class:`DiskFault` when the retry budget is exhausted;
* **WAL flush failures** -- the (N+1)-th WAL force raises
  :class:`DiskFault` before any record is marked durable, modelling a
  log-device hiccup at commit time.

The injector also exposes *execution probes* -- named no-op callbacks
fired from fixed points in the engine (statement start/finish).  Tests
hook them to prove scheduling properties (no two statements are ever
inside the engine at once) deterministically instead of by timing luck.

Everything is deterministic: the write counter makes crash points exact,
and the read glitches come from a private seeded RNG, so a failing crash
matrix entry replays identically.
"""

from __future__ import annotations

import random

from repro.errors import DiskFault
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["MAX_READ_RETRIES", "DiskFault", "FaultInjector",
           "NetFaultInjector"]


#: Transient read glitches are retried at most this many times before the
#: read is declared a hard failure.
MAX_READ_RETRIES = 4


class FaultInjector:
    """Deterministic failure schedule for one :class:`SimulatedDisk`."""

    def __init__(self, seed: int = 0, metrics=None) -> None:
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_faults = metrics.counter(
            "faults_injected_total", "disk faults injected, by kind")
        self._m_retries = metrics.counter(
            "disk_read_retries_total", "reads retried after a transient error")
        self._m_backoff = metrics.counter(
            "disk_read_backoff_total", "accumulated (simulated) backoff units")
        self.seed = seed
        self._rng = random.Random(seed)
        #: physical page writes observed while a write failure is armed
        self.writes_seen = 0
        self._fail_after: int | None = None
        self._torn = False
        self._read_rate = 0.0
        self._read_fail_count = 0
        #: WAL forces observed while a flush failure is armed
        self.flushes_seen = 0
        self._flush_fail_after: int | None = None
        #: named execution probes: ``{"statement_start": callable, ...}``;
        #: fired synchronously from the engine when set (tests only).
        self.probes: dict = {}
        #: the disk is down: a fatal fault fired and nothing works until
        #: :meth:`disarm` (the crash-matrix "machine is off" state).
        self.dead = False

    # -- configuration -------------------------------------------------------

    @property
    def armed(self) -> bool:
        """Whether any failure mode is active (cheap disk-side check)."""
        return (self.dead or self._fail_after is not None
                or self._read_rate > 0.0)

    def fail_after_flushes(self, n: int) -> None:
        """Arm a :class:`DiskFault` on the (n+1)-th WAL force from now.

        The failure is a *log-device* hiccup: it does not take the data
        disk down, and it fires exactly once -- the flush that retries
        after :meth:`disarm` decides its own fate.
        """
        if n < 0:
            raise ValueError("fault point must be >= 0")
        self._flush_fail_after = n
        self.flushes_seen = 0

    def fail_after_writes(self, n: int, torn: bool = False) -> None:
        """Arm a crash on the (n+1)-th physical page write from now.

        ``torn=True`` persists a corrupted half-written image of the
        victim page before the fault fires.
        """
        if n < 0:
            raise ValueError("fault point must be >= 0")
        self._fail_after = n
        self._torn = torn
        self.writes_seen = 0

    def transient_read_errors(self, rate: float, fail_count: int = 1,
                              seed: int | None = None) -> None:
        """Make a seeded fraction of reads glitch ``fail_count`` times each."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if fail_count < 1:
            raise ValueError("fail_count must be >= 1")
        self._read_rate = rate
        self._read_fail_count = fail_count
        if seed is not None:
            self._rng = random.Random(seed)

    def disarm(self) -> None:
        """Clear every failure mode and bring a dead disk back up."""
        self._fail_after = None
        self._torn = False
        self._read_rate = 0.0
        self._read_fail_count = 0
        self._flush_fail_after = None
        self.dead = False

    def probe(self, name: str) -> None:
        """Fire the named execution probe, if a test installed one."""
        hook = self.probes.get(name)
        if hook is not None:
            hook()

    # -- disk hooks ----------------------------------------------------------

    def on_write(self, new_image: bytes, old_image: bytes) -> bytes | None:
        """Decide the fate of one physical page write.

        Returns ``None`` to let the write proceed, or a *torn* image the
        disk must persist before raising.  Raises :class:`DiskFault` for a
        clean (image-preserving) crash.
        """
        if self.dead:
            raise DiskFault("simulated disk is down (crashed earlier)")
        if self._fail_after is None:
            return None
        if self.writes_seen < self._fail_after:
            self.writes_seen += 1
            return None
        self.dead = True
        if self._torn:
            self._m_faults.inc(kind="torn_write")
            half = len(new_image) // 2
            return bytes(new_image[:half]) + bytes(old_image[half:])
        self._m_faults.inc(kind="write")
        raise DiskFault(
            f"injected write failure after {self.writes_seen} write(s)")

    def on_wal_flush(self) -> None:
        """Decide the fate of one WAL force (called with the log mutex
        held, *before* any record is marked durable)."""
        if self._flush_fail_after is None:
            return
        if self.flushes_seen < self._flush_fail_after:
            self.flushes_seen += 1
            return
        self._flush_fail_after = None  # one-shot: a retry decides its own fate
        self._m_faults.inc(kind="wal_flush")
        raise DiskFault(
            f"injected WAL flush failure after {self.flushes_seen} flush(es)")

    def resolve_read(self) -> None:
        """Decide the fate of one physical page read.

        Transient glitches are retried here with exponential backoff
        *accounting* (no wall-clock sleeping); exhausting the retry budget
        escalates to a hard :class:`DiskFault`.
        """
        if self.dead:
            raise DiskFault("simulated disk is down (crashed earlier)")
        if self._read_rate <= 0.0 or self._rng.random() >= self._read_rate:
            return
        glitches = self._read_fail_count
        self._m_faults.inc(glitches, kind="transient_read")
        backoff = 1
        for attempt in range(1, glitches + 1):
            if attempt > MAX_READ_RETRIES:
                self._m_faults.inc(kind="read")
                raise DiskFault(
                    f"read failed after {MAX_READ_RETRIES} retries")
            self._m_retries.inc()
            self._m_backoff.inc(backoff)
            backoff *= 2


class NetFaultInjector:
    """Deterministic frame-level fault schedule for a replication link.

    The disk injector above decides the fate of page writes; this one
    decides the fate of *wire frames* on the primary->follower stream.
    Four failure modes cover what a flaky network does to framed traffic:

    * ``drop``      -- the frame vanishes (the reader waits until its
      read timeout fires and reconnects);
    * ``delay``     -- the frame arrives late (``delay_seconds``);
    * ``duplicate`` -- the frame is delivered twice (the consumer must
      dedupe idempotently, e.g. by LSN / response id);
    * ``truncate``  -- only a prefix arrives and the connection dies
      mid-frame (the CRC/length framing must reject it).

    Like :class:`FaultInjector` everything is deterministic: decisions
    come from a private seeded RNG, and an explicit ``script`` of
    actions (consumed first, before the RNG rates apply) lets a test pin
    the exact frame a fault hits -- a failing matrix entry replays
    identically.
    """

    ACTIONS = ("ok", "drop", "delay", "duplicate", "truncate")

    def __init__(self, seed: int = 0, drop: float = 0.0, delay: float = 0.0,
                 duplicate: float = 0.0, truncate: float = 0.0,
                 delay_seconds: float = 0.01, script=None,
                 metrics=None) -> None:
        metrics = metrics if metrics is not None else NULL_METRICS
        for name, rate in (("drop", drop), ("delay", delay),
                           ("duplicate", duplicate), ("truncate", truncate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1]")
        if drop + delay + duplicate + truncate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self._m_faults = metrics.counter(
            "net_faults_injected_total",
            "replication-link frame faults injected, by kind")
        self.seed = seed
        self._rng = random.Random(seed)
        self._rates = (("drop", drop), ("delay", delay),
                       ("duplicate", duplicate), ("truncate", truncate))
        self.delay_seconds = delay_seconds
        self._script = list(script or [])
        #: frames seen / faulted, for assertions and the chaos soak
        self.frames_seen = 0
        self.faults_injected = 0

    @property
    def armed(self) -> bool:
        return bool(self._script) or any(r > 0.0 for __, r in self._rates)

    def plan_frame(self) -> str:
        """Decide the fate of the next frame; one of :data:`ACTIONS`."""
        self.frames_seen += 1
        if self._script:
            action = self._script.pop(0)
            if action not in self.ACTIONS:
                raise ValueError(f"unknown net-fault action {action!r}")
        else:
            draw = self._rng.random()
            action = "ok"
            edge = 0.0
            for kind, rate in self._rates:
                edge += rate
                if draw < edge:
                    action = kind
                    break
        if action != "ok":
            self.faults_injected += 1
            self._m_faults.inc(kind=action)
        return action
