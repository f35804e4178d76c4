"""A ring-buffer slow-query log.

Every statement whose wall-clock time reaches ``threshold_ms`` leaves one
record: the statement text, a plan summary, its physical I/O, the
lock-wait breakdown (total wait plus the per-resource shares the lock
manager attributed), and the outcome (``ok`` or the error type).  The
buffer is bounded (``capacity`` newest records are kept), so a
long-running server's log never grows without limit.

The log lives on :class:`repro.telemetry.Telemetry` next to the tracer
and the metrics registry; its one caller is the epilogue of the
statement lifecycle, :func:`repro.query.runner.run_statement`, embedded
and served alike.  ``slow_queries_total`` counts
every record ever taken, so a scrape sees slow-query *rate* even after
the ring has wrapped.

Observing is thread-safe and does no I/O of its own: a record is a plain
dict snapshot of numbers the caller already had.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.waitevents import base_event

#: default threshold: sub-threshold statements leave no record at all.
DEFAULT_THRESHOLD_MS = 250.0
DEFAULT_CAPACITY = 256


class SlowQueryLog:
    """Bounded newest-last log of statements over the latency threshold."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 threshold_ms: float = DEFAULT_THRESHOLD_MS,
                 metrics=None) -> None:
        self.threshold_ms = threshold_ms
        self._mutex = threading.Lock()
        self._entries: deque = deque(maxlen=max(1, capacity))
        self._m_slow = (metrics if metrics is not None
                        else NULL_METRICS).counter(
            "slow_queries_total",
            "statements at or over the slow-query threshold")
        self._m_slow.inc(0)  # expose a zero sample before the first record

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def configure(self, threshold_ms: float | None = None,
                  capacity: int | None = None) -> None:
        """Adjust the threshold and/or ring size (entries are kept)."""
        if threshold_ms is not None:
            self.threshold_ms = threshold_ms
        if capacity is not None and capacity != self.capacity:
            with self._mutex:
                self._entries = deque(self._entries, maxlen=max(1, capacity))

    # -- recording -----------------------------------------------------------

    def observe(self, statement: str, duration_ms: float, plan: str = "",
                io: dict | None = None, lock_wait_ms: float = 0.0,
                lock_waits: list | None = None, session: str = "",
                outcome: str = "ok", rows: int | None = None,
                fingerprint: str = "", cache: str = "",
                waits: dict | None = None) -> bool:
        """Record one finished statement if it was slow; True if kept.

        ``waits`` is the statement's wait-event breakdown in *seconds*
        (from the wait collector); the record keeps it in milliseconds
        plus the dominant wait class (``lock:*`` collapsed to ``lock``).
        """
        if duration_ms < self.threshold_ms:
            return False
        by_class: dict[str, float] = {}
        for event, seconds in (waits or {}).items():
            cls = base_event(event)
            by_class[cls] = by_class.get(cls, 0.0) + seconds * 1000.0
        dominant = (max(by_class.items(), key=lambda kv: kv[1])[0]
                    if by_class else "")
        record = {
            "ts": round(time.time(), 3),
            "session": session,
            "statement": statement,
            "fingerprint": fingerprint,
            "plan": plan,
            "duration_ms": round(duration_ms, 3),
            "io": dict(io or {}),
            "lock_wait_ms": round(lock_wait_ms, 3),
            #: per-resource shares: [{"resource", "mode", "waited_ms"}, ...]
            "lock_waits": list(lock_waits or []),
            #: wait-event class -> milliseconds (the statement's full
            #: wall-clock attribution, cpu residual included)
            "waits": {cls: round(ms, 3)
                      for cls, ms in sorted(by_class.items())},
            "dominant_wait": dominant,
            "outcome": outcome,
            "rows": rows,
            #: result-cache disposition: "hit" | "miss" | "bypass" | ""
            "cache": cache,
        }
        with self._mutex:
            self._entries.append(record)
        self._m_slow.inc()
        return True

    # -- reading -------------------------------------------------------------

    def entries(self) -> list[dict]:
        """Every retained record, oldest first."""
        with self._mutex:
            return [dict(e) for e in self._entries]

    def tail(self, n: int = 5) -> list[dict]:
        """The ``n`` most recent records, oldest first."""
        with self._mutex:
            items = list(self._entries)
        return [dict(e) for e in items[-n:]]

    def grouped(self) -> list[dict]:
        """Retained records grouped by fingerprint, ranked by the time
        sunk into their dominant wait class (ties by total latency).

        A group whose statements burned 800ms blocked on locks outranks
        one that spent 900ms of honest cpu: the wait-dominated group is
        the one an operator can actually fix.  Records without a
        fingerprint (pre-upgrade entries) group under their raw statement
        text instead of listing as duplicates.
        """
        groups: dict[str, dict] = {}
        for e in self.entries():
            key = e.get("fingerprint") or e["statement"]
            group = groups.get(key)
            if group is None:
                group = {"fingerprint": e.get("fingerprint", ""),
                         "statement": e["statement"], "count": 0,
                         "total_ms": 0.0, "max_ms": 0.0, "last_ts": 0.0,
                         "waits": {}}
                groups[key] = group
            group["count"] += 1
            group["total_ms"] += e["duration_ms"]
            group["max_ms"] = max(group["max_ms"], e["duration_ms"])
            group["last_ts"] = max(group["last_ts"], e["ts"])
            for cls, ms in (e.get("waits") or {}).items():
                group["waits"][cls] = group["waits"].get(cls, 0.0) + ms
        for g in groups.values():
            waits = g["waits"]
            if waits:
                dominant, dominant_ms = max(waits.items(),
                                            key=lambda kv: kv[1])
            else:
                dominant, dominant_ms = "", 0.0
            g["dominant_wait"] = dominant
            g["dominant_wait_ms"] = round(dominant_ms, 3)
            g["waits"] = {cls: round(ms, 3)
                          for cls, ms in sorted(waits.items())}
        rows = sorted(groups.values(),
                      key=lambda g: (-g["dominant_wait_ms"], -g["total_ms"],
                                     g["statement"]))
        for g in rows:
            g["total_ms"] = round(g["total_ms"], 3)
            g["max_ms"] = round(g["max_ms"], 3)
        return rows

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def render_text(self) -> str:
        """A human-readable tail, one line per record, newest last."""
        entries = self.entries()
        if not entries:
            return "(no slow queries recorded)"
        lines = []
        for e in entries:
            cache = e.get("cache") or ""
            tag = f"  cache:{cache}" if cache else ""
            dominant = e.get("dominant_wait") or ""
            wait_tag = f"  wait:{dominant}" if dominant else ""
            lines.append(
                f"{e['duration_ms']:9.1f}ms  lock {e['lock_wait_ms']:7.1f}ms  "
                f"io {e['io'].get('total', 0):4d}  [{e['outcome']}]{tag}"
                f"{wait_tag}  {e['statement']}")
        return "\n".join(lines)
