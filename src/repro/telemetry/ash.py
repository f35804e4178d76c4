"""Active Session History: a bounded ring of session wait snapshots.

The pg_stat_activity / Performance-Schema idea: a daemon sampler (the
server's :class:`~repro.telemetry.tsstore.TelemetrySampler`) snapshots
every live session's *current* state at a fixed interval -- which
statement it is running and which wait event it is blocked on right now
(``cpu`` when executing, ``client_net`` when idle between statements) --
into a fixed-capacity ring.  Time-weighted aggregation then falls out of
counting: if 60 of the last 100 samples of a session show
``lock:Emp1``, that session spent ~60% of the window blocked on that
lock, without any per-event logging on the hot path.

Samples are plain dicts::

    {"ts": ..., "session_id": 3, "session": "127.0.0.1:51234",
     "statement": "retrieve ( Emp1 . name )", "fingerprint": "a1b2...",
     "event": "lock:Emp1", "detail": "X(Emp1)", "wait_s": 1.204,
     "statement_age_s": 1.31, "in_txn": False}

The ring is bounded (oldest samples evicted first) and every surface is
a filterable read: by time window, by fingerprint, by wait event / the
resource inside it, by session.  ``profile()`` turns a window into the
per-event (or per-fingerprint, per-session) share table that ``\\ash``
and ``/ash`` render.

Recording and reading are thread-safe and observer-neutral: one mutex
around a ``deque``, no page I/O, no engine latch.  Statement
fingerprints are computed at *sample* time (a few per second), never on
the statement hot path.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.telemetry.statstats import fingerprint
from repro.telemetry.waitevents import CLIENT_NET

#: default ring capacity: at 1 Hz and 8 sessions, ~8.5 minutes of history.
DEFAULT_CAPACITY = 4096


class ActiveSessionHistory:
    """Bounded newest-last history of sampled session wait states."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._mutex = threading.Lock()
        self._ring: deque = deque(maxlen=max(1, capacity))
        #: every sample ever taken (the ring only keeps the newest).
        self.sampled_total = 0
        #: sampler passes completed (one pass = one sample per session).
        self.passes = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    # -- recording ---------------------------------------------------------

    def sample(self, waits, sessions=None, ts: float | None = None) -> int:
        """Take one sampling pass; returns the samples recorded.

        ``waits`` is the database's
        :class:`~repro.telemetry.waitevents.WaitEventCollector` (its
        in-flight statement contexts become ``cpu``/wait samples);
        ``sessions`` is an optional iterable of live
        :class:`~repro.server.session.Session` objects -- sessions with
        no statement in flight are recorded as ``client_net`` (idle),
        so the history covers every live session, not just busy ones.
        """
        ts = time.time() if ts is None else ts
        samples = waits.sample()
        busy_ids = {s["session_id"] for s in samples}
        for sample in samples:
            sample["ts"] = round(ts, 3)
            sample["fingerprint"] = fingerprint(sample["statement"])[0] \
                if sample["statement"] else ""
        for session in sessions or ():
            if session.id in busy_ids or session.closed:
                continue
            samples.append({
                "ts": round(ts, 3),
                "session_id": session.id,
                "session": session.name,
                "statement": "",
                "fingerprint": "",
                "event": CLIENT_NET,
                "detail": "idle",
                "wait_s": 0.0,
                "statement_age_s": 0.0,
                "in_txn": session.in_txn,
            })
        self.record(samples)
        return len(samples)

    def record(self, samples: list[dict]) -> None:
        """Append pre-built samples (tests drive the ring directly)."""
        with self._mutex:
            self._ring.extend(samples)
            self.sampled_total += len(samples)
            self.passes += 1

    # -- reading -----------------------------------------------------------

    def samples(self, since: float | None = None,
                until: float | None = None,
                fingerprint: str | None = None,
                event: str | None = None,
                session_id: int | None = None,
                limit: int | None = None) -> list[dict]:
        """Retained samples, oldest first, filtered.

        ``event`` matches exactly, or -- for lock waits -- by the
        resource alone (``event="lock:Emp1"``) or the whole class
        (``event="lock"`` matches every ``lock:<resource>``).
        """
        with self._mutex:
            items = list(self._ring)
        out = []
        for s in items:
            if since is not None and s["ts"] < since:
                continue
            if until is not None and s["ts"] > until:
                continue
            if fingerprint is not None and s.get("fingerprint") != fingerprint:
                continue
            if event is not None:
                got = s.get("event", "")
                if got != event and not got.startswith(event + ":"):
                    continue
            if session_id is not None and s.get("session_id") != session_id:
                continue
            out.append(dict(s))
        if limit is not None and limit > 0:
            out = out[-limit:]
        return out

    def profile(self, by: str = "event", since: float | None = None,
                until: float | None = None,
                event: str | None = None) -> list[dict]:
        """Sample counts grouped ``by`` one field, with shares.

        Each sample approximates one interval of wall-clock spent in
        that state, so shares read directly as time shares.
        """
        if by not in ("event", "fingerprint", "session", "statement"):
            raise ValueError(f"cannot profile by {by!r}")
        counts: dict[str, int] = {}
        statements: dict[str, str] = {}
        total = 0
        for s in self.samples(since=since, until=until, event=event):
            key = str(s.get(by) or "")
            counts[key] = counts.get(key, 0) + 1
            if s.get("statement") and key not in statements:
                statements[key] = s["statement"]
            total += 1
        rows = [{by: key, "samples": count,
                 "share": round(count / total, 4) if total else 0.0}
                for key, count in counts.items()]
        if by in ("fingerprint", "session"):
            for row in rows:
                row["statement"] = statements.get(row[by], "")[:80]
        rows.sort(key=lambda r: (-r["samples"], r[by]))
        return rows

    def snapshot(self, window_s: float | None = None,
                 fingerprint: str | None = None,
                 event: str | None = None,
                 limit: int = 50) -> dict:
        """The ``ash`` verb / ``/ash`` document: profile + recent samples."""
        since = (time.time() - window_s) if window_s else None
        samples = self.samples(since=since, fingerprint=fingerprint,
                               event=event)
        counts: dict[str, int] = {}
        for s in samples:
            counts[s["event"]] = counts.get(s["event"], 0) + 1
        total = len(samples)
        profile = [{"event": k, "samples": v,
                    "share": round(v / total, 4) if total else 0.0}
                   for k, v in counts.items()]
        profile.sort(key=lambda r: (-r["samples"], r["event"]))
        return {
            "capacity": self.capacity,
            "retained": len(self),
            "sampled_total": self.sampled_total,
            "passes": self.passes,
            "window_s": window_s,
            "matched": total,
            "profile": profile,
            "by_fingerprint": self.profile(
                "fingerprint", since=since, event=event)[:10],
            "samples": samples[-max(0, limit):],
        }

    def __len__(self) -> int:
        with self._mutex:
            return len(self._ring)

    def clear(self) -> None:
        with self._mutex:
            self._ring.clear()

    def render_text(self, window_s: float | None = 60.0) -> str:
        """The ``\\ash`` view: wait profile over the window, then the
        hottest fingerprints inside it."""
        doc = self.snapshot(window_s=window_s, limit=0)
        if not doc["matched"]:
            if self.sampled_total:
                return (f"(no samples in the last {window_s:.0f}s; "
                        f"{self.sampled_total} retained earlier)")
            return "(no ASH samples recorded; is the sampler running?)"
        header = (f"active session history: {doc['matched']} samples"
                  + (f" in the last {window_s:.0f}s" if window_s else "")
                  + f" (ring {doc['retained']}/{doc['capacity']})")
        lines = [header, f"{'share':>7} {'samples':>8}  wait event"]
        for row in doc["profile"]:
            lines.append(f"{row['share'] * 100:6.1f}% {row['samples']:8d}"
                         f"  {row['event']}")
        hot = [r for r in doc["by_fingerprint"] if r["fingerprint"]]
        if hot:
            lines.append("hottest statements (by samples):")
            for row in hot[:5]:
                lines.append(f"{row['share'] * 100:6.1f}% "
                             f"{row['samples']:8d}  [{row['fingerprint']}] "
                             f"{row['statement'][:60]}")
        return "\n".join(lines)
