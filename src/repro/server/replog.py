"""The primary side of WAL shipping: the replication log and hub.

The paper replicates *fields* so readers avoid joins; this module
replicates the *process* so reads survive and scale past one engine
node.  Every committed statement on the primary becomes one
:class:`ReplicationEntry` in a retained, LSN-addressed
:class:`ReplicationLog`:

* **DML** entries carry the statement's redo records -- the WAL's
  ``BEGIN`` frame, its ``ALLOC`` frames for files that still exist, its
  one ``REDO`` frame (the ``(file, page, offset, after-bytes)`` spans the
  statement changed) and its ``COMMIT`` frame, base64 on the wire -- but
  never a page image: a follower patches the spans into the pages it
  already holds.  An update that changes *k* bytes of *f* referencers
  ships *f* spans of *k* bytes and a 12-byte head each, not *f* records
  or *f* pages.  Entries are captured by a
  :attr:`WriteAheadLog.commit_listeners` hook the moment the commit is
  durable (under the engine latch, so entries are appended in commit
  order);
* **DDL** entries carry the statement text: DDL runs outside WAL
  statement scope (it checkpoints), so it ships logically and followers
  re-execute it -- deterministic, because both sides apply the same
  ordered stream to the same starting state.

The :class:`ReplicationHub` serves followers over the FRNET001
replication verbs (``repl_subscribe`` / ``repl_fetch`` / ``repl_status``):
long-poll record batches double as heartbeats, the ``applied_lsn`` each
fetch carries doubles as the ack, and with ``sync_replicas=K > 0`` a
write is only acknowledged to its client once K followers have *applied*
it -- the zero-acknowledged-write-loss contract the failover matrix
asserts.

The log is retention-bounded (``max_entries``): a follower that falls
behind the oldest retained entry gets :class:`ReplicaResyncError` and
must be re-seeded from a snapshot, exactly like a real system whose WAL
archive has been rotated away.
"""

from __future__ import annotations

import base64
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReplicaResyncError, ReplicationLinkError
from repro.recovery.wal import WalRecord, WalRecordType
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["FollowerState", "ReplicationEntry", "ReplicationHub",
           "ReplicationLog", "render_status"]


def render_status(status: dict) -> str:
    """Render a replication status dict (primary hub or follower) as the
    ``\\replication`` meta-command's text."""
    lines = []
    scalars = [(k, v) for k, v in status.items()
               if not isinstance(v, (list, dict))]
    lines.append("  ".join(f"{k} {v}" for k, v in scalars))
    followers = status.get("followers") or []
    for f in followers:
        lines.append(
            f"  follower #{f.get('id')} {f.get('name')}: "
            f"acked_lsn {f.get('acked_lsn')}  lag {f.get('lag')}  "
            f"fetches {f.get('fetches')}  "
            f"last_seen {f.get('last_seen_seconds')}s")
    if not followers and status.get("role") == "primary":
        lines.append("  (no followers subscribed)")
    link = status.get("link")
    if isinstance(link, dict):
        lines.append("  link: " + "  ".join(
            f"{k} {v}" for k, v in link.items()))
    return "\n".join(lines)


@dataclass(frozen=True)
class ReplicationEntry:
    """One committed statement, addressed by its stream LSN."""

    lsn: int
    kind: str            # "dml" | "ddl"
    note: str = ""       # the statement text (DML: the WAL begin note)
    frames: bytes = b""  # DML only: concatenated framed WalRecords
    #: DDL only: the primary's file-id cursor *before* the statement ran.
    #: Both engines allocate file ids sequentially, but transient query
    #: output files advance the cursor without shipping, so a follower
    #: adopts this cursor before re-executing the DDL -- the files it
    #: creates then get identical ids on both sides.
    next_file_id: int = 0

    def to_wire(self) -> dict:
        obj = {"lsn": self.lsn, "kind": self.kind, "note": self.note}
        if self.kind == "dml":
            obj["frames"] = base64.b64encode(self.frames).decode("ascii")
        else:
            obj["next_file_id"] = self.next_file_id
        return obj

    @classmethod
    def from_wire(cls, obj: dict) -> "ReplicationEntry":
        try:
            lsn = int(obj["lsn"])
            kind = str(obj["kind"])
            note = str(obj.get("note", ""))
            frames = base64.b64decode(obj.get("frames", "") or "")
            next_file_id = int(obj.get("next_file_id", 0) or 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationLinkError(
                f"malformed replication entry: {exc}") from None
        if kind not in ("dml", "ddl"):
            raise ReplicationLinkError(
                f"unknown replication entry kind {kind!r}")
        return cls(lsn, kind, note, frames, next_file_id)

    def records(self) -> list[WalRecord]:
        """Decode a DML entry's redo records (WalError on damage)."""
        records: list[WalRecord] = []
        offset = 0
        while offset < len(self.frames):
            record, offset = WalRecord.decode(self.frames, offset)
            records.append(record)
        return records


class ReplicationLog:
    """A bounded, thread-safe, LSN-addressed log of committed statements.

    LSNs are assigned at append time and never reused; retention drops
    the oldest entries past ``max_entries`` but :attr:`last_lsn` keeps
    counting, so "where in the stream" stays meaningful forever.
    """

    def __init__(self, max_entries: int = 10_000) -> None:
        self.max_entries = max(1, max_entries)
        self._entries: list[ReplicationEntry] = []
        self._mutex = threading.Lock()
        self._grew = threading.Condition(self._mutex)
        self.last_lsn = 0
        #: entries dropped by retention (their LSNs are gone for good)
        self.dropped = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    @property
    def oldest_lsn(self) -> int:
        """LSN of the oldest retained entry (0 when nothing retained)."""
        with self._mutex:
            return self._entries[0].lsn if self._entries else self.last_lsn + 1

    def append(self, kind: str, note: str = "", frames: bytes = b"",
               next_file_id: int = 0) -> ReplicationEntry:
        """Append one entry at the next LSN; wakes long-polling fetchers."""
        with self._grew:
            entry = ReplicationEntry(self.last_lsn + 1, kind, note, frames,
                                     next_file_id)
            self._push(entry)
            return entry

    def relay(self, entry: ReplicationEntry) -> None:
        """Append an entry that already owns its LSN (follower relays the
        primary's stream into its own log so it can serve the stream after
        a promotion).  The stream must stay gapless."""
        with self._grew:
            if entry.lsn != self.last_lsn + 1:
                raise ReplicationLinkError(
                    f"replication stream gap: relayed LSN {entry.lsn} after "
                    f"{self.last_lsn}")
            self._push(entry)

    def _push(self, entry: ReplicationEntry) -> None:
        self._entries.append(entry)
        self.last_lsn = entry.lsn
        overflow = len(self._entries) - self.max_entries
        if overflow > 0:
            del self._entries[:overflow]
            self.dropped += overflow
        self._grew.notify_all()

    def entries_after(self, lsn: int,
                      max_entries: int = 256) -> list[ReplicationEntry]:
        """Retained entries with LSN > ``lsn``, oldest first.

        Raises :class:`ReplicaResyncError` when retention already dropped
        some of the requested range -- the follower cannot catch up from
        this log and must re-seed from a snapshot.
        """
        with self._mutex:
            if not self._entries:
                if lsn < self.last_lsn:
                    raise ReplicaResyncError(
                        f"replication log retains nothing before LSN "
                        f"{self.last_lsn + 1}; follower at {lsn} must resync")
                return []
            if lsn + 1 < self._entries[0].lsn:
                raise ReplicaResyncError(
                    f"replication log starts at LSN {self._entries[0].lsn}; "
                    f"follower at {lsn} must resync from a snapshot")
            lo = len(self._entries) - (self.last_lsn - lsn)
            return list(self._entries[max(0, lo):max(0, lo) + max_entries])

    def wait_beyond(self, lsn: int, timeout: float) -> bool:
        """Block until the log grows past ``lsn`` (or ``timeout`` sec)."""
        deadline = time.perf_counter() + timeout
        with self._grew:
            while self.last_lsn <= lsn:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._grew.wait(remaining)
            return True


@dataclass
class FollowerState:
    """What the primary knows about one subscribed follower."""

    id: int
    name: str
    acked_lsn: int = 0
    subscribed_at: float = 0.0
    last_seen: float = field(default_factory=time.perf_counter)
    fetches: int = 0

    def info(self, last_lsn: int) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "acked_lsn": self.acked_lsn,
            "lag": max(0, last_lsn - self.acked_lsn),
            "fetches": self.fetches,
            "last_seen_seconds": round(
                time.perf_counter() - self.last_seen, 3),
        }


class ReplicationHub:
    """Ships the committed-statement stream of one database to followers.

    ``attach=True`` (a primary) hooks the WAL commit listener and the
    database's DDL listener immediately; ``attach=False`` (a follower's
    passive hub, fed by :meth:`ReplicationLog.relay`) defers that until
    :meth:`attach_listeners` -- i.e. until promotion -- so applied
    entries are never double-recorded.
    """

    def __init__(self, db, max_entries: int = 10_000,
                 sync_replicas: int = 0, sync_timeout: float = 5.0,
                 attach: bool = True) -> None:
        if db.recovery.wal is None:
            raise ReplicationLinkError(
                "replication requires the write-ahead log "
                "(Database(wal=True))")
        self.db = db
        self.log = ReplicationLog(max_entries=max_entries)
        #: acknowledged-write contract: a statement is acked to its client
        #: only after this many followers have applied it (0 = async)
        self.sync_replicas = sync_replicas
        self.sync_timeout = sync_timeout
        self.attached = False
        metrics = db.telemetry.metrics or NULL_METRICS
        self._m_entries = metrics.counter(
            "replication_log_entries_total",
            "statements appended to the replication log, by kind")
        self._m_fetches = metrics.counter(
            "replication_fetches_total", "repl_fetch requests served")
        self._m_shipped = metrics.counter(
            "replication_entries_shipped_total",
            "entries handed to followers over the wire")
        self._m_sync_timeouts = metrics.counter(
            "replication_sync_timeouts_total",
            "writes acked without reaching the sync-replica quorum in time")
        self._g_followers = metrics.gauge(
            "replication_followers", "followers currently subscribed")
        self._followers: dict[int, FollowerState] = {}
        self._next_follower = 1
        self._mutex = threading.Lock()
        self._acked = threading.Condition(self._mutex)
        if attach:
            self.attach_listeners()

    # -- capture (primary side) -------------------------------------------

    def attach_listeners(self) -> None:
        """Start recording this database's commits into the log."""
        if self.attached:
            return
        self.attached = True
        self.db.recovery.wal.commit_listeners.append(self._on_commit)
        self.db.ddl_listeners.append(self._on_ddl)

    def _on_commit(self, lsn: int, note: str, records: tuple) -> None:
        # images are the primary's recovery bases (followers patch the
        # pages they hold), and ALLOCs for files already dropped again
        # describe storage neither side keeps.  The WAL scrubbed a file
        # dropped mid-statement from the REDO record (a retrieve's
        # output file), so a statement that changed no live file ships
        # nothing; a follower skips spans of files dropped since.
        disk = self.db.storage.disk
        kept = [
            r for r in records
            if r.type is not WalRecordType.PAGE_BEFORE
            and (r.type is not WalRecordType.ALLOC
                 or disk.file_exists(r.file_id))
        ]
        if not any(r.type in (WalRecordType.ALLOC, WalRecordType.REDO)
                   for r in kept):
            return
        frames = b"".join(r.encode() for r in kept)
        self.log.append("dml", note=note, frames=frames)
        self._m_entries.inc(kind="dml")

    def _on_ddl(self, text: str, next_file_id: int) -> None:
        self.log.append("ddl", note=" ".join(text.split()),
                        next_file_id=next_file_id)
        self._m_entries.inc(kind="ddl")

    # -- the replication verbs --------------------------------------------

    def subscribe(self, name: str, after_lsn: int) -> dict:
        """Register a follower resuming after ``after_lsn``.

        Idempotent by design: a re-subscribe after a disconnect simply
        creates a fresh follower id resuming from the follower's applied
        LSN; the stale registration ages out of the status view.
        """
        if after_lsn < 0:
            raise ReplicationLinkError(f"bad subscribe LSN {after_lsn}")
        # fail the subscription now, not on the first fetch, if the log
        # no longer reaches back far enough
        self.log.entries_after(after_lsn, max_entries=1)
        with self._mutex:
            state = FollowerState(self._next_follower, name or "follower",
                                  acked_lsn=after_lsn,
                                  subscribed_at=time.time())
            self._next_follower += 1
            self._followers[state.id] = state
            self._g_followers.inc()
        return {"kind": "repl_subscribed", "follower_id": state.id,
                "last_lsn": self.log.last_lsn,
                "oldest_lsn": self.log.oldest_lsn}

    def fetch(self, follower_id: int, after_lsn: int, applied_lsn: int,
              max_entries: int = 256, wait_s: float = 0.0) -> dict:
        """One long-poll: ack ``applied_lsn``, return entries > ``after_lsn``.

        An empty ``entries`` list after ``wait_s`` is the heartbeat -- the
        follower learns the primary is alive (and its ``last_lsn``), the
        primary refreshes the follower's liveness clock.
        """
        self._m_fetches.inc()
        with self._acked:
            state = self._followers.get(follower_id)
            if state is None:
                raise ReplicationLinkError(
                    f"unknown follower id {follower_id}; resubscribe")
            state.last_seen = time.perf_counter()
            state.fetches += 1
            if applied_lsn > state.acked_lsn:
                state.acked_lsn = applied_lsn
                self._acked.notify_all()
        entries = self.log.entries_after(after_lsn, max_entries)
        if not entries and wait_s > 0.0:
            self.log.wait_beyond(after_lsn, wait_s)
            entries = self.log.entries_after(after_lsn, max_entries)
        if entries:
            self._m_shipped.inc(len(entries))
        return {"kind": "repl_entries",
                "entries": [e.to_wire() for e in entries],
                "last_lsn": self.log.last_lsn}

    def forget(self, follower_id: int) -> None:
        with self._mutex:
            if self._followers.pop(follower_id, None) is not None:
                self._g_followers.inc(-1)

    # -- acknowledged-write contract --------------------------------------

    def wait_for_sync(self, lsn: int, timeout: float | None = None) -> bool:
        """Block until ``sync_replicas`` followers have applied ``lsn``.

        Returns False on timeout (counted loudly in
        ``replication_sync_timeouts_total``); the caller still acks the
        client -- availability over durability once the quorum is gone --
        but the breach is observable.
        """
        if self.sync_replicas <= 0 or lsn <= 0:
            return True
        timeout = self.sync_timeout if timeout is None else timeout
        deadline = time.perf_counter() + timeout
        with self._acked:
            while self._acked_count(lsn) < self.sync_replicas:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self._m_sync_timeouts.inc()
                    return False
                self._acked.wait(remaining)
            return True

    def _acked_count(self, lsn: int) -> int:
        return sum(1 for s in self._followers.values() if s.acked_lsn >= lsn)

    def drain(self, timeout: float = 10.0,
              liveness_s: float = 5.0) -> tuple[bool, list[dict]]:
        """Wait until every live follower has acked the log tail.

        Part of graceful shutdown: a clean primary exit must not strand
        acknowledged statements on dead air.  Followers that have not
        fetched within ``liveness_s`` are considered gone and are not
        waited for.  Returns ``(flushed, laggards)``.
        """
        deadline = time.perf_counter() + timeout
        target = self.log.last_lsn
        with self._acked:
            while True:
                now = time.perf_counter()
                laggards = [
                    s.info(target) for s in self._followers.values()
                    if s.acked_lsn < target and now - s.last_seen < liveness_s
                ]
                if not laggards:
                    return True, []
                remaining = deadline - now
                if remaining <= 0:
                    return False, laggards
                self._acked.wait(min(remaining, 0.25))

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        """Wire-safe topology snapshot for ``repl_status`` / ``\\top``."""
        last = self.log.last_lsn
        with self._mutex:
            followers = [s.info(last) for s in self._followers.values()]
        return {
            "role": "primary" if self.attached else "follower",
            "last_lsn": last,
            "oldest_lsn": self.log.oldest_lsn,
            "retained": len(self.log),
            "dropped": self.log.dropped,
            "sync_replicas": self.sync_replicas,
            "followers": sorted(followers, key=lambda f: f["id"]),
        }
