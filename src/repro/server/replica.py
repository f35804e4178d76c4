"""Read replicas: follower engines that apply the primary's WAL stream.

``python -m repro.server.replica --primary host:port`` starts a follower:
a full engine process that subscribes to a primary's
:class:`~repro.server.replog.ReplicationHub`, pulls committed-statement
entries over the FRNET001 replication verbs, applies them in LSN order
while holding its engine exclusively (served reads admit around the
apply loop, never through it), and serves **read-only** statements to
its own clients.  The pieces:

* :class:`_ReplLink` -- one subscribed connection to the primary.  All
  frame reads optionally pass through a
  :class:`~repro.recovery.faults.NetFaultInjector`, so a test can drop,
  delay, duplicate, or truncate exactly the frame it means to;
* :class:`Replica` -- the apply loop.  A DML entry goes through crash
  recovery's applier (:func:`repro.recovery.wal.redo`), each page
  starting from the follower's own disk page, and its one install step
  (:meth:`RecoveryManager.install`), which refreshes the free space of
  exactly the pages installed and reopens only the indexes they belong
  to; DDL entries re-execute their statement text after adopting the
  primary's file-id cursor.  The link retries with capped exponential
  backoff plus deterministic jitter and re-subscribes idempotently from
  the last *applied* LSN -- duplicated entries are skipped by LSN, a gap
  forces a reconnect;
* :class:`ReplicaServer` -- a :class:`~repro.server.service.Server` whose
  sessions admit reads (subject to the staleness bound) and refuse writes
  with ``read_only_replica``.  A read finding ``lag > max_lag_statements``
  fails with ``replica_stale``, and ``/health`` answers 503 with status
  ``stale`` so a read-routing load balancer ejects the follower;
* **promotion** -- :meth:`Replica.promote` stops the apply loop, runs
  :meth:`Database.recover` (the same restart path a crashed primary
  takes), attaches the hub's capture listeners, and flips the server
  writable.  Applied entries were relayed into the follower's own
  replication log all along, so the promoted node can immediately serve
  the stream to the surviving followers.

Staleness contract: ``lag = last-known-primary-LSN - applied_lsn``.  A
disconnected follower keeps serving whatever it has (degraded,
read-only-stale) as long as that lag stays within the bound; it never
serves a read it knows to be further behind than the operator allowed.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import socket
import sys
import threading
import time
import zlib

from repro.errors import (
    ProtocolError,
    ReadOnlyReplicaError,
    RemoteError,
    ReplicaStaleError,
    ReplicationLinkError,
    ReproError,
    WalError,
)
from repro.cache import invalidate_applied_entry
from repro.recovery.wal import WalRecordType, redo
from repro.schema.parser import execute_ddl
from repro.server import protocol
from repro.server.httpexpo import ENDPOINTS
from repro.server.replog import ReplicationEntry, ReplicationHub
from repro.server.service import Server


class _ReplLink:
    """One subscribed connection to the primary.

    Owns the socket, the read timeout (how long a silent primary is
    tolerated -- the long-poll heartbeat must arrive within it), and the
    optional frame-fault injector.  ``request`` tolerates duplicated
    response frames by skipping stale request ids.
    """

    def __init__(self, host: str, port: int, timeout: float = 3.0,
                 faults=None) -> None:
        self.faults = faults
        self._pending: list[dict] = []
        self._next_id = 0
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(timeout)
        protocol.check_handshake(self._read_obj())

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    # -- framing through the fault injector --------------------------------

    def _read_obj(self) -> dict:
        """Read one frame, subjecting it to the injector's verdict."""
        while True:
            if self._pending:
                return self._pending.pop(0)
            head = protocol._recv_exact(self.sock, 8, "frame header")
            length, crc = protocol._HEAD.unpack(head)
            if length > protocol.MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"implausible frame length {length} on replication link")
            payload = protocol._recv_exact(self.sock, length, "frame payload")
            action = (self.faults.plan_frame()
                      if self.faults is not None and self.faults.armed
                      else "ok")
            if action == "drop":
                continue  # the frame vanished; keep waiting (read timeout)
            if action == "delay":
                time.sleep(self.faults.delay_seconds)
            if action == "truncate":
                # the connection died mid-frame: nothing usable arrived
                raise ProtocolError(
                    "injected fault: replication frame truncated mid-flight")
            if zlib.crc32(payload) != crc:
                raise ProtocolError("frame checksum mismatch")
            try:
                obj = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"replication frame is not JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ProtocolError("replication frame is not a JSON object")
            if action == "duplicate":
                self._pending.append(obj)
            return obj

    def request(self, kind: str, **fields) -> dict:
        self._next_id += 1
        protocol.write_frame(self.sock,
                             {"id": self._next_id, "kind": kind, **fields})
        skipped = 0
        while True:
            obj = self._read_obj()
            rid = obj.get("id")
            if rid == self._next_id or rid == 0:
                break
            # a duplicated earlier response; drop it (bounded)
            skipped += 1
            if skipped > 8:
                raise ProtocolError(
                    f"no response matched request {self._next_id} "
                    f"after {skipped} stale frame(s)")
        if not obj.get("ok"):
            error = obj.get("error") or {}
            raise RemoteError(error.get("code", "internal_error"),
                              error.get("message",
                                        "replication request failed"))
        return obj.get("result") or {}


class Replica:
    """The follower: applies the primary's stream, tracks its own lag."""

    def __init__(self, primary: tuple[str, int], db=None,
                 name: str = "replica", max_lag_statements: int = 64,
                 poll_wait: float = 0.5, link_timeout: float | None = None,
                 min_backoff: float = 0.05, max_backoff: float = 2.0,
                 jitter_seed: int = 0, net_faults=None) -> None:
        if db is None:
            from repro.schema.database import Database

            db = Database(wal=True)
        if db.recovery.wal is None:
            raise ReplicationLinkError(
                "a replica requires the write-ahead log (Database(wal=True))")
        self.db = db
        self.primary = primary
        self.name = name
        #: reads are refused (``replica_stale``) past this lag; negative
        #: disables the bound (serve however stale)
        self.max_lag = max_lag_statements
        self.poll_wait = poll_wait
        #: how long a silent link is tolerated; must exceed the long-poll
        #: wait or every empty heartbeat would look like a dead primary
        self.link_timeout = (poll_wait + 2.0 if link_timeout is None
                             else link_timeout)
        self.min_backoff = min_backoff
        self.max_backoff = max_backoff
        self.net_faults = net_faults
        #: the follower's own (passive) hub: applied entries are relayed
        #: into its log so a promoted node can serve the stream onward
        self.hub = ReplicationHub(db, attach=False)
        #: replaced by ReplicaServer with its engine mutex: applying an
        #: entry then runs alone in the served engine, like a statement
        self.latch = threading.RLock()
        self.server: Server | None = None
        self.applied_lsn = 0
        self.primary_lsn = 0
        self.entries_applied = 0
        self.reconnects = 0
        self.connected = False
        self.promoted = False
        self.resync_needed = False
        self.last_contact: float | None = None
        self.promotion_seconds: float | None = None
        self._rng = random.Random(jitter_seed)
        self._follower_id = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = db.telemetry.metrics
        self._g_applied = metrics.gauge(
            "replica_applied_lsn", "last stream LSN applied locally")
        self._g_lag = metrics.gauge(
            "replica_lag_statements",
            "statements behind the last-known primary LSN")
        self._m_applied = metrics.counter(
            "replica_entries_applied_total", "stream entries applied, by kind")
        self._m_reconnects = metrics.counter(
            "replica_reconnects_total", "replication link reconnect attempts")
        self._m_stale = metrics.counter(
            "replica_stale_reads_rejected_total",
            "reads refused because lag exceeded the staleness bound")
        self._m_promotions = metrics.counter(
            "replica_promotions_total", "follower-to-primary promotions")

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Replica":
        """Start the apply loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name=f"repro-replica-{self.name}",
                                        daemon=True)
        self._thread.start()
        return self

    def stop_apply(self, timeout: float = 10.0) -> None:
        """Stop the apply loop and wait for it to exit."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)

    # -- the apply loop ------------------------------------------------------

    def _run(self) -> None:
        backoff = self.min_backoff
        while not self._stop.is_set():
            link = None
            try:
                link = _ReplLink(self.primary[0], self.primary[1],
                                 timeout=self.link_timeout,
                                 faults=self.net_faults)
                # idempotent re-subscribe: always resume from what this
                # engine has durably applied, never from what was fetched
                sub = link.request("repl_subscribe", follower=self.name,
                                   after_lsn=self.applied_lsn)
                self._follower_id = int(sub.get("follower_id", 0))
                self._observe_primary(sub.get("last_lsn", 0))
                backoff = self.min_backoff
                self._stream(link)
            except RemoteError as exc:
                if exc.code == "replica_resync":
                    # the primary's log no longer reaches back to us;
                    # only a re-seed (fresh replica) can fix that
                    self.resync_needed = True
                    self.connected = False
                    print(f"repro-replica: {exc}; stopping apply loop "
                          f"(re-seed this follower)",
                          file=sys.stderr, flush=True)
                    return
                self._note_disconnect()
            except (OSError, ReproError):
                self._note_disconnect()
            finally:
                if link is not None:
                    link.close()
            if self._stop.is_set():
                return
            # capped exponential backoff with deterministic jitter
            self._stop.wait(backoff * (0.5 + self._rng.random()))
            backoff = min(backoff * 2.0, self.max_backoff)

    def _stream(self, link: _ReplLink) -> None:
        while not self._stop.is_set():
            resp = link.request(
                "repl_fetch", follower_id=self._follower_id,
                after_lsn=self.applied_lsn, applied_lsn=self.applied_lsn,
                max_entries=256, wait_s=self.poll_wait)
            self._observe_primary(resp.get("last_lsn", 0))
            for obj in resp.get("entries") or []:
                if self._stop.is_set():
                    return
                entry = ReplicationEntry.from_wire(obj)
                if entry.lsn <= self.applied_lsn:
                    continue  # duplicated delivery: already applied
                if entry.lsn != self.applied_lsn + 1:
                    raise ReplicationLinkError(
                        f"replication stream gap: expected LSN "
                        f"{self.applied_lsn + 1}, got {entry.lsn}")
                self._apply(entry)

    def _observe_primary(self, last_lsn) -> None:
        self.primary_lsn = max(self.primary_lsn, int(last_lsn or 0))
        self.last_contact = time.perf_counter()
        self.connected = True
        self._g_lag.set(self.lag)

    def _note_disconnect(self) -> None:
        if self.connected:
            self.connected = False
        self.reconnects += 1
        self._m_reconnects.inc()

    # -- applying one entry --------------------------------------------------

    def _apply(self, entry: ReplicationEntry) -> None:
        with self.latch:
            if entry.kind == "ddl":
                # adopt the primary's file-id cursor first so the files
                # this DDL creates get identical ids on both engines
                try:
                    self.db.storage.disk.sync_file_cursor(entry.next_file_id)
                except ValueError as exc:
                    raise ReplicationLinkError(
                        f"entry {entry.lsn}: {exc}") from None
                execute_ddl(self.db, entry.note)
                file_ids = None
            else:
                disk = self.db.storage.disk
                # crash recovery's applier, each page starting from this
                # engine's own; files dropped again on the primary after
                # these records were written are skipped
                done = redo(self._records(entry), base=disk.peek_page,
                            live=disk.file_exists)
                self.db.recovery.install(done)
                file_ids = done.file_ids
            # result-cache coherence before the applied LSN advances: a
            # cached read on this replica is never staler than the
            # replica itself (DDL flushes; DML invalidates by the sets
            # owning the touched files)
            invalidate_applied_entry(self.db, file_ids)
            self.applied_lsn = entry.lsn
            self.hub.log.relay(entry)
        self.entries_applied += 1
        self._m_applied.inc(kind=entry.kind)
        self._g_applied.set(entry.lsn)
        self._g_lag.set(self.lag)

    @staticmethod
    def _records(entry: ReplicationEntry) -> list:
        """A DML entry's records, refused unless whole and committed."""
        try:
            records = entry.records()
        except WalError as exc:
            raise ReplicationLinkError(
                f"entry {entry.lsn} is undecodable: {exc}") from None
        if not records or records[-1].type is not WalRecordType.COMMIT:
            raise ReplicationLinkError(
                f"entry {entry.lsn} is not a complete committed statement")
        return records

    # -- the staleness / read-only contract ----------------------------------

    @property
    def lag(self) -> int:
        return max(0, self.primary_lsn - self.applied_lsn)

    @property
    def stale(self) -> bool:
        return self.max_lag >= 0 and self.lag > self.max_lag

    def guard(self, kind: str) -> None:
        """The session access guard: refuse writes, bound read staleness."""
        if self.promoted:
            return
        if kind == "write":
            raise ReadOnlyReplicaError(
                "read replica: write statements must go to the primary "
                "(or promote this follower)")
        if self.stale:
            self._m_stale.inc()
            raise ReplicaStaleError(
                f"replica is {self.lag} statement(s) behind the primary "
                f"(bound {self.max_lag}); retry on the primary",
                lag=self.lag, bound=self.max_lag)

    # -- promotion -----------------------------------------------------------

    def promote(self) -> dict:
        """Become a primary: stop applying, recover, start capturing.

        :meth:`Database.recover` is the same restart path a crashed
        primary takes -- it rebuilds every derived in-memory structure
        from the disk image and re-verifies replication invariants, so
        the promoted node starts from a proven-consistent state.
        """
        started = time.perf_counter()
        if self.promoted:
            return {"kind": "promoted", "already": True,
                    "applied_lsn": self.applied_lsn}
        self.stop_apply()
        with self.latch:
            report = self.db.recover(verify=True)
            self.hub.attach_listeners()
            self.promoted = True
        self.promotion_seconds = time.perf_counter() - started
        self._m_promotions.inc()
        return {
            "kind": "promoted",
            "applied_lsn": self.applied_lsn,
            "last_known_primary_lsn": self.primary_lsn,
            "seconds": round(self.promotion_seconds, 4),
            "recovery": str(report),
        }

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """Wire-safe follower-side status (``repl_status`` / ``/health``)."""
        status = {
            "role": "primary (promoted)" if self.promoted else "follower",
            "name": self.name,
            "primary": f"{self.primary[0]}:{self.primary[1]}",
            "applied_lsn": self.applied_lsn,
            "last_known_primary_lsn": self.primary_lsn,
            "lag": self.lag,
            "max_lag_statements": self.max_lag,
            "stale": self.stale,
            "connected": self.connected,
            "promoted": self.promoted,
            "resync_needed": self.resync_needed,
            "entries_applied": self.entries_applied,
            "reconnects": self.reconnects,
            "link": {
                "poll_wait_s": self.poll_wait,
                "timeout_s": self.link_timeout,
                "last_contact_seconds": (
                    round(time.perf_counter() - self.last_contact, 3)
                    if self.last_contact is not None else None),
            },
        }
        if self.promoted:
            status["followers"] = self.hub.status()["followers"]
        if self.promotion_seconds is not None:
            status["promotion_seconds"] = round(self.promotion_seconds, 4)
        return status


class ReplicaServer(Server):
    """A TCP server over a follower engine.

    Identical protocol surface to :class:`Server`, but sessions pass
    through the replica's access guard (writes refused, stale reads
    refused) and ``promote`` actually promotes.  After promotion the
    guard stands down and this server is a primary in every respect --
    including serving the replication stream to new followers from the
    relayed log.
    """

    def __init__(self, replica: Replica, **kwargs) -> None:
        super().__init__(replica.db, hub=replica.hub, **kwargs)
        self.replica = replica
        replica.server = self
        replica.latch = self.sessions.latch
        self.sessions.access_guard = replica.guard

    def start(self) -> "ReplicaServer":
        super().start()
        self.replica.start()
        return self

    def shutdown(self) -> None:
        self.replica.stop_apply()
        super().shutdown()

    def die(self) -> None:
        self.replica.stop_apply(timeout=0.0)
        super().die()

    def _handle_promote(self, sock, request_id: int) -> bool:
        try:
            result = self.replica.promote()
        except ReproError as exc:
            protocol.write_frame(
                sock, protocol.error_response(request_id, exc))
        except Exception as exc:  # promotion bug: report, stay a follower
            protocol.write_frame(
                sock, protocol.error_response(request_id, exc))
        else:
            protocol.write_frame(
                sock, protocol.ok_response(request_id, result))
        return True

    def _replication_status(self) -> dict:
        return self.replica.status()

    def health(self) -> dict:
        document = super().health()
        replica = self.replica
        if document["status"] == "ok" and not replica.promoted:
            if replica.stale:
                # a load balancer must stop routing reads here (503)
                document["status"] = "stale"
            elif not replica.connected:
                document["status"] = "degraded"
        return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.replica",
        description="serve a read replica following a primary's WAL stream")
    parser.add_argument("--primary", required=True, metavar="HOST:PORT",
                        help="the primary server's statement address")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7879,
                        help="TCP port for read-only clients (0: ephemeral)")
    parser.add_argument("--name", default=None,
                        help="follower name shown in the primary's topology")
    parser.add_argument("--max-lag-statements", type=int, default=64,
                        metavar="N",
                        help="refuse reads (replica_stale) when more than N "
                             "statements behind; -1 serves however stale")
    parser.add_argument("--poll-wait", type=float, default=0.5,
                        metavar="SECONDS",
                        help="long-poll (heartbeat) interval on the link")
    parser.add_argument("--max-backoff", type=float, default=2.0,
                        metavar="SECONDS",
                        help="reconnect backoff cap")
    parser.add_argument("--max-connections", type=int, default=32)
    parser.add_argument("--lock-timeout", type=float, default=10.0)
    parser.add_argument("--health-ttl", type=float, default=30.0)
    parser.add_argument("--metrics-port", type=int, default=None, metavar="N",
                        help=f"serve HTTP {', '.join(ENDPOINTS)} on this "
                             "port (0 picks an ephemeral port)")
    parser.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                        help="arm the link fault injector with this seed")
    parser.add_argument("--chaos-drop", type=float, default=0.0)
    parser.add_argument("--chaos-delay", type=float, default=0.0)
    parser.add_argument("--chaos-duplicate", type=float, default=0.0)
    parser.add_argument("--chaos-truncate", type=float, default=0.0)
    args = parser.parse_args(argv)

    host, _, port_text = args.primary.rpartition(":")
    try:
        primary = (host or "127.0.0.1", int(port_text))
    except ValueError:
        print(f"error: --primary must be HOST:PORT, not {args.primary!r}",
              file=sys.stderr)
        return 1

    net_faults = None
    if args.chaos_seed is not None:
        from repro.recovery.faults import NetFaultInjector

        net_faults = NetFaultInjector(
            seed=args.chaos_seed, drop=args.chaos_drop,
            delay=args.chaos_delay, duplicate=args.chaos_duplicate,
            truncate=args.chaos_truncate)

    replica = Replica(primary, name=args.name or f"replica-{args.port}",
                      max_lag_statements=args.max_lag_statements,
                      poll_wait=args.poll_wait, max_backoff=args.max_backoff,
                      net_faults=net_faults)
    server = ReplicaServer(replica, host=args.host, port=args.port,
                           max_connections=args.max_connections,
                           lock_timeout=args.lock_timeout,
                           health_ttl=args.health_ttl)
    server.start()
    print(f"replica {replica.name} listening on {server.host}:{server.port} "
          f"(primary {primary[0]}:{primary[1]})", flush=True)
    sidecar = None
    if args.metrics_port is not None:
        from repro.server.httpexpo import MetricsHTTPServer

        sidecar = MetricsHTTPServer(server, host=args.host,
                                    port=args.metrics_port).start()
        print(f"metrics on {sidecar.host}:{sidecar.port}", flush=True)

    def drain(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    server.wait()
    if sidecar is not None:
        sidecar.shutdown()
    print("replica drained", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
