"""``python -m repro.server``: serve a database over TCP.

::

    python -m repro.server --port 7878 --snapshot company.frdb
    python -m repro.server --port 0            # ephemeral port, printed
    python -m repro.server --port 7878 --metrics-port 9187
                                               # + the HTTP sidecar
                                               #   (httpexpo.ENDPOINTS)

The server answers SIGTERM / SIGINT (and a client's ``\\shutdown``) with
a graceful drain: in-flight statements finish, then connections close.
With ``--save FILE`` the drained database is snapshotted before exit.

``--metrics-port N`` starts the HTTP observability sidecar (0 picks an
ephemeral port); its address is printed as a second ``metrics on
host:port`` line.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.errors import ReproError
from repro.server.httpexpo import ENDPOINTS
from repro.server.service import Server
from repro.snapshot import open_database, save_database


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="serve a field-replication database over TCP")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--snapshot", metavar="FILE",
                        help="start from a snapshot instead of an empty database")
    parser.add_argument("--save", metavar="FILE",
                        help="snapshot the database after a graceful drain")
    parser.add_argument("--max-connections", type=int, default=32)
    parser.add_argument("--lock-timeout", type=float, default=10.0,
                        help="lock-wait bound in seconds")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="N",
                        help=f"serve HTTP {', '.join(ENDPOINTS)} on this "
                             "port (0 picks an ephemeral port)")
    parser.add_argument("--health-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="re-run the /health doctor check at most once "
                             "per this many seconds (<= 0: only at start)")
    parser.add_argument("--cache", action="store_true",
                        help="enable the derived-result cache by default "
                             "(sessions may override with \\set cache)")
    parser.add_argument("--cache-bytes", type=int, default=None, metavar="N",
                        help="result-cache byte budget (default 4 MiB)")
    parser.add_argument("--sync-replicas", type=int, default=0, metavar="K",
                        help="acknowledge a write only after K followers "
                             "have applied it (0: fully asynchronous)")
    parser.add_argument("--sync-timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="give up on the sync-replica quorum after this "
                             "long (counted, then acked anyway)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="graceful-shutdown bound on flushing the WAL "
                             "tail to connected followers")
    args = parser.parse_args(argv)

    try:
        db = open_database(args.snapshot)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.cache:
        db.resultcache.enabled = True
    if args.cache_bytes is not None:
        db.resultcache.capacity_bytes = max(1, args.cache_bytes)
    server = Server(db, host=args.host, port=args.port,
                    max_connections=args.max_connections,
                    lock_timeout=args.lock_timeout,
                    health_ttl=args.health_ttl,
                    sync_replicas=args.sync_replicas,
                    sync_timeout=args.sync_timeout,
                    drain_timeout=args.drain_timeout)
    server.start()
    print(f"listening on {server.host}:{server.port}", flush=True)
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
    if args.save:
        try:
            save_database(db, args.save)
            print(f"saved snapshot to {args.save}", flush=True)
        except (OSError, ReproError) as exc:
            print(f"error: cannot save snapshot: {exc}", file=sys.stderr)
            return 1
    print("server drained", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
