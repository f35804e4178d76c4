"""A live server dashboard over the ``stats`` protocol verb.

::

    python -m repro.server.top --connect 127.0.0.1:7878
    python -m repro.server.top --connect 127.0.0.1:7878 --interval 2

Polls the server's ``stats`` verb and renders one screenful per tick:
sessions and connection state, statement throughput (computed from the
delta between polls), buffer hit rate, lock waits with the hottest
resources, the wait-event profile (where statement wall-clock went,
with the time statements waited for the engine mutex and held it),
WAL posture, the slow-query tail
grouped by fingerprint, the hottest statement fingerprints, and the
replication ledger: each replicated path's account and its verdict.
The connected shell's ``\\top`` meta-command drives the same renderer.

Polling reads counters only -- the stats snapshot does no page I/O and
never blocks statement admission -- so watching a server does not
change what it measures.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.monitor import ledger_lines


def _rate(current: dict, previous: dict | None, key: str,
          elapsed: float | None) -> float:
    if previous is None or not elapsed or elapsed <= 0:
        return 0.0
    return max(0.0, (current.get(key, 0) - previous.get(key, 0)) / elapsed)


def render_top(stats: dict, prev: dict | None = None,
               elapsed: float | None = None) -> str:
    """Render one dashboard frame from a ``stats`` snapshot.

    ``prev``/``elapsed`` (the previous snapshot and the seconds between
    them) turn monotone totals into rates; the first frame shows 0/s.
    """
    address = stats.get("address") or ["?", 0]
    io = stats.get("io") or {}
    locks = stats.get("locks") or {}
    wal = stats.get("wal") or {}
    slow = stats.get("slow") or {}
    stmt_rate = _rate(stats, prev, "statements_total", elapsed)
    lines = [
        f"repro top -- {address[0]}:{address[1]}   "
        f"up {stats.get('uptime_seconds', 0.0):.1f}s",
        f"sessions {stats.get('active_sessions', 0)}  "
        f"connections {stats.get('connections', 0)}"
        f"/{stats.get('max_connections', 0)}  "
        f"statements {stats.get('statements_total', 0)} "
        f"({stmt_rate:.1f}/s)  "
        f"rejected {stats.get('rejected_total', 0)}",
        f"io  hit rate {io.get('hit_rate', 0.0) * 100:.1f}%  "
        f"reads {io.get('physical_reads', 0)}  "
        f"writes {io.get('physical_writes', 0)}  "
        f"logical {io.get('logical_reads', 0)}  "
        f"evictions {io.get('evictions', 0)}",
        f"locks  waits {locks.get('waits_total', 0)}  "
        f"wait time {locks.get('wait_seconds_total', 0.0):.3f}s  "
        f"deadlocks {locks.get('deadlocks_total', 0)}  "
        f"timeouts {locks.get('timeouts_total', 0)}",
    ]
    hottest = locks.get("hottest") or []
    if hottest:
        parts = []
        for h in hottest:
            by_mode = h.get("by_mode") or {}
            mode = max(by_mode, key=by_mode.get) if by_mode else "?"
            parts.append(f"{h['resource']}[{mode}] "
                         f"{h['total_wait_s']:.3f}s({h['waits']})")
        lines.append("hottest  " + "  ".join(parts))
    waits = stats.get("waits") or {}
    if waits.get("events"):
        parts = [f"{w['event']} {w['share'] * 100:.0f}%"
                 for w in waits["events"][:6]]
        lines.append(
            f"waits  coverage {waits.get('coverage', 0.0) * 100:.1f}% of "
            f"{waits.get('statement_seconds', 0.0):.3f}s  "
            + "  ".join(parts))
        lines.append(
            f"admission  wait {waits.get('admission_wait_seconds', 0.0):.3f}s  "
            f"hold {waits.get('admission_hold_seconds', 0.0):.3f}s")
    lines.append(
        f"wal  {'on' if wal.get('enabled') else 'off'}  "
        f"records {wal.get('records', 0)}  "
        f"flushes {wal.get('flushes', 0)}"
        + ("  NEEDS RECOVERY" if wal.get("needs_recovery") else ""))
    tail = slow.get("tail") or []
    lines.append(
        f"slow (>= {slow.get('threshold_ms', 0.0):.0f}ms)  "
        f"total {slow.get('total', 0)}")
    for entry in tail:
        lines.append(
            f"  {entry.get('duration_ms', 0.0):8.1f}ms  "
            f"lock {entry.get('lock_wait_ms', 0.0):6.1f}ms  "
            f"[{entry.get('outcome', '?')}]  "
            f"{entry.get('statement', '')[:70]}")
    grouped = slow.get("grouped") or []
    if grouped:
        lines.append("slow offenders (grouped by fingerprint):")
        for g in grouped:
            lines.append(
                f"  x{g.get('count', 0):<4} "
                f"total {g.get('total_ms', 0.0):8.1f}ms  "
                f"max {g.get('max_ms', 0.0):8.1f}ms  "
                f"{g.get('statement', '')[:56]}")
    statements = stats.get("statements") or {}
    top_stmts = statements.get("top") or []
    if top_stmts:
        lines.append(
            f"statements  distinct {statements.get('distinct', 0)}  "
            f"evicted {statements.get('evicted', 0)}")
        for s in top_stmts:
            lines.append(
                f"  {s.get('calls', 0):6d} calls  "
                f"p95 {s.get('p95_ms', 0.0):7.2f}ms  "
                f"io {s.get('io_pages', 0):5d}  "
                f"rows {s.get('rows', 0):6d}  "
                f"{s.get('statement', '')[:48]}")
    cache = stats.get("cache") or {}
    if cache:
        invalidations = cache.get("invalidations") or {}
        lines.append(
            f"cache  {'on' if cache.get('enabled') else 'off'}  "
            f"entries {cache.get('entries', 0)}  "
            f"bytes {cache.get('bytes', 0)}/{cache.get('capacity_bytes', 0)}  "
            f"hit rate {cache.get('hit_rate', 0.0) * 100:.1f}%  "
            f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
            f"evictions {cache.get('evictions', 0)}  "
            f"invalidations {sum(invalidations.values())}")
        for entry in cache.get("hottest") or []:
            lines.append(
                f"  x{entry.get('hits', 0):<5} "
                f"{entry.get('rows', 0):6d} rows  "
                f"{entry.get('bytes', 0):8d}B  "
                f"{entry.get('statement', '')[:56]}")
    repl = stats.get("replication") or {}
    role = repl.get("role", "none")
    if role != "none":
        if "applied_lsn" in repl:  # a follower (or promoted follower)
            link = repl.get("link") or {}
            lines.append(
                f"replication  role {role}  "
                f"applied {repl.get('applied_lsn', 0)}"
                f"/{repl.get('last_known_primary_lsn', 0)}  "
                f"lag {repl.get('lag', 0)}"
                f"/{repl.get('max_lag_statements', 0)}"
                f"{'  STALE' if repl.get('stale') else ''}  "
                f"{'connected' if repl.get('connected') else 'DISCONNECTED'}  "
                f"reconnects {repl.get('reconnects', 0)}  "
                f"last contact "
                f"{link.get('last_contact_seconds', '?')}s")
        else:
            lines.append(
                f"replication  role {role}  lsn {repl.get('last_lsn', 0)}  "
                f"retained {repl.get('retained', 0)}  "
                f"dropped {repl.get('dropped', 0)}  "
                f"sync quorum {repl.get('sync_replicas', 0)}")
        for f in repl.get("followers") or []:
            lines.append(
                f"  follower #{f.get('id')} {f.get('name', ''):<16} "
                f"acked {f.get('acked_lsn', 0):<8} lag {f.get('lag', 0):<6} "
                f"fetches {f.get('fetches', 0):<8} "
                f"seen {f.get('last_seen_seconds', 0.0)}s ago")
    ledger = stats.get("ledger") or []
    if ledger:
        lines.append("replication ledger (Section 6 model; + costs more "
                     "than no replication):")
        lines.extend("  " + line for line in ledger_lines(ledger))
    detail = stats.get("sessions_detail") or []
    if detail:
        lines.append("sessions:")
        for row in detail:
            lines.append(
                f"  #{row.get('id', '?'):<3} {row.get('name', ''):<22} "
                f"{'txn ' if row.get('in_txn') else '    '}"
                f"stmts {row.get('statements', 0):<6} "
                f"errs {row.get('errors', 0):<4} "
                f"{row.get('last_duration_ms', 0.0):8.1f}ms  "
                f"{row.get('last_statement', '')[:48]}")
    return "\n".join(lines)


def run_top(client, iterations: int | None = None, interval: float = 1.0,
            out=None, clear: bool = False) -> int:
    """Poll ``client.stats()`` and print frames; returns frames printed."""
    out = out if out is not None else sys.stdout
    prev = None
    prev_at = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            stats = client.stats()
            now = time.perf_counter()
            elapsed = (now - prev_at) if prev_at is not None else None
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(render_top(stats, prev, elapsed) + "\n")
            out.flush()
            prev, prev_at = stats, now
            frames += 1
            if iterations is None or frames < iterations:
                time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.top",
        description="live dashboard over a repro server's stats verb")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between polls")
    parser.add_argument("--iterations", type=int, default=None,
                        help="frames to render (default: until Ctrl-C)")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    from repro.server.client import connect

    with connect(host, int(port)) as client:
        run_top(client, iterations=args.iterations, interval=args.interval,
                clear=args.iterations is None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
