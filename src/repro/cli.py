"""An interactive shell for the field-replication DBMS.

Usage::

    python -m repro.cli                       # interactive session
    python -m repro.cli script.extra          # run a script file, then exit
    echo "..." | python -m repro.cli          # run a piped script
    python -m repro.cli --snapshot db.frdb    # start from a snapshot
    python -m repro.cli --save db.frdb        # snapshot the session on exit
    python -m repro.cli --connect host:port   # drive a remote repro.server

Statements are the EXTRA-ish DDL (``define type`` / ``create`` /
``replicate`` / ``build btree on`` / ``drop replicate|index|set``) and
queries (``retrieve`` / ``replace`` / ``delete``, plus ``explain <query>``
to see the plan without running it and ``explain analyze <query>`` to run
it with a per-operator I/O breakdown); terminate interactive statements
with ``;`` or a blank line.  Connected to a server, ``begin`` / ``commit``
/ ``abort`` group statements under held locks.  Meta-commands:

    \\describe          render the whole schema
    \\stats [prom]      cumulative I/O counters + engine metrics
                       (``prom``: Prometheus exposition format)
    \\trace on|off      toggle structured query tracing (connected: each
                       statement propagates a client-minted trace id and
                       the dump shows the client->server->engine tree)
    \\trace clear       drop collected spans
    \\trace dump [file] print (or export as JSONL) the trace
    \\top [N [SECS]]    live server dashboard over the stats verb
                       (connected only; N frames, SECS apart; default 1)
    \\monitor           workload observations (joins, field updates)
                       and the replication ledger
    \\fingerprints      per-statement-fingerprint analytics (calls, I/O,
                       lock waits, WAL bytes, p50/p95/p99 latency, and
                       the result cache's per-shape hit rate)
    \\cache [clear]     derived-result cache: entries, bytes, hit/miss/
                       invalidation counters, hottest entries
                       (``clear`` drops every entry)
    \\ledger            per replicated path: reads served, propagations,
                       observed P_update and f, the Section 6 model's
                       percentage against no replication, keep/drop
    \\waits             wait-event accounting: where statement wall-clock
                       went (engine latch, locks, buffer I/O, WAL flush,
                       replication acks, cpu residual)
    \\replication       WAL-shipping topology: role, LSNs, per-follower
                       lag (connected only)
    \\promote           turn a connected follower into a primary
    \\set cache on|off  result cache for retrieves (local: flips the
                       database default; connected: a per-session
                       override, ``default`` reverts to the server's)
    \\verify            run the replication consistency checker
    \\doctor [repair]   diagnose (and with ``repair`` fix) replica drift
    \\recover           replay the WAL after an injected crash
    \\cold              flush + empty the buffer pool
    \\limit N           cap rendered rows at N (``off`` for no cap)
    \\shutdown          ask a connected server to drain and stop
    \\help              this text
    \\quit              leave

The shell's database runs with the write-ahead log enabled, so every
statement is atomic and a session survives injected faults: a failed
statement prints one line and the next prompt appears.  In script mode,
any failed statement makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

PROMPT = "extra> "
CONTINUATION = "   ..> "

DEFAULT_ROW_LIMIT = 50

#: meta-commands answered by the server when the shell is connected.
#: ``trace`` is deliberately absent: connected tracing is client-side,
#: so the dump shows the stitched client->server->engine tree.
_FORWARDED_META = ("describe", "stats", "monitor", "fingerprints", "ledger",
                   "verify", "doctor", "recover", "cold", "set",
                   "replication", "cache", "waits")


def render_result(result, limit: int | None = DEFAULT_ROW_LIMIT) -> str:
    """Render rows as a fixed-width table plus the plan and I/O.

    ``limit`` caps the rendered rows (None or 0: render everything) --
    the row *count* line always reports the true total.
    """
    lines = []
    cap = len(result.rows) if not limit else limit
    if tuple(result.columns) != ("oid",):
        widths = [
            max(len(col), *(len(str(row[i])) for row in result.rows), 1)
            if result.rows
            else len(col)
            for i, col in enumerate(result.columns)
        ]
        header = " | ".join(col.ljust(w) for col, w in zip(result.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in result.rows[:cap]:
            lines.append(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        if len(result.rows) > cap:
            lines.append(f"... ({len(result.rows) - cap} more rows)")
    lines.append(f"({len(result.rows)} row(s))   plan: {result.plan}")
    io_line = (f"I/O: {result.io.total_io} "
               f"({result.io.physical_reads} reads, "
               f"{result.io.physical_writes} writes)")
    cache = getattr(result, "cache", None)
    if cache:
        io_line += f"   cache: {cache}"
    lines.append(io_line)
    return "\n".join(lines)


def render_trace(trace: dict) -> str:
    """Render one stitched trace as an indented span tree.

    Children sort by span id (creation order); each line shows the span's
    wall time, its inclusive physical I/O, and the attributes that matter
    at a glance (statement text, lock waits, record counts).
    """
    spans = trace.get("spans") or []
    children: dict = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("span_id", 0))
    lines = [f"trace {trace.get('trace_id', '?')}"]

    def walk(span: dict, depth: int) -> None:
        io = span.get("io") or {}
        total = io.get("physical_reads", 0) + io.get("physical_writes", 0)
        attrs = span.get("attrs") or {}
        notes = []
        for key in ("statement", "resources", "waited_ms", "records",
                    "kind", "note"):
            if key in attrs and attrs[key] not in ("", [], None):
                notes.append(f"{key}={attrs[key]}")
        lines.append(
            f"{'  ' * depth}{span.get('name', '?'):<14} "
            f"{span.get('duration_ms', 0.0):9.3f}ms  io={total}"
            + (("  " + " ".join(str(n) for n in notes)) if notes else ""))
        for child in children.get(span.get("span_id"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


class Shell:
    """One interactive session over a local database or a remote server."""

    def __init__(self, out=None, db=None, client=None,
                 limit: int | None = DEFAULT_ROW_LIMIT) -> None:
        if client is None and db is None:
            from repro.schema.database import Database

            db = Database(wal=True)
        self.db = db
        self.client = client
        self.out = out if out is not None else sys.stdout
        self.limit = limit
        self.done = False
        #: statements / meta-commands that failed (script exit status)
        self.errors = 0

    def write(self, text: str) -> None:
        print(text, file=self.out)

    def fail(self, message: str) -> None:
        self.errors += 1
        self.write(message)

    # -- dispatch -----------------------------------------------------------

    def run_meta(self, line: str) -> None:
        """Dispatch one backslash command; errors never kill the session."""
        try:
            self._dispatch_meta(line)
        except ReproError as exc:
            self.fail(f"error: {exc}")

    def _dispatch_meta(self, line: str) -> None:
        words = line.strip().split()
        command = words[0][1:]
        args = words[1:]
        if command in ("quit", "q", "exit"):
            self.done = True
        elif command == "help":
            self.write(__doc__ or "")
        elif command == "limit":
            self._set_limit(args)
        elif command == "shutdown":
            if self.client is None:
                self._needs_server(command)
                return
            self.write(self.client.shutdown() or "server draining")
            self.done = True
        elif command == "top":
            self._run_top(args)
        elif self.client is not None:
            if command == "trace":
                self._run_client_trace(args)
            elif command == "promote":
                import json as _json

                self.write(_json.dumps(self.client.promote(), indent=2))
            elif command in _FORWARDED_META:
                self.write(self.client.meta(command, *args))
            else:
                self.fail(f"unknown meta-command \\{command} (try \\help)")
        elif command == "trace":
            self.run_trace(args)
        elif command == "set":
            self._run_set(args)
        elif command in ("replication", "promote"):
            self._needs_server(command)
        else:
            from repro.server.session import meta_text

            text = meta_text(self.db, command, args)
            if text is None:
                self.fail(f"unknown meta-command \\{command} (try \\help)")
            else:
                self.write(text)

    def _needs_server(self, command: str) -> None:
        self.fail(f"error: \\{command} needs a connected server "
                  f"(--connect host:port)")

    def _set_limit(self, args: list[str]) -> None:
        if not args:
            current = self.limit if self.limit else "off"
            self.write(f"row limit: {current}")
            return
        if args[0] in ("off", "none", "0"):
            self.limit = None
            self.write("row limit off")
            return
        try:
            value = int(args[0])
        except ValueError:
            self.fail(f"error: \\limit takes a number or 'off', not {args[0]!r}")
            return
        if value < 0:
            self.fail("error: \\limit takes a non-negative number")
            return
        self.limit = value or None
        self.write(f"row limit: {self.limit if self.limit else 'off'}")

    def _run_set(self, args: list[str]) -> None:
        """Embedded ``\\set cache``: flips the local database's default."""
        if not args or args[0] != "cache":
            self.fail("error: usage: \\set cache on|off")
            return
        cache = self.db.resultcache
        if len(args) >= 2:
            if args[1] not in ("on", "off"):
                self.fail(f"error: cache must be 'on' or 'off', "
                          f"not {args[1]!r}")
                return
            cache.enabled = args[1] == "on"
        self.write(f"result cache {'on' if cache.enabled else 'off'}")

    def run_trace(self, args: list[str]) -> None:
        tracer = self.db.telemetry.tracer
        mode = args[0] if args else "dump"
        if mode == "on":
            tracer.enable()
            self.write("tracing on")
        elif mode == "off":
            tracer.disable()
            self.write("tracing off")
        elif mode == "clear":
            tracer.clear()
            self.write("trace cleared")
        elif mode == "dump":
            if len(args) > 1:
                try:
                    written = tracer.export(args[1])
                except OSError as exc:
                    self.fail(f"error: cannot write trace: {exc}")
                    return
                self.write(f"wrote {written} span(s) to {args[1]}")
            else:
                self.write(tracer.to_jsonl() or "(no spans recorded)")
        else:
            self.fail(f"unknown \\trace mode {mode!r} (on|off|clear|dump)")

    def _run_client_trace(self, args: list[str]) -> None:
        """Connected ``\\trace``: client-side trace propagation."""
        client = self.client
        mode = args[0] if args else "dump"
        if mode == "on":
            client.trace_enabled = True
            self.write("tracing on")
        elif mode == "off":
            client.trace_enabled = False
            self.write("tracing off")
        elif mode == "clear":
            client.traces.clear()
            self.write("trace cleared")
        elif mode == "dump":
            if not client.traces:
                self.write("(no spans recorded)")
            elif len(args) > 1:
                import json

                try:
                    with open(args[1], "w", encoding="utf-8") as handle:
                        count = 0
                        for trace in client.traces:
                            for span in trace.get("spans") or []:
                                handle.write(json.dumps(span) + "\n")
                                count += 1
                except OSError as exc:
                    self.fail(f"error: cannot write trace: {exc}")
                    return
                self.write(f"wrote {count} span(s) to {args[1]}")
            else:
                self.write("\n".join(render_trace(t) for t in client.traces))
        else:
            self.fail(f"unknown \\trace mode {mode!r} (on|off|clear|dump)")

    def _run_top(self, args: list[str]) -> None:
        if self.client is None:
            self._needs_server("top")
            return
        try:
            iterations = int(args[0]) if args else 1
            interval = float(args[1]) if len(args) > 1 else 1.0
        except ValueError:
            self.fail("error: \\top takes [iterations [interval-seconds]]")
            return
        from repro.server.top import run_top

        run_top(self.client, iterations=max(1, iterations),
                interval=interval, out=self.out)

    def run_statement(self, statement: str) -> None:
        if self.client is not None:
            self._run_remote_statement(statement)
            return
        from repro.schema.parser import (
            _DDL_STARTERS,
            _QUERY_STARTERS,
            run_script_statement,
        )

        if statement.split(None, 1)[0] not in _QUERY_STARTERS + _DDL_STARTERS:
            self.fail(f"unrecognised statement: {statement!r} (try \\help)")
            return
        result = run_script_statement(self.db, statement)
        if result is None:
            self.write("ok")
        elif isinstance(result, str):
            self.write(result)
        else:
            self.write(render_result(result, self.limit))

    def _run_remote_statement(self, statement: str) -> None:
        from repro.server.client import ClientResult

        outcome = self.client.execute(statement)
        if isinstance(outcome, ClientResult):
            self.write(render_result(outcome, self.limit))
        elif outcome == "ddl":
            self.write("ok")
        else:
            self.write(str(outcome))

    def run_block(self, text: str) -> None:
        """Run a block of statements, reporting errors without dying."""
        from repro.schema.parser import split_script

        try:
            statements = split_script(text)
        except ReproError as exc:
            self.fail(f"error: {exc}")
            return
        for statement in statements:
            if statement.startswith("\\"):
                self.run_meta(statement)
                if self.done:
                    return
                continue
            try:
                self.run_statement(statement)
            except ReproError as exc:
                self.fail(f"error: {exc}")

    # -- REPL loop -----------------------------------------------------------

    def interact(self, lines) -> None:
        buffer: list[str] = []
        depth = 0
        for line in lines:
            stripped = line.rstrip("\n")
            if stripped.strip().startswith("\\"):
                self.run_meta(stripped)
                if self.done:
                    return
                continue
            depth += stripped.count("(") - stripped.count(")")
            buffer.append(stripped)
            complete = depth <= 0 and (
                stripped.rstrip().endswith(";") or not stripped.strip()
            )
            if complete:
                block = "\n".join(buffer).strip()
                buffer, depth = [], 0
                if block:
                    self.run_block(block)
        if buffer:
            self.run_block("\n".join(buffer))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()


def _build_shell(args) -> Shell | None:
    """Construct the session (local or remote); None + message on failure."""
    if args.connect:
        if args.snapshot or args.save:
            print("error: --snapshot/--save need a local session, "
                  "not --connect", file=sys.stderr)
            return None
        host, __, port_text = args.connect.rpartition(":")
        from repro.server.client import connect

        try:
            client = connect(host or "127.0.0.1", int(port_text))
        except (ValueError, OSError, ReproError) as exc:
            print(f"error: cannot connect to {args.connect}: {exc}",
                  file=sys.stderr)
            return None
        if args.cache:
            client.meta("set", "cache", "on")
        return Shell(client=client, limit=args.limit or None)
    from repro.snapshot import open_database

    try:
        db = open_database(args.snapshot)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if args.cache:
        db.resultcache.enabled = True
    return Shell(db=db, limit=args.limit or None)


def main(argv: list[str] | None = None) -> int:
    """Entry point: run a script file, a pipe, or an interactive session."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="interactive shell for the field-replication DBMS")
    parser.add_argument("script", nargs="?",
                        help="script file to run (default: stdin / interactive)")
    parser.add_argument("--snapshot", metavar="FILE",
                        help="start the session from a snapshot")
    parser.add_argument("--save", metavar="FILE",
                        help="snapshot the session's database on exit")
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="drive a running repro.server instead of a "
                             "local database")
    parser.add_argument("--limit", type=int, default=DEFAULT_ROW_LIMIT,
                        help="rendered-row cap (0: no cap)")
    parser.add_argument("--cache", action="store_true",
                        help="enable the derived-result cache for this "
                             "session (local: flips the database default; "
                             "connected: sends \\set cache on)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    shell = _build_shell(args)
    if shell is None:
        return 1
    try:
        if args.script:
            try:
                with open(args.script, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: cannot read script {args.script!r}: {exc}",
                      file=sys.stderr)
                return 1
            shell.run_block(text)
        elif sys.stdin.isatty():  # pragma: no cover - interactive only
            print("field-replication OODBMS shell -- \\help for help")
            while not shell.done:
                try:
                    first = input(PROMPT)
                except EOFError:
                    break
                lines = [first]
                depth = first.count("(") - first.count(")")
                while depth > 0 or (first.strip() and not first.rstrip().endswith(";")
                                    and not first.strip().startswith("\\")):
                    try:
                        nxt = input(CONTINUATION)
                    except EOFError:
                        break
                    if not nxt.strip() and depth <= 0:
                        break
                    depth += nxt.count("(") - nxt.count(")")
                    lines.append(nxt)
                    first = nxt
                shell.run_block("\n".join(lines))
            shell.errors = 0  # interactive sessions exit clean
        else:
            shell.run_block(sys.stdin.read())
        if args.save and shell.db is not None:
            from repro.snapshot import save_database

            try:
                save_database(shell.db, args.save)
            except (OSError, ReproError) as exc:
                print(f"error: cannot save snapshot: {exc}", file=sys.stderr)
                return 1
        return 1 if shell.errors else 0
    finally:
        shell.close()


if __name__ == "__main__":
    raise SystemExit(main())
