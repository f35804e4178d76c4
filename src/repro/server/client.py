"""The blocking client library.

::

    from repro.server import connect

    with connect("127.0.0.1", 7878) as client:
        result = client.execute("retrieve (Emp1.name, Emp1.dept.name)")
        for row in result.rows:
            print(row)
        print(client.meta("stats"))

``execute`` returns a :class:`ClientResult` for row-producing statements
(shaped like the engine's ``QueryResult`` so ``repro.cli.render_result``
renders either), a plain string for text results (``explain``), and the
detail string for acknowledgements (DDL, ``begin``/``commit``).  Server
errors surface as :class:`~repro.errors.RemoteError` with a stable
``.code`` (``lock_timeout``, ``deadlock``, ``server_busy``, ...).

Cross-process tracing: with ``client.trace_enabled = True`` every
``execute`` mints a ``trace_id``, sends it in the request frame, and
stitches the server's span tree under a local ``client_request`` root
(span id 0); the difference between the root's wall time and the server
``statement`` span is wire time.  Stitched traces are kept on
``client.traces`` (bounded) and the freshest on ``client.last_trace``.

Resilience: ``connect`` takes separate ``connect_timeout`` and
``read_timeout`` bounds, and a transient connection drop (reset, mid-
frame close, read timeout) is retried **once** after a short backoff --
but only for requests that are safe to repeat: reads (``retrieve`` /
``explain``), meta commands, and the status verbs.  Writes, DDL, and
anything inside an explicit transaction are never resent (the server may
have applied them before the drop); those surface the original error.

Read routing: :class:`RoutedClient` fans reads out over replicas
round-robin and transparently falls back to the primary when a replica
answers ``replica_stale`` / ``read_only_replica`` or drops the
connection; writes always go to the primary.
"""

from __future__ import annotations

import itertools
import secrets
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ProtocolError, RemoteError
from repro.server import protocol

#: stitched traces retained per client (oldest dropped first).
_TRACE_KEEP = 64


@dataclass(frozen=True)
class ClientIO:
    """Wire copy of a result's physical I/O counters."""

    physical_reads: int = 0
    physical_writes: int = 0
    total_io: int = 0


@dataclass(frozen=True)
class ClientResult:
    """Rows plus metadata, shaped like the engine's QueryResult."""

    columns: tuple
    rows: list
    plan: str
    io: ClientIO
    #: the stitched span tree when the statement was traced, else None.
    trace: dict | None = field(default=None, compare=False)
    #: result-cache disposition ("hit" | "miss" | "bypass"), or None.
    cache: str | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_wire(cls, result: dict,
                  trace: dict | None = None) -> "ClientResult":
        io = result.get("io") or {}
        return cls(
            columns=tuple(result.get("columns") or ()),
            rows=[tuple(row) for row in result.get("rows") or []],
            plan=result.get("plan", ""),
            io=ClientIO(io.get("reads", 0), io.get("writes", 0),
                        io.get("total", 0)),
            trace=trace,
            cache=result.get("cache"),
        )


#: statement starters a retry can safely repeat (reads only).
_RETRYABLE_STATEMENTS = ("retrieve", "explain")
#: request kinds a retry can safely repeat.
_RETRYABLE_KINDS = ("ping", "stats", "statements", "meta", "repl_status",
                    "promote")


class Client:
    """One blocking connection to a repro server."""

    def __init__(self, sock: socket.socket, session_id: int,
                 host: str | None = None, port: int | None = None,
                 connect_timeout: float | None = None,
                 read_timeout: float | None = None,
                 retry: bool = True, retry_backoff: float = 0.2) -> None:
        self._sock = sock
        self.session_id = session_id
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        #: retry transient connection drops once (idempotent requests only)
        self.retry = retry
        self.retry_backoff = retry_backoff
        self._next_id = 0
        self._closed = False
        self._in_txn = False
        #: when True every execute() mints and propagates a trace_id.
        self.trace_enabled = False
        #: stitched traces, oldest first; each is {"trace_id", "spans"}.
        self.traces: deque = deque(maxlen=_TRACE_KEEP)

    @property
    def last_trace(self) -> dict | None:
        """The most recent stitched trace, or None."""
        return self.traces[-1] if self.traces else None

    # -- plumbing ----------------------------------------------------------

    def _request(self, kind: str, **fields) -> dict:
        if self._closed:
            raise ProtocolError("client is closed")
        try:
            return self._roundtrip(kind, fields)
        except (OSError, ProtocolError):
            if not self._may_retry(kind, fields):
                raise
            # one transparent retry on a fresh connection; anything that
            # fails again surfaces
            time.sleep(self.retry_backoff)
            self._reconnect()
            return self._roundtrip(kind, fields)

    def _roundtrip(self, kind: str, fields: dict) -> dict:
        self._next_id += 1
        request = {"id": self._next_id, "kind": kind, **fields}
        protocol.write_frame(self._sock, request)
        response = protocol.read_frame(self._sock)
        if response.get("id") not in (self._next_id, 0):
            raise ProtocolError(
                f"response id {response.get('id')} for request {self._next_id}")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(error.get("code", "internal_error"),
                              error.get("message", "unknown server error"))
        return response.get("result") or {}

    def _may_retry(self, kind: str, fields: dict) -> bool:
        """Whether a dropped request is safe to resend.

        Never inside an explicit transaction -- the reconnected socket is
        a *new* session, so the old session's locks and txn state are
        gone -- and never for statements that mutate (the server may have
        applied them before the connection died).
        """
        if not self.retry or self._closed or self._in_txn:
            return False
        if self.host is None or self.port is None:
            return False
        if kind in _RETRYABLE_KINDS:
            return True
        if kind == "statement":
            head = (fields.get("statement") or "").strip().split(None, 1)
            return bool(head) and head[0].lower() in _RETRYABLE_STATEMENTS
        return False

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock, self.session_id = _dial(
            self.host, self.port, self.connect_timeout, self.read_timeout)

    # -- API ---------------------------------------------------------------

    def execute(self, statement: str):
        """Run one statement; ClientResult for rows, str otherwise."""
        trace = None
        if self.trace_enabled:
            trace_id = secrets.token_hex(8)
            start_ts = time.time()
            started = time.perf_counter()
            result = self._request("statement", statement=statement,
                                   trace_id=trace_id)
            duration_ms = (time.perf_counter() - started) * 1000.0
            trace = self._stitch_trace(trace_id, statement, result,
                                       start_ts, duration_ms)
            self.traces.append(trace)
        else:
            result = self._request("statement", statement=statement)
        kind = result.get("kind")
        if kind == "rows":
            return ClientResult.from_wire(result, trace=trace)
        if kind == "text":
            return result.get("text", "")
        return result.get("detail", "ok")

    def _stitch_trace(self, trace_id: str, statement: str, result: dict,
                      start_ts: float, duration_ms: float) -> dict:
        """Graft the server's span tree under a local client root.

        The root takes span id 0 (server span ids start at 1, so ids never
        collide) and server roots are re-parented under it; root wall time
        minus the server ``statement`` span is wire time.
        """
        root = {
            "trace_id": trace_id,
            "span_id": 0,
            "parent_id": None,
            "name": "client_request",
            "attrs": {"statement": " ".join(statement.split()),
                      "session_id": self.session_id},
            "start_ts": round(start_ts, 6),
            "duration_ms": round(duration_ms, 3),
            "io": {},
            "self_io": {},
        }
        spans = [root]
        for span in (result.get("trace") or {}).get("spans") or []:
            span = dict(span)
            if span.get("parent_id") is None:
                span["parent_id"] = 0
            spans.append(span)
        return {"trace_id": trace_id, "spans": spans}

    def meta(self, command: str, *args: str) -> str:
        """Run a server-side meta command; returns its rendered text."""
        result = self._request("meta", command=command, args=list(args))
        return result.get("text", "")

    def begin(self) -> None:
        self.execute("begin")
        self._in_txn = True

    def commit(self) -> None:
        try:
            self.execute("commit")
        finally:
            self._in_txn = False

    def abort(self) -> None:
        try:
            self.execute("abort")
        finally:
            self._in_txn = False

    def stats(self) -> dict:
        """Server-level stats (connections, sessions, lock counters)."""
        return self._request("stats").get("stats") or {}

    def statements(self) -> dict:
        """Per-fingerprint statement statistics plus the replication
        ledger (``{"fingerprints": {...}, "ledger": [...]}``)."""
        return self._request("statements").get("statements") or {}

    def cache(self) -> dict:
        """The server's derived-result cache snapshot (entries, bytes,
        hit/miss/invalidation counters, hottest entries)."""
        return self._request("cache").get("cache") or {}

    def ping(self) -> bool:
        return self._request("ping").get("kind") == "pong"

    def replication(self) -> dict:
        """Replication topology / lag as the server reports it."""
        return self._request("repl_status").get("replication") or {}

    def promote(self) -> dict:
        """Promote a follower to primary (errors on a non-replica)."""
        return self._request("promote")

    def shutdown(self) -> str:
        """Ask the server to drain and stop; closes this client too."""
        try:
            result = self._request("shutdown")
            return result.get("text", "")
        finally:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            protocol.write_frame(self._sock, {"id": 0, "kind": "close"})
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _dial(host: str, port: int, connect_timeout: float | None,
          read_timeout: float | None) -> tuple[socket.socket, int]:
    """One handshake-validated connection; returns (socket, session_id)."""
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(read_timeout)
    try:
        hello = protocol.read_frame(sock)
        protocol.check_handshake(hello)
    except BaseException:
        sock.close()
        raise
    return sock, hello.get("session", 0)


def connect(host: str, port: int, timeout: float | None = None,
            connect_timeout: float | None = None,
            read_timeout: float | None = None,
            retry: bool = True, retry_backoff: float = 0.2) -> Client:
    """Open a connection and validate the server's handshake.

    ``connect_timeout`` bounds the dial, ``read_timeout`` bounds every
    response wait (None: block forever); the legacy ``timeout`` argument
    feeds both when the specific one is unset.  Transient connection
    drops are retried once (idempotent requests only; ``retry=False``
    restores fail-fast behavior).
    """
    connect_timeout = timeout if connect_timeout is None else connect_timeout
    read_timeout = timeout if read_timeout is None else read_timeout
    sock, session_id = _dial(host, port, connect_timeout, read_timeout)
    return Client(sock, session_id, host=host, port=port,
                  connect_timeout=connect_timeout, read_timeout=read_timeout,
                  retry=retry, retry_backoff=retry_backoff)


class RoutedClient:
    """Primary plus read replicas behind one ``execute`` surface.

    Reads (``retrieve`` / ``explain``) round-robin over the replicas;
    everything else goes to the primary.  A replica that answers
    ``replica_stale`` / ``read_only_replica``, or whose connection
    drops, is skipped for that read and the primary answers instead --
    the caller never sees the redirect.  Inside an explicit transaction
    every statement pins to the primary (the replicas know nothing of
    this session's locks).
    """

    def __init__(self, primary: tuple[str, int],
                 replicas: list[tuple[str, int]] | None = None,
                 **connect_kwargs) -> None:
        self._connect_kwargs = connect_kwargs
        self._primary_addr = primary
        self._replica_addrs = list(replicas or [])
        self._primary: Client | None = None
        self._replicas: dict[tuple[str, int], Client] = {}
        self._rr = itertools.cycle(range(max(1, len(self._replica_addrs))))
        self._in_txn = False

    # -- connections -------------------------------------------------------

    def primary(self) -> Client:
        if self._primary is None:
            self._primary = connect(*self._primary_addr,
                                    **self._connect_kwargs)
        return self._primary

    def _replica(self, addr: tuple[str, int]) -> Client:
        client = self._replicas.get(addr)
        if client is None:
            client = connect(*addr, **self._connect_kwargs)
            self._replicas[addr] = client
        return client

    # -- routing -----------------------------------------------------------

    def execute(self, statement: str):
        head = statement.strip().split(None, 1)
        first = head[0].lower() if head else ""
        if first == "begin":
            self._in_txn = True
        elif first in ("commit", "abort", "rollback"):
            self._in_txn = False
        if (self._replica_addrs and not self._in_txn
                and first in _RETRYABLE_STATEMENTS):
            addr = self._replica_addrs[next(self._rr)]
            try:
                return self._replica(addr).execute(statement)
            except RemoteError as exc:
                if exc.code not in ("replica_stale", "read_only_replica",
                                    "replica_resync"):
                    raise
            except (OSError, ProtocolError):
                self._replicas.pop(addr, None)
            # stale / refused / gone: the primary always has the truth
        return self.primary().execute(statement)

    def meta(self, command: str, *args: str) -> str:
        return self.primary().meta(command, *args)

    def close(self) -> None:
        for client in [self._primary, *self._replicas.values()]:
            if client is not None:
                client.close()
        self._primary = None
        self._replicas.clear()

    def __enter__(self) -> "RoutedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
