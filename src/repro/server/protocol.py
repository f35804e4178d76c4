"""The wire protocol: length-prefixed, versioned, CRC'd JSON frames.

The server and client exchange *frames* with the same framing discipline
as the write-ahead log's records -- a length, a checksum, then the body
-- so a torn or corrupted frame is detected before any of it is
interpreted::

    frame   := length:u32 crc32:u32 payload
    payload := JSON object, utf-8

The first frame on a connection is the server's **handshake** and carries
``{"v": 1, "magic": "FRNET001", "session": <id>}``; a client that sees a
different magic or protocol version disconnects.  After that, the client
sends request objects and the server answers each with exactly one
response object carrying the same ``id``:

request::

    {"id": 7, "kind": "statement", "statement": "retrieve (Emp1.name)"}
    {"id": 7, "kind": "statement", "statement": "...",
        "trace_id": "9f2c4a1b00d14e55"}   # optional: client-minted trace id
    {"id": 8, "kind": "meta", "command": "describe", "args": []}
    {"id": 9, "kind": "stats" | "statements" | "ping" | "shutdown" | "close"}

response::

    {"id": 7, "ok": true,  "result": {"kind": "rows", "columns": [...],
        "rows": [[...]], "plan": "...", "io": {"reads": r, "writes": w,
        "total": t}}}
    {"id": 7, "ok": true,  "result": {"kind": "ok" | "text", ...}}
    {"id": 7, "ok": false, "error": {"code": "lock_timeout",
        "type": "LockTimeoutError", "message": "..."}}

A traced statement (one that carried ``trace_id``, or ran in a session
that toggled ``\\trace on``) additionally gets ``result["trace"]``::

    {"trace_id": "9f2c4a1b00d14e55", "spans": [<span dict>, ...]}

where each span dict is :meth:`repro.telemetry.tracing.Span.to_dict`
(``span_id`` / ``parent_id`` / ``name`` / ``attrs`` / ``start_ts`` /
``duration_ms`` / ``io`` / ``self_io``); root spans have ``parent_id``
null and the client re-parents them under its own ``client_request``
span (id 0) to form the cross-process tree.  The ``stats`` verb returns
``{"kind": "stats", "stats": {...}}`` -- the server-level snapshot that
feeds ``\\top`` (uptime, sessions, throughput, I/O and hit rate, lock
waits and hottest resources, WAL posture, slow-query tail, statement
fingerprints, replication ledger).  The ``statements`` verb returns
``{"kind": "statements", "statements": {"fingerprints": {...},
"ledger": [...]}}`` -- the full per-fingerprint statement statistics and
the replication ledger (each replicated path's account, priced by the
Section 6 model).

**Replication verbs** carry the WAL-shipping stream between a primary
and its followers (see :mod:`repro.server.replog` /
:mod:`repro.server.replica`)::

    {"id": 1, "kind": "repl_subscribe", "follower": "r1", "after_lsn": 0}
    -> {"kind": "repl_subscribed", "follower_id": 3, "last_lsn": 41,
        "oldest_lsn": 1}
    {"id": 2, "kind": "repl_fetch", "follower_id": 3, "after_lsn": 41,
        "applied_lsn": 41, "max_entries": 256, "wait_s": 0.5}
    -> {"kind": "repl_entries", "entries": [{"lsn": 42, "kind": "dml",
        "note": "...", "frames": "<base64 WAL records>"}], "last_lsn": 42}
    {"id": 3, "kind": "repl_status"}    # topology + per-follower lag
    {"id": 4, "kind": "promote"}        # follower only: become a primary

``repl_fetch`` long-polls up to ``wait_s`` and an empty ``entries``
answer is the heartbeat; the ``applied_lsn`` each fetch carries is the
follower's ack, which the primary's semi-synchronous commit quorum and
shutdown drain wait on.

Structured error codes (``error.code``) are stable strings clients can
dispatch on: ``parse_error``, ``unknown_statement``, ``lock_timeout``,
``deadlock``, ``server_busy``, ``server_shutdown``, ``protocol_error``,
``engine_error``, ``internal_error``, and the replication family:
``replica_stale`` (read rejected: follower lag exceeds the staleness
bound), ``read_only_replica`` (write sent to an un-promoted follower),
``replica_resync`` (follower fell behind the primary's retained log),
``replication_error`` (subscription / stream plumbing failure).
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ParseError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReplicaResyncError,
    ReplicaStaleError,
    ReplicationLinkError,
    ReproError,
    ServerBusyError,
)

#: Protocol magic + version, negotiated in the server's handshake frame.
MAGIC = "FRNET001"
VERSION = 1

#: Frames beyond this are rejected before allocation -- large result sets
#: are legitimate, a gigabyte frame is a corrupted length field.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEAD = struct.Struct(">II")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """Serialize one JSON-object frame (length + crc32 + payload)."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _HEAD.pack(len(payload), zlib.crc32(payload)) + payload


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if chunks or what == "frame payload":
                raise ProtocolError(
                    f"connection closed mid-frame ({n - remaining} of {n} "
                    f"byte(s) of {what})")
            raise ConnectionResetError("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict:
    """Read one frame; raises ProtocolError on any framing damage and
    ConnectionResetError on a clean close between frames."""
    length, crc = _HEAD.unpack(_recv_exact(sock, _HEAD.size, "frame header"))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"implausible frame length {length} (limit {MAX_FRAME_BYTES})")
    payload = _recv_exact(sock, length, "frame payload")
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame checksum mismatch")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return obj


def write_frame(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_frame(obj))


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


def handshake(session_id: int) -> dict:
    return {"v": VERSION, "magic": MAGIC, "session": session_id}


def check_handshake(obj: dict) -> None:
    """Validate the server's handshake (client side)."""
    if obj.get("ok") is False:
        error = obj.get("error") or {}
        from repro.errors import RemoteError

        raise RemoteError(error.get("code", "internal_error"),
                          error.get("message", "connection rejected"))
    if obj.get("magic") != MAGIC or obj.get("v") != VERSION:
        raise ProtocolError(
            f"not a repro server (handshake {obj!r}; expected magic "
            f"{MAGIC!r} v{VERSION})")


def ok_response(request_id: int, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


#: exception type -> stable wire error code.
_ERROR_CODES = (
    (LockTimeoutError, "lock_timeout"),
    (DeadlockError, "deadlock"),
    (ServerBusyError, "server_busy"),
    (ProtocolError, "protocol_error"),
    (ParseError, "parse_error"),
    (ReplicaStaleError, "replica_stale"),
    (ReadOnlyReplicaError, "read_only_replica"),
    (ReplicaResyncError, "replica_resync"),
    (ReplicationLinkError, "replication_error"),
    (ReproError, "engine_error"),
)


def error_code_for(exc: BaseException) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal_error"


def error_response(request_id: int, exc: BaseException,
                   code: str | None = None) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "code": code or error_code_for(exc),
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


def json_safe(value):
    """Coerce a result-row value to something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
