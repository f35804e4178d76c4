"""``repro.server``: the multi-client server layer.

The engine itself (:class:`repro.schema.database.Database`) is a single
in-process session.  This package turns it into a multi-client database
whose statements run one at a time inside the engine
(:mod:`repro.server.admission`):

* :mod:`repro.server.protocol` -- the length-prefixed, CRC'd JSON frame
  format both sides speak (the WAL's record discipline, on a wire);
* :mod:`repro.server.locks`    -- a set-granularity reader-writer lock
  manager; a statement's footprint is computed *before* execution from
  its plan plus the replication catalog, and lock cycles are broken by a
  wait-for-graph deadlock detector that aborts the youngest waiter;
* :mod:`repro.server.session`  -- per-connection session state; a
  session's statements run on its connection's thread;
* :mod:`repro.server.service`  -- the threaded TCP server
  (``python -m repro.server --port ...``) with admission control and
  graceful drain;
* :mod:`repro.server.client`   -- the blocking client library the shell's
  ``--connect host:port`` flag reuses; mints trace ids and stitches the
  server's span trees under a local ``client_request`` root;
* :mod:`repro.server.httpexpo` -- the HTTP observability sidecar
  (``--metrics-port N``): Prometheus /metrics, JSON /health and /slow;
* :mod:`repro.server.top`      -- the live dashboard over the ``stats``
  verb (``python -m repro.server.top --connect host:port``, or ``\\top``
  in a connected shell).
"""

from repro.server.client import Client, ClientResult, RoutedClient, connect
from repro.server.httpexpo import MetricsHTTPServer
from repro.server.locks import LockFootprint, LockManager, footprint_for_statement
from repro.server.replog import ReplicationHub, ReplicationLog
from repro.server.service import Server
from repro.server.session import Session, SessionManager

__all__ = [
    "Client",
    "ClientResult",
    "connect",
    "LockFootprint",
    "LockManager",
    "MetricsHTTPServer",
    "ReplicationHub",
    "ReplicationLog",
    "RoutedClient",
    "footprint_for_statement",
    "Server",
    "Session",
    "SessionManager",
]
