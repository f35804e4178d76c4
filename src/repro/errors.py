"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subclasses are grouped by the
layer that raises them (storage, objects, schema, replication, query, cost
model) which keeps ``except`` clauses precise without importing the guts of
each layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# storage layer
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-engine errors."""


class PageFullError(StorageError):
    """A record did not fit in the target page."""


class RecordNotFoundError(StorageError):
    """A (page, slot) address does not hold a live record."""


class FileNotFoundInStoreError(StorageError):
    """An operation referenced a file id unknown to the disk."""


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (e.g. all pages pinned)."""


class RecordTooLargeError(StorageError):
    """A record exceeds the maximum payload a page can hold."""


class DiskFault(StorageError):
    """An injected disk failure (crash, torn write, or hard read error)."""


class WalError(StorageError):
    """The write-ahead log was malformed or misused."""


class SnapshotError(StorageError):
    """A snapshot file could not be written or read back."""


# --------------------------------------------------------------------------
# object layer
# --------------------------------------------------------------------------

class ObjectError(ReproError):
    """Base class for object-layer errors."""


class TypeDefinitionError(ObjectError):
    """An invalid type definition (duplicate fields, bad field kind...)."""


class FieldError(ObjectError):
    """A field name or value did not match the object's type."""


class SerializationError(ObjectError):
    """An object could not be encoded to / decoded from bytes."""


class DanglingReferenceError(ObjectError):
    """An OID dereference found no live object."""


# --------------------------------------------------------------------------
# schema / catalog layer
# --------------------------------------------------------------------------

class SchemaError(ReproError):
    """Base class for schema and catalog errors."""


class UnknownTypeError(SchemaError):
    """A type name is not in the catalog."""


class UnknownSetError(SchemaError):
    """A set name is not in the catalog."""


class UnknownIndexError(SchemaError):
    """An index name is not in the catalog."""


class InvalidPathError(SchemaError):
    """A reference path does not resolve against the schema."""


class DuplicateNameError(SchemaError):
    """A type / set / index name is already taken."""


class ParseError(SchemaError):
    """The DDL / query text parser rejected its input."""


# --------------------------------------------------------------------------
# replication layer
# --------------------------------------------------------------------------

class ReplicationError(ReproError):
    """Base class for replication errors."""


class DuplicateReplicationPathError(ReplicationError):
    """The same path was replicated twice on one set."""


class UnknownReplicationPathError(ReplicationError):
    """An operation referenced a replication path that does not exist."""


class IntegrityError(ReplicationError):
    """A consistency invariant between replicas and sources was violated.

    Raised by :meth:`repro.replication.manager.ReplicationManager.verify`,
    never during normal operation.
    """


# --------------------------------------------------------------------------
# query layer
# --------------------------------------------------------------------------

class QueryError(ReproError):
    """Base class for query compilation / execution errors."""


class PlanningError(QueryError):
    """The planner could not build a plan for a statement."""


# --------------------------------------------------------------------------
# cost model
# --------------------------------------------------------------------------

class CostModelError(ReproError):
    """Invalid parameters handed to the analytical cost model."""


# --------------------------------------------------------------------------
# server layer
# --------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for client/server-layer errors."""


class ProtocolError(ServerError):
    """A wire frame was malformed (bad CRC, truncation, oversize, version)."""


class ServerBusyError(ServerError):
    """The server refused work: its connection limit is reached."""


class LockError(ServerError):
    """Base class for lock-manager errors."""


class LockTimeoutError(LockError):
    """A lock request waited longer than the configured lock-wait timeout."""


class DeadlockError(LockError):
    """This transaction was chosen as the victim of a lock cycle."""


class ReplicationLinkError(ServerError):
    """The replication link between a primary and a follower failed
    (subscription rejected, fetch timed out, stream out of order)."""


class ReplicaStaleError(ServerError):
    """A read was rejected because the replica's applied LSN lags the
    primary by more than the configured staleness bound."""

    def __init__(self, message: str, lag: int = 0, bound: int = 0) -> None:
        super().__init__(message)
        self.lag = lag
        self.bound = bound


class ReadOnlyReplicaError(ServerError):
    """A write statement was sent to an un-promoted read replica."""


class ReplicaResyncError(ServerError):
    """A follower asked for LSNs the primary's replication log no longer
    retains; the follower must be re-seeded from a fresh snapshot."""


class RemoteError(ServerError):
    """A structured error returned by a server to a client.

    ``code`` is the machine-readable error code from the wire frame
    (``lock_timeout``, ``deadlock``, ``server_busy``, ``parse_error``, ...).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
