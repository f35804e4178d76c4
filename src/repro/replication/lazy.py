"""Deferred (lazy) propagation.

The paper's future-work list includes "replication techniques in which
updates are not propagated until needed" (Section 8).  This module
implements that variant for in-place paths:

* when a source-side value changes, the eager closure traversal is
  replaced by a single small append to the path's *pending log* -- the OID
  of the terminal-side object whose subtree is now stale;
* the next reader of the path's replicated data (or an explicit
  ``refresh``) drains the log and performs the propagation once, however
  many updates accumulated.

The pending log lives in its own heap file so the deferred work is
physically accounted for (one small record per invalidation); an in-memory
mirror keeps duplicate invalidations free.
"""

from __future__ import annotations

from repro.replication.spec import ReplicationPath
from repro.storage.heapfile import RID
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


class LazyQueue:
    """Per-path pending-invalidation logs."""

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        self._pending: dict[int, dict[OID, RID]] = {}

    def register(self, path: ReplicationPath) -> None:
        """Create the pending log for a lazy path."""
        self.storage.create_file(self._file_name(path))
        self._pending[path.path_id] = {}

    def unregister(self, path: ReplicationPath) -> None:
        """Drop the pending log."""
        self.storage.drop_file(self._file_name(path))
        self._pending.pop(path.path_id, None)

    def invalidate(self, path: ReplicationPath, owner_oid: OID) -> None:
        """Queue the subtree under ``owner_oid`` for refresh (idempotent)."""
        pending = self._pending[path.path_id]
        if owner_oid in pending:
            return
        heap = self.storage.file(self._file_name(path))
        pending[owner_oid] = heap.insert(owner_oid.pack())

    def drain(self, path: ReplicationPath) -> list[OID]:
        """Pop all pending owners, clearing the log; sorted for clustering."""
        pending = self._pending.get(path.path_id, {})
        heap = self.storage.file(self._file_name(path))
        owners = sorted(pending)
        for rid in pending.values():
            heap.delete(rid)
        self._pending[path.path_id] = {}
        return owners

    def reload(self, path: ReplicationPath) -> None:
        """Rebuild the in-memory mirror from the persisted pending log
        (used when a snapshot is loaded)."""
        heap = self.storage.file(self._file_name(path))
        self._pending[path.path_id] = {
            OID.unpack(body): rid for rid, body in heap.scan()
        }

    def pending_count(self, path: ReplicationPath) -> int:
        """How many stale subtrees are queued."""
        return len(self._pending.get(path.path_id, {}))

    @staticmethod
    def _file_name(path: ReplicationPath) -> str:
        return f"__lazy{path.path_id}_{path.source_set}"
