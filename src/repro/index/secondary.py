"""Secondary indexes: field-value -> OID mappings over a B+-tree.

A :class:`SecondaryIndex` indexes one (possibly hidden / replicated) field
of one set.  Non-unique field values are handled with *composite keys*: the
encoded field value suffixed by the entry's packed OID, so every tree key
is unique and equal values cluster contiguously in key order.

Whether an index is *clustered* is a property of the indexed file, not of
the tree: a clustered index is one whose key order matches the file's
physical order (the paper's second analysis setting).  The flag is carried
here so the planner and the cost model can reason about it.
"""

from __future__ import annotations

from typing import Iterator

from repro.index.btree import BPlusTree
from repro.index.keycodec import (
    MAX_OID_SUFFIX,
    MIN_OID_SUFFIX,
    decode_key,
    encode_key,
    key_width_for,
)
from repro.objects.types import FieldDef
from repro.storage.buffer import BufferPool
from repro.storage.oid import OID
from repro.telemetry.metrics import NULL_METRICS


class SecondaryIndex:
    """An index on one field of one set."""

    def __init__(self, name: str, pool: BufferPool, file_id: int,
                 field: FieldDef, set_name: str, clustered: bool = False,
                 metrics=None) -> None:
        self.name = name
        self.field = field
        self.set_name = set_name
        self.clustered = clustered
        self.value_width = key_width_for(field)
        self.tree = BPlusTree(pool, file_id, self.value_width + 8)
        # Running catalog statistics for the (opt-in) cost-based planner.
        # The count is exact; min/max only ever widen (standard stale-stats
        # behaviour: deletes do not shrink them).
        self.stat_count = 0
        self.stat_min = None
        self.stat_max = None
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Resolve this index's counters in ``metrics`` (also used when an
        index is reconstructed outside ``__init__``, e.g. snapshot restore)."""
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_lookups = metrics.counter(
            "index_lookups_total", "exact-match index probes")
        self._m_range_scans = metrics.counter(
            "index_range_scans_total", "index range scans started")
        self._m_inserts = metrics.counter(
            "index_inserts_total", "index entry inserts")
        self._m_deletes = metrics.counter(
            "index_deletes_total", "index entry deletes")

    # -- maintenance --------------------------------------------------------

    def insert(self, value, oid: OID) -> None:
        """Add an entry for ``oid`` under ``value``."""
        self._m_inserts.inc(index=self.name)
        self.tree.insert(self._composite(value, oid), oid)
        self._note_value(value)
        self.stat_count += 1

    def delete(self, value, oid: OID) -> bool:
        """Remove the entry for ``(value, oid)``; returns presence."""
        self._m_deletes.inc(index=self.name)
        removed = self.tree.delete(self._composite(value, oid))
        if removed:
            self.stat_count -= 1
        return removed

    def _note_value(self, value) -> None:
        if self.stat_min is None or value < self.stat_min:
            self.stat_min = value
        if self.stat_max is None or value > self.stat_max:
            self.stat_max = value

    def update(self, old_value, new_value, oid: OID) -> None:
        """Move ``oid`` from ``old_value`` to ``new_value``."""
        if old_value == new_value:
            return
        self.delete(old_value, oid)
        self.insert(new_value, oid)

    def bulk_load(self, pairs) -> None:
        """Build the (empty) index bottom-up from ``(value, oid)`` pairs.

        The pairs may arrive in any order; they are sorted by composite key
        here so every tree page is written exactly once.
        """
        pairs = list(pairs)
        self._m_inserts.inc(len(pairs), index=self.name)
        entries = sorted(
            (self._composite(value, oid), oid) for value, oid in pairs
        )
        self.tree.bulk_fill(iter(entries))
        for value, __oid in pairs:
            self._note_value(value)
        self.stat_count += len(pairs)

    # -- lookups ------------------------------------------------------------

    def lookup(self, value) -> list[OID]:
        """All OIDs stored under exactly ``value``."""
        self._m_lookups.inc(index=self.name)
        prefix = encode_key(self.field, value)
        return [
            oid
            for __, oid in self.tree.range_scan(
                prefix + MIN_OID_SUFFIX, prefix + MAX_OID_SUFFIX
            )
        ]

    def range(self, lo=None, hi=None, include_hi: bool = True) -> Iterator[tuple[object, OID]]:
        """Yield ``(value, oid)`` for lo <= value (<=|<) hi, in value order."""
        keys = self.range_keys(lo, hi, hi_strict=not include_hi)
        field, width = self.field, self.value_width
        return ((decode_key(field, key[:width]), oid)
                for key, oid in self.tree.range_scan(*keys))

    def range_keys(self, lo=None, hi=None, lo_strict: bool = False,
                   hi_strict: bool = False) -> tuple[bytes | None, bytes | None, bool]:
        """Start a range scan over ``lo`` (<|<=) value (<|<=) ``hi``: the
        ``(lo, hi, include_hi)`` composite-key bounds to hand
        :meth:`BPlusTree.range_scan`.  Counts the scan.

        Both strict bounds are folded into the keys: the largest composite
        a value can have (real OID suffixes are always smaller) bounds an
        exclusive ``lo`` from below, the smallest one (real suffixes are
        always larger) an exclusive ``hi`` from above.
        """
        self._m_range_scans.inc(index=self.name)
        lo_key = None
        if lo is not None:
            lo_key = encode_key(self.field, lo) + (
                MAX_OID_SUFFIX if lo_strict else MIN_OID_SUFFIX)
        if hi is None:
            return lo_key, None, True
        if hi_strict:
            return lo_key, encode_key(self.field, hi) + MIN_OID_SUFFIX, False
        return lo_key, encode_key(self.field, hi) + MAX_OID_SUFFIX, True

    def items(self) -> Iterator[tuple[object, OID]]:
        """All entries in value order."""
        return self.range()

    def rebuild_stats(self) -> None:
        """Recompute the running statistics with one leaf-chain walk (used
        after snapshot load and crash recovery, when the in-memory numbers
        no longer describe the on-disk tree)."""
        self.stat_count = 0
        self.stat_min = None
        self.stat_max = None
        for value, __oid in self.items():
            self.stat_count += 1
            if self.stat_min is None:
                self.stat_min = value
            self.stat_max = value

    def count(self) -> int:
        """Number of entries."""
        return self.tree.count()

    @property
    def height(self) -> int:
        """Current height of the underlying tree."""
        return self.tree.height

    def _composite(self, value, oid: OID) -> bytes:
        return encode_key(self.field, value) + oid.pack()
