"""A disk-based B+-tree.

The tree lives in one heap-less paged file accessed through the buffer
pool, so every node touched is charged I/O exactly like data pages are --
which is what lets the empirical benchmarks count "reading the index on
field_r" the way the analytical model does.

Layout
------
* Page 0 is the **meta page**: root page number, tree height, key width.
* Every other page is a node::

      header  (8 bytes): is_leaf(1) | n_keys(2) | link(4) | pad(1)
      entries (fixed width, sorted by key):
          leaf:     key | value(8)       -- value is a packed OID
          internal: key | child(4)

  For leaves ``link`` is the next-leaf pointer (sibling chain for range
  scans); for internal nodes it holds the leftmost child, so a node with
  *n* keys has *n + 1* children.

Keys are fixed-width byte strings (see :mod:`repro.index.keycodec`).
Duplicate logical keys are supported by suffixing the key with the value's
OID (*composite keys*) at the :class:`~repro.index.secondary.SecondaryIndex`
level; the raw tree requires unique byte-string keys.

Reads (:meth:`BPlusTree.search`, :meth:`BPlusTree.range_scan`) work on the
pinned page itself: a descent bisects the node's key slices, about
log2(n) of them per node, and a leaf slices out only the entries the read
returns.  :class:`_Node`, a node decoded whole, is the write path's image
of a page: insertion, deletion and rebalancing edit it and write it back.

Deletion rebalances: underfull nodes borrow from a sibling or merge with
one, and the root collapses as the tree shrinks, so delete-heavy workloads
keep nodes at least half full.  (Merged-away pages are not recycled; a
free-page list would be the natural next step.)
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.constants import PAGE_SIZE
from repro.storage.oid import OID

_NODE_HEADER = struct.Struct(">BHIx")
_META = struct.Struct(">IHB")
_NO_LINK = 0xFFFFFFFF
_CHILD = struct.Struct(">I")

NODE_HEADER_BYTES = _NODE_HEADER.size
VALUE_BYTES = 8  # packed OID


def _bisect_left(raw, key: bytes, lo: int, hi: int, entry: int,
                 width: int) -> int:
    """The first entry index in ``[lo, hi)`` of the node image ``raw``
    whose key is ``>= key`` (``hi`` if none): :func:`bisect.bisect_left`
    over the page's key slices."""
    while lo < hi:
        mid = (lo + hi) >> 1
        pos = NODE_HEADER_BYTES + mid * entry
        if raw[pos:pos + width] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right(raw, key: bytes, lo: int, hi: int, entry: int,
                  width: int) -> int:
    """The first entry index in ``[lo, hi)`` whose key is ``> key``."""
    while lo < hi:
        mid = (lo + hi) >> 1
        pos = NODE_HEADER_BYTES + mid * entry
        if key < raw[pos:pos + width]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _Node:
    """A node decoded whole from its page: the write path's image, which
    insertion, deletion and rebalancing edit and write back."""

    __slots__ = ("page_no", "is_leaf", "link", "keys", "payloads")

    def __init__(self, page_no: int, is_leaf: bool, link: int,
                 keys: list[bytes], payloads: list[bytes]) -> None:
        self.page_no = page_no
        self.is_leaf = is_leaf
        self.link = link
        self.keys = keys
        self.payloads = payloads  # leaf: values; internal: packed child ids


class BPlusTree:
    """A B+-tree over fixed-width byte-string keys."""

    def __init__(self, pool: BufferPool, file_id: int, key_width: int,
                 _open_existing: bool = False) -> None:
        if key_width < 1:
            raise StorageError("key width must be positive")
        self.pool = pool
        self.file_id = file_id
        self.key_width = key_width
        self._leaf_entry = key_width + VALUE_BYTES
        self._internal_entry = key_width + _CHILD.size
        avail = PAGE_SIZE - NODE_HEADER_BYTES
        #: max entries per node kind
        self.leaf_capacity = avail // self._leaf_entry
        self.internal_capacity = avail // self._internal_entry
        if self.leaf_capacity < 3 or self.internal_capacity < 3:
            raise StorageError(f"key width {key_width} too large for a page")
        if _open_existing:
            self.root_page, stored_width, self.height = self._read_meta()
            if stored_width != key_width:
                raise StorageError(
                    f"index stores {stored_width}-byte keys, opened with {key_width}"
                )
        else:
            # page 0 = meta, page 1 = empty root leaf
            meta_no = self.pool.disk.allocate_page(file_id)
            assert meta_no == 0
            root_no = self.pool.disk.allocate_page(file_id)
            self.root_page = root_no
            self.height = 1
            self._write_node(_Node(root_no, True, _NO_LINK, [], []))
            self._write_meta()

    @classmethod
    def open(cls, pool: BufferPool, file_id: int, key_width: int) -> "BPlusTree":
        """Re-open a tree persisted in ``file_id``."""
        return cls(pool, file_id, key_width, _open_existing=True)

    def reopen_meta(self) -> None:
        """Re-read the cached root/height after rollback or recovery
        rewrote this tree's pages underneath the session."""
        self.root_page, __, self.height = self._read_meta()

    @classmethod
    def bulk_load(cls, pool: BufferPool, file_id: int, key_width: int,
                  items, fill_factor: float = 0.9) -> "BPlusTree":
        """Build a tree bottom-up from ``items`` sorted by key.

        Far cheaper than repeated inserts (every page is written exactly
        once) and produces tightly packed, physically sequential leaves --
        the layout a freshly built index should have.  ``items`` yields
        ``(key, OID)`` pairs in strictly ascending key order.
        """
        tree = cls(pool, file_id, key_width)
        tree.bulk_fill(items, fill_factor)
        return tree

    def bulk_fill(self, items, fill_factor: float = 0.9) -> None:
        """Fill an *empty* tree bottom-up from sorted ``items``."""
        tree = self
        if not 0.1 <= fill_factor <= 1.0:
            raise StorageError("fill factor must be in [0.1, 1.0]")
        if tree.height != 1 or next(tree.items(), None) is not None:
            raise StorageError("bulk fill requires an empty tree")
        per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
        per_node = max(2, int(tree.internal_capacity * fill_factor))
        # --- leaves ---------------------------------------------------
        level: list[tuple[bytes, int]] = []  # (first key, page_no)
        batch_keys: list[bytes] = []
        batch_vals: list[bytes] = []
        prev_key: bytes | None = None
        prev_leaf: _Node | None = None

        def flush_leaf() -> None:
            nonlocal prev_leaf
            if not batch_keys:
                return
            page_no = tree._allocate_node()
            node = _Node(page_no, True, _NO_LINK, list(batch_keys), list(batch_vals))
            if prev_leaf is not None:
                prev_leaf.link = page_no
                tree._write_node(prev_leaf)
            tree._write_node(node)
            level.append((batch_keys[0], page_no))
            prev_leaf = node
            batch_keys.clear()
            batch_vals.clear()

        count = 0
        for key, value in items:
            tree._check_key(key)
            if prev_key is not None and key <= prev_key:
                raise StorageError("bulk load requires strictly ascending keys")
            prev_key = key
            batch_keys.append(key)
            batch_vals.append(value.pack())
            count += 1
            if len(batch_keys) >= per_leaf:
                flush_leaf()
        flush_leaf()
        if not level:
            return  # empty input: keep the fresh empty root
        # --- internal levels --------------------------------------------
        height = 1
        while len(level) > 1:
            groups = [
                level[start:start + per_node + 1]
                for start in range(0, len(level), per_node + 1)
            ]
            if len(groups) > 1 and len(groups[-1]) == 1:
                # rebalance: a single-child internal node has no separator
                # key, which deletion's rebalancing cannot handle
                groups[-1].insert(0, groups[-2].pop())
            next_level: list[tuple[bytes, int]] = []
            for group in groups:
                page_no = tree._allocate_node()
                node = _Node(
                    page_no, False, group[0][1],
                    [key for key, __ in group[1:]],
                    [_CHILD.pack(child) for __, child in group[1:]],
                )
                tree._write_node(node)
                next_level.append((group[0][0], page_no))
            level = next_level
            height += 1
        tree.root_page = level[0][1]
        tree.height = height
        tree._write_meta()

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: OID) -> None:
        """Insert a unique key.  Duplicate keys raise :class:`StorageError`."""
        self._check_key(key)
        split = self._insert(self.root_page, self.height, key, value.pack())
        if split is not None:
            sep_key, right_page = split
            new_root = self._allocate_node()
            node = _Node(new_root, False, self.root_page, [sep_key],
                         [_CHILD.pack(right_page)])
            self._write_node(node)
            self.root_page = new_root
            self.height += 1
            self._write_meta()

    def search(self, key: bytes) -> OID | None:
        """Exact lookup; returns the stored OID or None."""
        self._check_key(key)
        width, entry = self.key_width, self._leaf_entry
        page_no = self._leaf_for(key)
        with self.pool.page(self.file_id, page_no) as page:
            raw = page.data
            n_keys = self._leaf_header(raw, page_no)[0]
            idx = _bisect_left(raw, key, 0, n_keys, entry, width)
            pos = NODE_HEADER_BYTES + idx * entry
            if idx < n_keys and raw[pos:pos + width] == key:
                return OID.unpack(raw, pos + width)
        return None

    def delete(self, key: bytes) -> bool:
        """Remove a key; returns whether it was present.

        Underfull nodes borrow from a sibling or merge with one, and the
        root collapses when it empties -- the full B+-tree deletion
        algorithm, so heavy delete workloads keep the tree compact.
        """
        self._check_key(key)
        found = self._delete(self.root_page, key)
        if not found:
            return False
        root = self._read_node(self.root_page)
        if not root.is_leaf and not root.keys:
            self.root_page = root.link  # the lone surviving child
            self.height -= 1
            self._write_meta()
        return True

    def _delete(self, page_no: int, key: bytes) -> bool:
        node = self._read_node(page_no)
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                return False
            del node.keys[idx]
            del node.payloads[idx]
            self._write_node(node)
            return True
        ci = bisect.bisect_right(node.keys, key)
        if not self._delete(self._child(node, ci), key):
            return False
        self._rebalance_child(node, ci)
        return True

    # -- rebalancing internals ----------------------------------------------

    @staticmethod
    def _child(node: _Node, i: int) -> int:
        return node.link if i == 0 else _CHILD.unpack(node.payloads[i - 1])[0]

    def _min_keys(self, node: _Node) -> int:
        capacity = self.leaf_capacity if node.is_leaf else self.internal_capacity
        return capacity // 2

    def _rebalance_child(self, parent: _Node, ci: int) -> None:
        child = self._read_node(self._child(parent, ci))
        if len(child.keys) >= self._min_keys(child):
            return
        if ci > 0:
            left = self._read_node(self._child(parent, ci - 1))
            if len(left.keys) > self._min_keys(left):
                self._borrow_from_left(parent, ci, left, child)
                return
        if ci < len(parent.keys):
            right = self._read_node(self._child(parent, ci + 1))
            if len(right.keys) > self._min_keys(right):
                self._borrow_from_right(parent, ci, child, right)
                return
        if ci > 0:
            self._merge(parent, ci - 1)
        else:
            self._merge(parent, ci)

    def _borrow_from_left(self, parent: _Node, ci: int, left: _Node,
                          child: _Node) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.payloads.insert(0, left.payloads.pop())
            parent.keys[ci - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[ci - 1])
            child.payloads.insert(0, _CHILD.pack(child.link))
            child.link = _CHILD.unpack(left.payloads.pop())[0]
            parent.keys[ci - 1] = left.keys.pop()
        self._write_node(left)
        self._write_node(child)
        self._write_node(parent)

    def _borrow_from_right(self, parent: _Node, ci: int, child: _Node,
                           right: _Node) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.payloads.append(right.payloads.pop(0))
            parent.keys[ci] = right.keys[0]
        else:
            child.keys.append(parent.keys[ci])
            child.payloads.append(_CHILD.pack(right.link))
            right.link = _CHILD.unpack(right.payloads.pop(0))[0]
            parent.keys[ci] = right.keys.pop(0)
        self._write_node(right)
        self._write_node(child)
        self._write_node(parent)

    def _merge(self, parent: _Node, li: int) -> None:
        """Merge child ``li + 1`` into child ``li`` (its left sibling)."""
        left = self._read_node(self._child(parent, li))
        right = self._read_node(self._child(parent, li + 1))
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.payloads.extend(right.payloads)
            left.link = right.link
        else:
            left.keys.append(parent.keys[li])
            left.keys.extend(right.keys)
            left.payloads.append(_CHILD.pack(right.link))
            left.payloads.extend(right.payloads)
        del parent.keys[li]
        del parent.payloads[li]  # drops the pointer to the right child
        self._write_node(left)
        self._write_node(parent)
        # the right node's page becomes garbage (no free-page recycling)

    def range_scan(self, lo: bytes | None = None, hi: bytes | None = None,
                   include_hi: bool = True) -> Iterator[tuple[bytes, OID]]:
        """Yield ``(key, value)`` with lo <= key (<=|<) hi, in key order.

        ``lo``/``hi`` may be shorter than the key width, acting as prefixes
        (``lo`` is right-padded with 0x00, ``hi`` with 0xFF when inclusive).

        Each leaf is pinned once: the entries in range are sliced out under
        the pin and yielded after it is released, so a scan abandoned
        part-way holds no pin.  The next leaf is pinned only when the
        caller asks past the last entry of this one.
        """
        width, entry = self.key_width, self._leaf_entry
        lo_full = (lo or b"").ljust(width, b"\x00")
        bound = None if hi is None else \
            hi.ljust(width, b"\xff" if include_hi else b"\x00")
        # first entry past the bound: > an inclusive one, >= an exclusive one
        past = _bisect_right if include_hi else _bisect_left
        page_no = self._leaf_for(lo_full)
        start_key = lo_full  # only the first leaf holds keys below lo
        while True:
            with self.pool.page(self.file_id, page_no) as page:
                raw = page.data
                n_keys, link = self._leaf_header(raw, page_no)
                start = 0 if start_key is None else \
                    _bisect_left(raw, start_key, 0, n_keys, entry, width)
                stop = n_keys if bound is None else \
                    past(raw, bound, start, n_keys, entry, width)
                hits = [(bytes(raw[pos:pos + width]), OID.unpack(raw, pos + width))
                        for pos in range(NODE_HEADER_BYTES + start * entry,
                                         NODE_HEADER_BYTES + stop * entry, entry)]
            yield from hits
            if stop < n_keys or link == _NO_LINK:
                return
            page_no, start_key = link, None

    def items(self) -> Iterator[tuple[bytes, OID]]:
        """All entries in key order."""
        return self.range_scan()

    def count(self) -> int:
        """Number of entries (walks the leaf chain)."""
        return sum(1 for __ in self.items())

    def clear(self) -> None:
        """Reset to an empty one-leaf tree (old pages become garbage)."""
        root_no = self._allocate_node()
        self._write_node(_Node(root_no, True, _NO_LINK, [], []))
        self.root_page = root_no
        self.height = 1
        self._write_meta()

    def num_pages(self) -> int:
        """Pages allocated to the index file (meta + nodes, incl. garbage)."""
        return self.pool.disk.num_pages(self.file_id)

    # ------------------------------------------------------------------
    # insertion internals
    # ------------------------------------------------------------------

    def _insert(self, page_no: int, level: int, key: bytes,
                value: bytes) -> tuple[bytes, int] | None:
        node = self._read_node(page_no)
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                raise StorageError(f"duplicate key {key!r}")
            node.keys.insert(idx, key)
            node.payloads.insert(idx, value)
            if len(node.keys) <= self.leaf_capacity:
                self._write_node(node)
                return None
            return self._split_leaf(node)
        # internal
        idx = bisect.bisect_right(node.keys, key)
        child = node.link if idx == 0 else _CHILD.unpack(node.payloads[idx - 1])[0]
        split = self._insert(child, level - 1, key, value)
        if split is None:
            return None
        sep_key, right_page = split
        idx = bisect.bisect_right(node.keys, sep_key)
        node.keys.insert(idx, sep_key)
        node.payloads.insert(idx, _CHILD.pack(right_page))
        if len(node.keys) <= self.internal_capacity:
            self._write_node(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> tuple[bytes, int]:
        mid = len(node.keys) // 2
        right_no = self._allocate_node()
        right = _Node(right_no, True, node.link, node.keys[mid:], node.payloads[mid:])
        node.keys = node.keys[:mid]
        node.payloads = node.payloads[:mid]
        node.link = right_no
        self._write_node(right)
        self._write_node(node)
        return right.keys[0], right_no

    def _split_internal(self, node: _Node) -> tuple[bytes, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right_no = self._allocate_node()
        # right child0 = the child just after the separator
        right_link = _CHILD.unpack(node.payloads[mid])[0]
        right = _Node(right_no, False, right_link,
                      node.keys[mid + 1:], node.payloads[mid + 1:])
        node.keys = node.keys[:mid]
        node.payloads = node.payloads[:mid]
        self._write_node(right)
        self._write_node(node)
        return sep_key, right_no

    # ------------------------------------------------------------------
    # node / page I/O
    # ------------------------------------------------------------------

    def _leaf_for(self, key: bytes) -> int:
        """The page number of the leaf whose key range holds ``key``.  Each
        internal node on the way down is pinned once and bisected where it
        lies; the leaf is left for the caller to pin."""
        page_no = self.root_page
        width, entry = self.key_width, self._internal_entry
        for __ in range(self.height - 1):
            with self.pool.page(self.file_id, page_no) as page:
                raw = page.data
                __, n_keys, link = _NODE_HEADER.unpack_from(raw, 0)
                idx = _bisect_right(raw, key, 0, n_keys, entry, width)
                page_no = link if idx == 0 else _CHILD.unpack_from(
                    raw, NODE_HEADER_BYTES + (idx - 1) * entry + width)[0]
        return page_no

    def _leaf_header(self, raw, page_no: int) -> tuple[int, int]:
        """``(n_keys, link)`` of the pinned leaf image ``raw``."""
        is_leaf, n_keys, link = _NODE_HEADER.unpack_from(raw, 0)
        if not is_leaf:
            raise StorageError(
                f"index page {page_no} is not a leaf at tree height {self.height}")
        return n_keys, link

    def _allocate_node(self) -> int:
        page_no, __ = self.pool.new_page(self.file_id)
        self.pool.unpin(self.file_id, page_no)
        return page_no

    def _read_node(self, page_no: int) -> _Node:
        with self.pool.page(self.file_id, page_no) as page:
            raw = page.data
            is_leaf, n_keys, link = _NODE_HEADER.unpack_from(raw, 0)
            entry = self._leaf_entry if is_leaf else self._internal_entry
            payload_w = VALUE_BYTES if is_leaf else _CHILD.size
            keys = []
            payloads = []
            pos = NODE_HEADER_BYTES
            for __ in range(n_keys):
                keys.append(bytes(raw[pos:pos + self.key_width]))
                payloads.append(bytes(raw[pos + self.key_width:pos + self.key_width + payload_w]))
                pos += entry
        return _Node(page_no, bool(is_leaf), link, keys, payloads)

    def _write_node(self, node: _Node) -> None:
        with self.pool.page(self.file_id, node.page_no) as page:
            self.pool.writable(self.file_id, node.page_no)
            raw = page.data
            _NODE_HEADER.pack_into(raw, 0, int(node.is_leaf), len(node.keys), node.link)
            pos = NODE_HEADER_BYTES
            for key, payload in zip(node.keys, node.payloads):
                raw[pos:pos + len(key)] = key
                raw[pos + self.key_width:pos + self.key_width + len(payload)] = payload
                pos += self._leaf_entry if node.is_leaf else self._internal_entry
            self.pool.mark_dirty(self.file_id, node.page_no)

    def _read_meta(self) -> tuple[int, int, int]:
        with self.pool.page(self.file_id, 0) as page:
            root, width, height = _META.unpack_from(page.data, 0)
        return root, width, height

    def _write_meta(self) -> None:
        with self.pool.page(self.file_id, 0) as page:
            self.pool.writable(self.file_id, 0)
            _META.pack_into(page.data, 0, self.root_page, self.key_width, self.height)
            self.pool.mark_dirty(self.file_id, 0)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_width:
            raise StorageError(
                f"key must be {self.key_width} bytes, got {len(key)}"
            )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`StorageError`.

        Checked: key ordering inside nodes, separator bounds, uniform leaf
        depth, and the leaf sibling chain covering all entries in order.
        """
        leaves: list[int] = []
        self._check_subtree(self.root_page, None, None, self.height, leaves)
        # leaf chain must visit exactly the leaves found by the tree walk
        chained = []
        node = self._read_node(self._leftmost_leaf())
        while True:
            chained.append(node.page_no)
            if node.link == _NO_LINK:
                break
            node = self._read_node(node.link)
        if chained != leaves:
            raise StorageError(f"leaf chain {chained} != tree leaves {leaves}")
        all_keys = [k for k, __ in self.items()]
        if all_keys != sorted(all_keys):
            raise StorageError("leaf chain is not globally sorted")

    def _leftmost_leaf(self) -> int:
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            node = self._read_node(node.link)
        return node.page_no

    def _check_subtree(self, page_no: int, lo: bytes | None, hi: bytes | None,
                       level: int, leaves: list[int]) -> None:
        node = self._read_node(page_no)
        keys = node.keys
        if keys != sorted(keys):
            raise StorageError(f"node {page_no}: keys out of order")
        for key in keys:
            if lo is not None and key < lo:
                raise StorageError(f"node {page_no}: key below separator bound")
            if hi is not None and key >= hi:
                raise StorageError(f"node {page_no}: key above separator bound")
        if node.is_leaf:
            if level != 1:
                raise StorageError(f"leaf {page_no} at level {level}; depth not uniform")
            leaves.append(page_no)
            return
        children = [node.link] + [_CHILD.unpack(p)[0] for p in node.payloads]
        bounds = [lo] + keys + [hi]
        for i, child in enumerate(children):
            self._check_subtree(child, bounds[i], bounds[i + 1], level - 1, leaves)
