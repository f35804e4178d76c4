"""B+-tree reads off the pinned page, against the node-decoding reads.

``BPlusTree.search`` and ``BPlusTree.range_scan`` bisect the key slices of
each pinned node and slice out of a leaf only the entries they return.
The reads they replaced decoded every node they visited whole
(``_read_node``); those are kept here as the reference.  Both run over
seeded random trees built three ways -- inserts, deletes that borrow and
merge, bulk loads at three fill factors -- at key widths 4, 12 and 20, on
a 3-frame pool, and must return the same ``(key, OID)`` sequences while
pinning the same pages in the same order.
"""

import bisect
import functools
import random
from itertools import islice

import pytest

from repro.index.btree import _NO_LINK, BPlusTree
from repro.storage.manager import StorageManager
from repro.storage.oid import OID

FRAMES = 3
WIDTHS = (4, 12, 20)
BUILDS = ("inserts", "deletes", "bulk-0.5", "bulk-0.9", "bulk-1.0")

# ---------------------------------------------------------------------------
# the reference: reads that decode every node they visit
# ---------------------------------------------------------------------------


def _reference_leaf(tree: BPlusTree, key: bytes):
    node = tree._read_node(tree.root_page)
    while not node.is_leaf:
        node = tree._read_node(
            tree._child(node, bisect.bisect_right(node.keys, key)))
    return node


def reference_search(tree: BPlusTree, key: bytes):
    node = _reference_leaf(tree, key)
    idx = bisect.bisect_left(node.keys, key)
    if idx < len(node.keys) and node.keys[idx] == key:
        return OID.unpack(node.payloads[idx])
    return None


def reference_range_scan(tree: BPlusTree, lo=None, hi=None, include_hi=True):
    lo_full = (lo or b"").ljust(tree.key_width, b"\x00")
    node = _reference_leaf(tree, lo_full)
    idx = bisect.bisect_left(node.keys, lo_full)
    while True:
        while idx < len(node.keys):
            key = node.keys[idx]
            if hi is not None:
                bound = hi.ljust(tree.key_width,
                                 b"\xff" if include_hi else b"\x00")
                if (key > bound) if include_hi else (key >= bound):
                    return
            yield key, OID.unpack(node.payloads[idx])
            idx += 1
        if node.link == _NO_LINK:
            return
        node = tree._read_node(node.link)
        idx = 0


# ---------------------------------------------------------------------------
# trees and queries
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tree(build: str, width: int):
    """A seeded random tree on a 3-frame pool; returns (storage, tree,
    sorted live keys)."""
    rng = random.Random(f"{build}/{width}")
    storage = StorageManager(buffer_frames=FRAMES)
    file_id = storage.disk.create_file()
    n = 7000 if build == "bulk-0.5" else 2000
    keys: set[bytes] = set()
    while len(keys) < n:
        keys.add(rng.getrandbits(8 * width).to_bytes(width, "big"))
    keys = sorted(keys)
    value = {key: OID(1, i, i % 7) for i, key in enumerate(keys)}
    if build.startswith("bulk-"):
        tree = BPlusTree.bulk_load(storage.pool, file_id, width,
                                   ((key, value[key]) for key in keys),
                                   fill_factor=float(build[len("bulk-"):]))
    else:
        tree = BPlusTree(storage.pool, file_id, width)
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            tree.insert(key, value[key])
        if build == "deletes":
            doomed = set(rng.sample(keys, 2 * n // 3))
            for key in doomed:
                assert tree.delete(key)
            keys = [key for key in keys if key not in doomed]
    tree.check_invariants()
    assert tree.height >= 2
    return storage, tree, keys


def _leaf_firsts(tree: BPlusTree) -> list[bytes]:
    """The first key of every leaf but the leftmost."""
    firsts = []
    node = tree._read_node(tree._leftmost_leaf())
    while node.link != _NO_LINK:
        node = tree._read_node(node.link)
        firsts.append(node.keys[0])
    return firsts


def _queries(build: str, width: int) -> list[tuple]:
    """``(lo, hi, include_hi)`` triples: random ones, over existing keys,
    leaf boundaries, random bytes and prefixes, plus every shape of bound
    on the first few leaf boundaries."""
    __, tree, keys = _tree(build, width)
    rng = random.Random(f"queries/{build}/{width}")
    firsts = _leaf_firsts(tree)
    assert firsts, "the tree must span several leaves"

    def bound():
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(keys)
        if pick < 0.5:
            return rng.choice(firsts)
        if pick < 0.7:
            return rng.getrandbits(8 * width).to_bytes(width, "big")
        return rng.choice(keys)[:rng.randrange(width)]  # a prefix, maybe b""

    out = [(None if rng.random() < 0.15 else bound(),
            None if rng.random() < 0.15 else bound(),
            rng.random() < 0.5)
           for __ in range(150)]
    for first in firsts[:3]:
        last = keys[keys.index(first) - 1]  # the previous leaf's last key
        for inclusive in (True, False):
            out += [(first, first, inclusive), (last, first, inclusive),
                    (last, last, inclusive), (None, last, inclusive),
                    (None, first, inclusive), (first, None, inclusive),
                    (first[:1], first[:2], inclusive)]
    return out


def _run_traced(storage, monkeypatch, work):
    """``work()`` from a cold pool: its result, the page numbers it pinned
    in order, and (pins, hits, physical reads, evictions)."""
    pool = storage.pool
    pool.invalidate_all()
    pins: list[int] = []
    fetch = pool.fetch

    def recording_fetch(file_id, page_no):
        pins.append(page_no)
        return fetch(file_id, page_no)

    monkeypatch.setattr(pool, "fetch", recording_fetch)
    before = storage.stats.snapshot()
    try:
        out = work()
    finally:
        monkeypatch.undo()
    io = storage.stats.snapshot() - before
    assert pool.pinned_keys() == []
    return out, pins, (io.logical_reads, io.buffer_hits, io.physical_reads,
                       io.evictions)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("build", BUILDS)
def test_range_scan_equals_the_node_decoding_scan(build, width):
    storage, tree, keys = _tree(build, width)
    for lo, hi, inclusive in _queries(build, width):
        got = list(tree.range_scan(lo, hi, inclusive))
        assert got == list(reference_range_scan(tree, lo, hi, inclusive)), \
            (lo, hi, inclusive)
    assert [key for key, __ in tree.range_scan()] == keys
    assert storage.pool.pinned_keys() == []


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("build", BUILDS)
def test_search_equals_the_node_decoding_search(build, width):
    __, tree, keys = _tree(build, width)
    rng = random.Random(f"search/{build}/{width}")
    probes = rng.sample(keys, 200) + _leaf_firsts(tree) + [
        rng.getrandbits(8 * width).to_bytes(width, "big") for __ in range(200)]
    probes += [bytes(width), b"\xff" * width]
    for key in probes:
        assert tree.search(key) == reference_search(tree, key), key
    assert all(tree.search(key) is not None for key in keys[::50])


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("build", ["inserts", "deletes", "bulk-0.5"])
def test_same_pins_and_physical_reads(build, width, monkeypatch):
    """Page for page, in order: on a 3-frame pool the scans' pins decide
    what is evicted, so equal counters mean equal pin sequences."""
    storage, tree, __ = _tree(build, width)
    queries = _queries(build, width)[::3]
    probes = [lo for lo, __, __ in queries if lo is not None
              and len(lo) == width]
    runs = []
    for scan, search in ((reference_range_scan, reference_search),
                         (BPlusTree.range_scan, BPlusTree.search)):
        runs.append(_run_traced(storage, monkeypatch, lambda: (
            [list(scan(tree, lo, hi, inclusive))
             for lo, hi, inclusive in queries],
            [search(tree, key) for key in probes])))
    (ref_out, ref_pins, ref_io), (out, pins, io) = runs
    assert out == ref_out
    assert pins == ref_pins
    assert io == ref_io
    assert io[2] > 0  # a 3-frame pool: the scans did read from disk


@pytest.mark.parametrize("width", WIDTHS)
def test_an_abandoned_scan_holds_no_pin(width, monkeypatch):
    storage, tree, keys = _tree("bulk-0.9", width)
    first = _leaf_firsts(tree)[0]
    start = keys.index(first) - 3  # three entries before a leaf boundary
    for taken in (1, 3, 4, tree.leaf_capacity + 5):
        def work(scan):
            scanner = scan(tree, keys[start], None)
            head = list(islice(scanner, taken))
            # the generator is still alive, part-way through a leaf
            assert storage.pool.pinned_keys() == []
            return head

        ref = _run_traced(storage, monkeypatch,
                          lambda: work(reference_range_scan))
        got = _run_traced(storage, monkeypatch,
                          lambda: work(BPlusTree.range_scan))
        assert got == ref
        assert [key for key, __ in got[0]] == keys[start:start + taken]


def test_the_empty_tree():
    storage = StorageManager(buffer_frames=FRAMES)
    tree = BPlusTree(storage.pool, storage.disk.create_file(), 12)
    for lo, hi, inclusive in [(None, None, True), (b"a", b"z", True),
                              (bytes(12), b"\xff" * 12, False), (None, b"", True)]:
        assert list(tree.range_scan(lo, hi, inclusive)) == []
        assert list(reference_range_scan(tree, lo, hi, inclusive)) == []
    assert tree.search(b"k" * 12) is None
    assert reference_search(tree, b"k" * 12) is None
    # emptied by deletion: the root collapses back to one empty leaf
    keys = [i.to_bytes(12, "big") for i in range(1500)]
    for i, key in enumerate(keys):
        tree.insert(key, OID(1, i, 0))
    assert tree.height >= 2
    for key in keys:
        assert tree.delete(key)
    assert list(tree.range_scan()) == []
    assert tree.search(keys[7]) is None
    assert storage.pool.pinned_keys() == []
