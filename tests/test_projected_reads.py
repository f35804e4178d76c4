"""Parity of the projected read with the decode it replaced.

``ObjectStore.read_many(oids, fields)`` and ``ObjectStore.scan(heap,
fields=...)`` slice each record's projected values straight off its
pinned page (``encoding.projector`` over ``HeapFile.read_sliced`` /
``HeapFile.scan_sliced``) instead of decoding whole objects.  Over every
record shape -- plain, behind a forward stub, chunked, deleted, probed
twice, written before a widening, of an unregistered tag, with NULL refs,
multibyte and NUL-padded chars, floats -- and pools of 1 to 64 frames,
each read is compared with the one it replaced, kept here as the
reference: the same values (the full decode restricted to ``fields``),
the same ``BufferPool.fetch`` / ``unpin`` sequence, the same errors, no
pin left behind, and ``decode_object`` called for refused records only.
"""

import re

import pytest

from repro.errors import (
    DanglingReferenceError,
    FieldError,
    RecordNotFoundError,
    SerializationError,
    UnknownTypeError,
)
from repro.objects import encoding
from repro.objects.encoding import decode_object
from repro.objects.instance import LinkEntry, StoredObject
from repro.objects.registry import TypeRegistry
from repro.objects.store import ObjectStore
from repro.objects.types import (
    TypeDefinition,
    char_field,
    float_field,
    int_field,
    ref_field,
)
from repro.storage.heapfile import _INLINE_LIMIT
from repro.storage.manager import StorageManager
from repro.storage.oid import OID

REC = TypeDefinition("REC", [
    int_field("k"), char_field("name", 12), float_field("x"),
    ref_field("next", "REC"), char_field("pad", 200)])
BIG = TypeDefinition("BIG", [int_field("k"), char_field("blob", 5000)])

NAMES = ["plain", "é", "naïve", "日本語", "ab\x00", "\x00", "", "twelve bytes"]

FRAMES = [1, 2, 3, 4, 64]

PROJECTIONS = [("next",), ("k", "x"), ("name", "next", "x"), ("blob",), ()]


def _build_store(frames: int):
    """120 REC objects over ~10 pages -- every seventh grown past its page
    (a forward stub), every third ``next`` NULL, chars multibyte or
    NUL-padded, floats -- and six chunked BIG objects in a second file.
    The same bytes for every ``frames``.  Returns a cold store."""
    storage = StorageManager(buffer_frames=frames)
    registry = TypeRegistry()
    registry.register(REC)
    registry.register(BIG)
    store = ObjectStore(storage, registry)
    heap = storage.create_file("rec")
    oids = []
    for i in range(120):
        oids.append(store.insert(heap, StoredObject(REC, {
            "k": i - 60, "name": NAMES[i % len(NAMES)], "x": i / 7 - 3.25,
            "next": None if i % 3 == 0 else oids[i // 2],
            "pad": f"p{i}"})))
    for i in range(0, 120, 7):
        obj = store.read(oids[i])
        for n in range(40):
            obj.add_link_entry(LinkEntry(OID(9, n, n), n))
        store.update(oids[i], obj)
    big_heap = storage.create_file("big")
    assert 5000 > _INLINE_LIMIT
    oids += [store.insert(big_heap, StoredObject(
        BIG, {"k": i, "blob": "b" * (4000 + i)})) for i in range(6)]
    storage.pool.invalidate_all()
    return storage, store, oids


def _probes(oids):
    """Every OID of one type, plus a duplicate of every fifth."""
    return oids + oids[::5]


def _rec_oids(oids):
    return [oid for oid in oids if oid.file_id == oids[0].file_id]


# ---------------------------------------------------------------------------
# the reads the projected read replaced
# ---------------------------------------------------------------------------


def _reference_read(store: ObjectStore, oid: OID, page, fields):
    """``ObjectStore.read(oid, page, fields)`` as it was: a plain record
    copied off the pinned home page, any other one read whole by
    ``HeapFile.read``, then decoded -- restricted here to ``fields``."""
    heap = store.storage.file_by_id(oid.file_id)
    rid = (oid.page_no, oid.slot)
    try:
        if page is None:
            raw = heap.read(rid)
        else:
            raw = page.read(rid[1])
            raw = raw[2:] if raw[0] == 0 and raw[1] == 0 else heap.read(rid)
    except RecordNotFoundError:
        raise DanglingReferenceError(f"dangling reference {oid}") from None
    obj = decode_object(store.registry, raw)
    return tuple(obj.get(name) for name in fields)


def _reference_read_many(store: ObjectStore, oids, fields) -> dict:
    """``ObjectStore.read_many`` as it was: the sorted, deduplicated page
    runs pinned through ``fetch_many``, one ``_reference_read`` each."""
    probes = list(oids)
    unique = sorted(set(probes), key=lambda o: (o.file_id, o.page_no, o.slot))
    store.storage.stats.count_batch_dedup(len(probes) - len(unique))
    pool = store.storage.pool
    run_pages = min(16, pool.capacity // 2)
    out = {}
    start = 0
    while start < len(unique):
        run, pages = [], []
        for oid in unique[start:]:
            key = (oid.file_id, oid.page_no)
            if not pages or pages[-1] != key:
                if len(pages) >= max(1, run_pages):
                    break
                pages.append(key)
            run.append(oid)
        start += len(run)
        group = pool.fetch_many(pages) if run_pages >= 1 else {}
        try:
            for oid in run:
                out[oid] = _reference_read(
                    store, oid, group.get((oid.file_id, oid.page_no)), fields)
        finally:
            pool.unpin_many(group)
    return out


def _reference_scan(store: ObjectStore, heap, fields, readahead=0):
    """``HeapFile.scan`` as it was -- each page's records copied out under
    one pin, stubs followed and chunks assembled after it -- then each
    payload decoded and restricted to ``fields``."""
    pool, file_id = heap.pool, heap.file_id
    total = heap.num_pages()
    for page_no in range(total):
        if readahead > 0 and page_no % readahead == 0:
            pool.prefetch(file_id, range(page_no + 1,
                                         min(page_no + 1 + readahead, total)))
        with pool.page(file_id, page_no) as page:
            entries = list(page.records())
        for slot, raw in entries:
            if raw[0] == 2 or (raw[0] == 0 and raw[1] == 2):
                continue  # a parked payload, an overflow chunk
            payload = heap.read((page_no, slot)) if raw[0] == 1 \
                else heap._unwrap(raw[1:])
            obj = decode_object(store.registry, payload)
            yield (OID(file_id, page_no, slot),
                   tuple(obj.get(name) for name in fields))


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def _record_pins(storage) -> list:
    """Log every ``fetch``, ``unpin`` and ``prefetch`` of the store's pool,
    one entry per page: each key ``fetch_many`` takes logs as a ``fetch``
    of it (a key repeated within the group once, as the group pins it
    once), each key of ``unpin_many`` as an ``unpin`` -- the group pins
    and unpins its hits without calling the two -- and the ``page``
    context goes through the first two."""
    pool, calls, grouped = storage.pool, [], []
    for name in ("fetch", "unpin", "prefetch"):
        method = getattr(pool, name)

        def logged(*args, __name=name, __method=method):
            if not grouped:  # a group logs its own pages
                calls.append((__name,) + tuple(
                    tuple(a) if isinstance(a, range) else a for a in args))
            return __method(*args)

        setattr(pool, name, logged)
    for name, each in (("fetch_many", "fetch"), ("unpin_many", "unpin")):
        method = getattr(pool, name)

        def logged_keys(keys, __each=each, __method=method):
            def taken():
                # logged as the group takes it: a fault stops the log
                # where a per-page fetch would have stopped it
                seen = set()
                for key in keys:
                    if __each == "unpin" or key not in seen:
                        seen.add(key)
                        calls.append((__each,) + tuple(key))
                    yield key

            grouped.append(__each)
            try:
                return __method(taken())
            finally:
                grouped.pop()

        setattr(pool, name, logged_keys)
    return calls


@pytest.fixture()
def decodes(monkeypatch) -> list:
    """The lengths of the records ``decode_object`` is called for."""
    calls = []
    decode = encoding.decode_object

    def counted(registry, data):
        calls.append(len(data))
        return decode(registry, data)

    monkeypatch.setattr(encoding, "decode_object", counted)
    return calls


def _physical(storage):
    io = storage.stats.snapshot()
    return io.physical_reads, io.physical_writes, io.evictions, io.logical_reads


def _outcome(read):
    try:
        return read()
    except (DanglingReferenceError, SerializationError, UnknownTypeError,
            FieldError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _both(frames, change, read, reference):
    """Run ``read`` on one store and ``reference`` on an identical one,
    each after ``change(storage, store, oids)``; returns the two outcomes,
    pin sequences and physical counts."""
    sides = []
    for fn in (read, reference):
        storage, store, oids = _build_store(frames)
        change(storage, store, oids)
        storage.pool.invalidate_all()
        pins = _record_pins(storage)
        outcome = _outcome(lambda: fn(store, oids))
        assert storage.pool.pinned_keys() == []
        sides.append((outcome, pins, _physical(storage)))
    return sides


def _unchanged(storage, store, oids):
    pass


# ---------------------------------------------------------------------------
# read_many
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("fields", PROJECTIONS[:3] + PROJECTIONS[4:])
def test_projected_read_many_is_the_reference_sweep(frames, fields, decodes):
    def read(store, oids):
        return store.read_many(_probes(_rec_oids(oids)), fields)

    def reference(store, oids):
        return _reference_read_many(store, _probes(_rec_oids(oids)), fields)

    (got, pins, io), (want, ref_pins, ref_io) = _both(
        frames, _unchanged, read, reference)
    assert got == want
    assert len(got) == 120
    if fields == ("next",):
        assert sum(values == (None,) for values in got.values()) == 40
    assert pins == ref_pins
    assert io == ref_io
    assert decodes == []  # every record sliced where it lies


@pytest.mark.parametrize("frames", FRAMES)
def test_projected_read_many_slices_chunked_records(frames, decodes):
    def read(store, oids):
        return store.read_many(oids[120:] + oids[121:123], ("blob", "k"))

    def reference(store, oids):
        return _reference_read_many(store, oids[120:] + oids[121:123],
                                    ("blob", "k"))

    (got, pins, io), (want, ref_pins, ref_io) = _both(
        frames, _unchanged, read, reference)
    assert got == want and len(got) == 6
    assert got[min(got)] == ("b" * 4000, 0)
    assert (pins, io) == (ref_pins, ref_io)
    # assembled as HeapFile.read assembles it, then sliced, not decoded
    assert decodes == []


@pytest.mark.parametrize("frames", FRAMES)
def test_projected_read_many_reports_what_the_reference_reports(frames):
    """A deleted slot, a dangling forward stub and an unregistered tag
    raise the same error from both sweeps, with no pin left behind."""

    def delete_one(storage, store, oids):
        store.delete(oids[11])

    def dangle_a_stub(storage, store, oids):
        heap = storage.file_by_id(oids[0].file_id)
        with storage.pool.page(heap.file_id, oids[14].page_no) as page:
            offset, __ = page.span(oids[14].slot)
            assert page.data[offset] == 1  # a forward stub
            target = (int.from_bytes(page.data[offset + 1:offset + 5], "big"),
                      int.from_bytes(page.data[offset + 5:offset + 7], "big"))
        heap._delete_slot(target)

    def foreign_tag(storage, store, oids):
        heap = storage.file_by_id(oids[0].file_id)
        with heap.in_place() as records:
            records.payload((oids[30].page_no, oids[30].slot))[0:2] = \
                (999).to_bytes(2, "big")
            records.wrote(0, 2)

    __, __, oids = _build_store(frames)
    for change, error in [
            (delete_one, f"DanglingReferenceError: dangling reference {oids[11]}"),
            (dangle_a_stub, f"DanglingReferenceError: dangling reference {oids[14]}"),
            (foreign_tag, "UnknownTypeError: unknown type tag 999")]:
        (got, pins, io), (want, ref_pins, ref_io) = _both(
            frames, change,
            lambda store, oids: store.read_many(oids[:40], ("k", "next")),
            lambda store, oids: _reference_read_many(store, oids[:40],
                                                     ("k", "next")))
        assert got == want == error
        assert (pins, io) == (ref_pins, ref_io)


@pytest.mark.parametrize("frames", FRAMES)
def test_short_records_are_refused_and_decoded_with_defaults(frames, decodes):
    """Records written before a widening end early: the slicer refuses
    them, and the full decode gives the absent fields their defaults."""
    wide = REC.subtype_with_hidden("REC_wide", [
        char_field("h_name", 12, hidden=True),
        ref_field("h_ref", "REC", hidden=True),
        float_field("h_x", hidden=True)])

    def widen(storage, store, oids):
        store.registry.replace("REC", wide)

    fields = ("k", "h_name", "h_ref", "h_x", "next")
    (got, pins, io), (want, ref_pins, ref_io) = _both(
        frames, widen,
        lambda store, oids: store.read_many(_probes(_rec_oids(oids)), fields),
        lambda store, oids: _reference_read_many(
            store, _probes(_rec_oids(oids)), fields))
    assert got == want
    assert all(values[1:4] == ("", None, 0.0) for values in got.values())
    assert (pins, io) == (ref_pins, ref_io)
    # one decode per distinct refused record (the probes repeat some)
    assert len(decodes) == 120


def test_a_type_lacking_a_projected_field_is_refused(decodes):
    storage, store, oids = _build_store(64)
    with pytest.raises(FieldError, match="has no field 'blob'"):
        store.read_many(oids[:3], ("k", "blob"))
    assert storage.pool.pinned_keys() == []
    assert len(decodes) == 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("readahead", [0, 2])
@pytest.mark.parametrize("fields", PROJECTIONS[:3])
def test_projected_scan_is_the_reference_scan(frames, readahead, fields,
                                              decodes):
    def read(store, oids):
        return list(store.scan(store.storage.file_by_id(oids[0].file_id),
                               readahead=readahead, fields=fields))

    def reference(store, oids):
        return list(_reference_scan(
            store, store.storage.file_by_id(oids[0].file_id), fields,
            readahead))

    (got, pins, io), (want, ref_pins, ref_io) = _both(
        frames, _unchanged, read, reference)
    assert got == want and len(got) == 120
    assert [oid for oid, __ in got] == sorted(oid for oid, __ in got)
    assert (pins, io) == (ref_pins, ref_io)
    assert decodes == []


@pytest.mark.parametrize("frames", [1, 4, 64])
def test_projected_scan_of_chunked_and_deleted_records(frames, decodes):
    def change(storage, store, oids):
        store.delete(oids[121])

    (got, pins, io), (want, ref_pins, ref_io) = _both(
        frames, change,
        lambda store, oids: list(store.scan(
            store.storage.file_by_id(oids[120].file_id), fields=("k",))),
        lambda store, oids: list(_reference_scan(
            store, store.storage.file_by_id(oids[120].file_id), ("k",))))
    assert got == want
    assert [values for __, values in got] == [(0,), (2,), (3,), (4,), (5,)]
    assert (pins, io) == (ref_pins, ref_io)
    assert decodes == []


# ---------------------------------------------------------------------------
# a stale rid
# ---------------------------------------------------------------------------

T = TypeDefinition("T", [int_field("k"), char_field("pad", 250)])


def test_a_stale_oid_cannot_reach_a_payload_parked_in_its_slot():
    """Delete the top page's last object, then grow an object of page 0
    so that it is parked in the freed slot: the deleted object's OID names
    a relocated payload, which no read, update or delete may take for a
    record of its own."""
    storage = StorageManager(buffer_frames=16)
    registry = TypeRegistry()
    registry.register(T)
    store = ObjectStore(storage, registry)
    heap = storage.create_file("t")
    oids = [store.insert(heap, StoredObject(T, {"k": i, "pad": "p" * 200}))
            for i in range(20)]
    assert heap.num_pages() == 2
    stale = max(oids)
    store.delete(stale)
    grown = store.read(oids[0])
    for n in range(40):
        grown.add_link_entry(LinkEntry(OID(9, n, n), n))
    store.update(oids[0], grown)
    assert heap._read_raw((stale.page_no, stale.slot))[0] == 2  # parked

    message = re.escape(f"dangling reference {stale}")
    with pytest.raises(DanglingReferenceError, match=message):
        store.read(stale)
    with pytest.raises(DanglingReferenceError, match=message):
        store.read_many([oids[1], stale], ("k",))
    with pytest.raises(DanglingReferenceError, match=message):
        store.read_many([stale])
    assert not store.exists(stale)
    with pytest.raises(DanglingReferenceError, match=message):
        store.update(stale, store.read(oids[1]))
    with pytest.raises(DanglingReferenceError, match=message):
        store.delete(stale)
    with pytest.raises(DanglingReferenceError, match=message):
        store.overwrite_fields(heap, T, [stale], {"k": 7},
                               general=store.read)
    assert storage.pool.pinned_keys() == []
    # the relocated object is whole, where its forward stub says
    assert store.read(oids[0]) == grown
    assert store.read_many([oids[0]], ("k", "pad")) == {oids[0]: (0, "p" * 200)}
    assert [oid for oid, __ in store.scan(heap)] == sorted(oids[:-1])
