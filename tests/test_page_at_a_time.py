"""Parity of the page-at-a-time read path with the record-at-a-time one.

Three primitives replaced a per-record loop each, and each is compared
here with the loop it replaced (kept in this file as the reference):

* ``ObjectStore.read_many`` decodes every record of a pinned page run
  straight from the pinned pages instead of one ``HeapFile.read`` (one
  pin) per object;
* ``HeapFile.insert_many`` appends under one pin per page instead of two
  pins per record;
* the projected read (``encoding.projector``) slices the projected
  values off the record where it lies instead of decoding it whole.
"""

import random

import pytest

from repro.errors import DanglingReferenceError, FieldError, SerializationError
from repro.objects import encoding
from repro.objects.encoding import decode_object, encode_object, projector
from repro.objects.instance import LinkEntry, ReplicaEntry, StoredObject
from repro.objects.registry import TypeRegistry
from repro.objects.store import ObjectStore
from repro.objects.types import (
    TypeDefinition,
    char_field,
    float_field,
    int_field,
    ref_field,
)
from repro.storage.constants import PAGE_HEADER_BYTES, PAGE_SIZE, SLOT_ENTRY_BYTES
from repro.storage.heapfile import _INLINE_LIMIT
from repro.storage.manager import StorageManager
from repro.storage.oid import OID
from repro.storage.page import Page

# ---------------------------------------------------------------------------
# read_many
# ---------------------------------------------------------------------------

SMALL = TypeDefinition("SMALL", [int_field("k"), char_field("pad", 300)])
BIG = TypeDefinition("BIG", [int_field("k"), char_field("blob", 5000)])


def _build_store(frames: int, relocate: bool):
    """120 SMALL objects over ~10 pages; with ``relocate`` every seventh
    is grown past its page (a forward stub) and six BIG objects, each
    larger than a page (chunked records), sit in a second file.  The same
    bytes for every ``frames``.  Returns a cold store."""
    storage = StorageManager(buffer_frames=frames)
    registry = TypeRegistry()
    registry.register(SMALL)
    registry.register(BIG)
    store = ObjectStore(storage, registry)
    heap = storage.create_file("small")
    oids = [store.insert(heap, StoredObject(SMALL, {"k": i, "pad": f"p{i}"}))
            for i in range(120)]
    if relocate:
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
    """Every OID plus thirty duplicates, shuffled."""
    rng = random.Random(5)
    probes = oids + rng.sample(oids, 30)
    rng.shuffle(probes)
    return probes


def _record_at_a_time_sweep(store: ObjectStore, oids) -> dict:
    """``read_many`` as it was: the same sorted, deduplicated page runs
    pinned through ``fetch_many``, then one ``ObjectStore.read`` -- one
    more pin of the home page -- per object."""
    unique = sorted(set(oids), key=lambda o: (o.file_id, o.page_no, o.slot))
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
                out[oid] = store.read(oid)
        finally:
            pool.unpin_many(group)
    return out


def _measured(storage, fn):
    before = storage.stats.snapshot()
    out = fn()
    return out, storage.stats.snapshot() - before


def _physical(io):
    return io.physical_reads, io.physical_writes, io.evictions


# a 1-frame pool takes read_many's no-pinning branch (run_pages == 0)
@pytest.mark.parametrize("frames", [1, 2, 3, 4, 64])
@pytest.mark.parametrize("relocate", [False, True],
                         ids=["plain", "stubs+chunks"])
def test_read_many_equals_the_per_record_reads(frames, relocate):
    storage, store, oids = _build_store(frames, relocate)
    probes = _probes(oids)
    objs, io = _measured(storage, lambda: store.read_many(probes))
    assert storage.pool.pinned_keys() == []
    assert io.batch_dedup_saved == 30
    assert list(objs) == sorted(set(probes))
    assert [objs[oid] for oid in probes] == [store.read(o) for o in probes]

    ref_storage, ref_store, ref_oids = _build_store(frames, relocate)
    assert ref_oids == oids
    ref_objs, ref_io = _measured(
        ref_storage, lambda: _record_at_a_time_sweep(ref_store, probes))
    assert objs == ref_objs
    if relocate and frames == 2:
        # the one place the sweeps part: a page pinned for a run is now
        # touched once, at the pin, so the page a forward stub led to is
        # younger than the run's page and survives it; re-reading the
        # run's page per record used to make the stub's target the LRU
        # victim, to be read again for the next stub parked on it
        assert _physical(io) < _physical(ref_io)
    else:
        assert _physical(io) == _physical(ref_io)
    if frames > 1:
        # what the change is for: one pin per page, not one more per object
        assert io.logical_reads < ref_io.logical_reads
        if not relocate:
            assert io.logical_reads == len({o.page_no for o in oids})


@pytest.mark.parametrize("frames", [1, 4, 64])
def test_read_many_reports_a_deleted_slot_like_read(frames):
    storage, store, oids = _build_store(frames, relocate=True)
    victim = oids[11]
    store.delete(victim)
    with pytest.raises(DanglingReferenceError) as one:
        store.read(victim)
    with pytest.raises(DanglingReferenceError) as many:
        store.read_many(oids[:30])
    assert str(many.value) == str(one.value) == f"dangling reference {victim}"
    assert storage.pool.pinned_keys() == []


@pytest.mark.parametrize("frames", [1, 4])
def test_read_many_defaults_fields_a_short_record_predates(frames):
    """Schema evolution: records written before a type was widened end
    early; the absent trailing fields read as their kind defaults."""
    storage, store, oids = _build_store(frames, relocate=False)
    wide = SMALL.subtype_with_hidden("SMALL_wide", [
        char_field("h_name", 12, hidden=True),
        ref_field("h_ref", "SMALL", hidden=True)])
    store.registry.replace("SMALL", wide)
    objs = store.read_many(oids[:20])
    assert objs == {oid: store.read(oid) for oid in oids[:20]}
    first = objs[oids[0]]
    assert first.type_def is wide
    assert first.values == {"k": 0, "pad": "p0", "h_name": "", "h_ref": None}
    projected = store.read_many(oids[:20], fields=("k", "h_ref"))
    assert projected[oids[3]] == (3, None)


# ---------------------------------------------------------------------------
# insert_many
# ---------------------------------------------------------------------------


def _disk_image(storage, heap):
    storage.pool.flush_all()
    disk = storage.disk
    return [disk.peek_page(heap.file_id, page_no)
            for page_no in range(disk.num_pages(heap.file_id))]


def _holed_file(storage):
    """A file whose lower pages have room again: 60 records over several
    pages, every third then deleted."""
    heap = storage.create_file("t")
    rids = [heap.insert(bytes([i]) * 250) for i in range(60)]
    for rid in rids[::3]:
        heap.delete(rid)
    return heap


#: a record's bytes on a page: marker and wrapper, payload, slot entry
_RECORD_OVERHEAD = 2 + SLOT_ENTRY_BYTES
#: the data and slot-directory bytes of an empty page
_PAGE_ROOM = PAGE_SIZE - PAGE_HEADER_BYTES


def _free_slot_file(storage):
    """One page with room at its end and an interior slot free: a loop of
    insert reuses the slot first, so the append must fall back."""
    heap = storage.create_file("t")
    rids = [heap.insert(bytes([i]) * 100) for i in range(10)]
    heap.delete(rids[4])
    with storage.pool.page(heap.file_id, 0) as page:
        assert page._find_free_slot() == 4 and page.contiguous_free() > 2000
    return heap


def _room_below_top_file(storage):
    """Two full pages of 250-byte payloads, then the last five records of
    page 0 deleted: page 0 has room (and no free slot), the top page has
    less than one such record's."""
    heap = storage.create_file("t")
    rids = [heap.insert(bytes([i]) * 250) for i in range(30)]
    assert {page_no for page_no, __ in rids} == {0, 1}
    for rid in rids[10:15]:
        heap.delete(rid)
    assert heap._free_space[1] < 250 + _RECORD_OVERHEAD < heap._free_space[0]
    return heap


STARTS = {
    "fresh": lambda storage: storage.create_file("t"),
    "holed": _holed_file,
    "free-slot": _free_slot_file,
    "room-below-top": _room_below_top_file,
}

PAYLOAD_SETS = {
    "none": [],
    "one": [b"solo"],
    "empty-record": [b"", b"x", b""],
    "page-straddling": [bytes([i % 251]) * (40 + i % 90) for i in range(300)],
    "chunked": ([b"a" * 100] * 5 + [b"L" * (2 * _INLINE_LIMIT + 17)]
                + [b"b" * 100] * 40 + [b"M" * (_INLINE_LIMIT + 1)]),
    "mixed-sizes": [bytes([i % 251]) * (1 + (i * 37) % 900)
                    for i in range(120)],
    # on an empty page the fourth record ends at the slot directory's
    # last entry: the page is full to its last byte
    "last-byte": ([b"a" * 1000] * 3
                  + [b"z" * (_PAGE_ROOM - 3 * (1000 + _RECORD_OVERHEAD)
                             - _RECORD_OVERHEAD)]
                  + [b"b" * 10] * 3),
    "one-byte-over": ([b"a" * 1000] * 3
                      + [b"z" * (_PAGE_ROOM - 3 * (1000 + _RECORD_OVERHEAD)
                                 - _RECORD_OVERHEAD + 1)]
                      + [b"b" * 10] * 3),
    # the chunked payload arrives part-way through a page's run; its
    # descriptor lands below the top page, and the run after it too
    "chunked-mid-run": ([bytes([i]) * 300 for i in range(5)]
                        + [b"C" * (_INLINE_LIMIT + 1)]
                        + [bytes([i]) * 300 for i in range(30)]),
}


@pytest.mark.parametrize("frames", [2, 64])
@pytest.mark.parametrize("start", list(STARTS))
@pytest.mark.parametrize("name", list(PAYLOAD_SETS))
def test_insert_many_equals_a_loop_of_insert(name, start, frames):
    payloads = PAYLOAD_SETS[name]
    results = []
    for bulk in (True, False):
        storage = StorageManager(buffer_frames=frames)
        heap = STARTS[start](storage)
        before = storage.stats.snapshot()
        rids = heap.insert_many(payloads) if bulk \
            else [heap.insert(payload) for payload in payloads]
        assert storage.pool.pinned_keys() == []
        image = _disk_image(storage, heap)
        io = storage.stats.snapshot() - before
        assert [heap.read(rid) for rid in rids] == payloads
        # the free-space map the next insert will consult
        results.append((rids, heap.num_pages(), image, _physical(io),
                        dict(heap._free_space)))
    assert results[0] == results[1]


def test_insert_many_pins_each_page_once():
    storage = StorageManager(buffer_frames=16)
    heap = storage.create_file("t")
    before = storage.stats.snapshot()
    heap.insert_many([b"r" * 100] * 100)
    pins = (storage.stats.snapshot() - before).logical_reads
    # one new_page + one fetch per page; a loop of insert pins twice per
    # record
    assert pins == 2 * heap.num_pages()
    assert heap.num_pages() == 3


@pytest.mark.parametrize("name", ["last-byte", "one-byte-over",
                                  "page-straddling", "empty-record"])
def test_page_append_is_a_loop_of_page_insert(name):
    records = [bytes((0, 0)) + payload for payload in PAYLOAD_SETS[name]]
    appended, looped = Page(), Page()
    slots = appended.append(records)
    inserted = []
    for record in records:
        if not looped.has_room_for(len(record)):
            break
        inserted.append(looped.insert(record))
    assert list(slots) == inserted
    assert appended.data == looped.data
    assert appended.total_free() == looped.total_free()
    assert not appended.append(records, len(slots))
    if name == "last-byte":
        assert len(slots) == 4 and appended.contiguous_free() == 0
    if name == "one-byte-over":
        assert len(slots) == 3


def test_page_append_takes_nothing_where_insert_reuses_a_slot():
    page = Page()
    for i in range(4):
        page.insert(bytes([i]) * 10)
    page.delete(1)
    image = bytes(page.data)
    assert page.append([b"new"]) == range(4, 4)
    assert bytes(page.data) == image
    assert page.insert(b"new") == 1


# ---------------------------------------------------------------------------
# projected decode
# ---------------------------------------------------------------------------

WIDE = TypeDefinition("WIDE", [
    int_field("a"), char_field("b", 10), float_field("c"),
    ref_field("d", "WIDE"), char_field("e", 3), int_field("f")])


def _wide_record(n_links=2, n_replicas=1) -> tuple[TypeRegistry, bytes]:
    registry = TypeRegistry()
    registry.register(WIDE)
    obj = StoredObject(WIDE, {"a": -7, "b": "héllo", "c": 2.5,
                              "d": OID(3, 4, 5), "e": "xyz", "f": 99})
    for n in range(n_links):
        obj.add_link_entry(LinkEntry(OID(1, n, n), n))
    for n in range(n_replicas):
        obj.set_replica_entry(ReplicaEntry(OID(2, n, n), 4, n))
    return registry, encode_object(registry, obj)


PROJECTIONS = [(), ("a",), ("f",), ("b", "d"), ("e", "c", "a"),
               ("a", "b", "c", "d", "e", "f"), ("a", "no_such_field")]


def _sliced(registry, data, fields):
    """The projected read of ``data`` lying inside a larger buffer, as a
    record lies on its page."""
    page = b"\xee" * 7 + data + b"\xee" * 5
    return projector(registry, fields)(bytearray(page), 7, 7 + len(data))


def _outcome(read):
    try:
        return read()
    except (SerializationError, FieldError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _restricted(registry, data, fields):
    """The full decode restricted to ``fields``: the slicer's reference."""
    obj = decode_object(registry, data)
    return tuple(obj.get(name) for name in fields)


def _count_decodes(monkeypatch) -> list:
    calls = []
    decode = encoding.decode_object

    def counted(registry, data):
        calls.append(len(data))
        return decode(registry, data)

    monkeypatch.setattr(encoding, "decode_object", counted)
    return calls


@pytest.mark.parametrize("fields", PROJECTIONS)
def test_projected_decode_is_the_full_decode_restricted(fields, monkeypatch):
    registry, data = _wide_record()
    full = decode_object(registry, data)
    assert full.values["b"] == "héllo" and full.values["d"] == OID(3, 4, 5)
    assert len(full.link_entries) == 2 and len(full.replica_entries) == 1
    expected = _outcome(lambda: _restricted(registry, data, fields))
    decodes = _count_decodes(monkeypatch)
    assert _outcome(lambda: _sliced(registry, data, fields)) == expected
    if "no_such_field" in fields:
        # a type that lacks a field is refused, and the full decode's
        # StoredObject.get raises
        assert expected == "FieldError: type 'WIDE' has no field 'no_such_field'"
        assert decodes == [len(data)]
    else:
        # sliced where it lies: nothing decoded, no object built
        assert decodes == []
        assert expected == tuple(full.values[name] for name in fields)


@pytest.mark.parametrize("fields", [("a",), ("f",), ("b", "e")])
def test_projected_decode_rejects_what_the_full_decode_rejects(fields):
    """Every cut of the record and trailing bytes: the same error text,
    or -- when the cut falls on a field boundary, the schema-evolution
    case -- the same values restricted to the projection."""
    registry, data = _wide_record()
    value_start = len(data) - WIDE.data_width
    boundaries = {value_start + offset for offset in WIDE.offsets}
    errors = 0
    for size in range(len(data) + 3):
        record = data[:size] + b"\x00" * max(0, size - len(data))
        full = _outcome(lambda: decode_object(registry, record).values)
        projected = _outcome(lambda: _sliced(registry, record, fields))
        if isinstance(full, str):
            errors += 1
            assert projected == full, size
            assert size not in boundaries
        else:
            assert size in boundaries
            assert projected == tuple(full[name] for name in fields), size
    assert errors == len(data) + 3 - len(boundaries)
    assert _outcome(lambda: _sliced(registry, data[:30], fields)) \
        == "SerializationError: object record truncated (30 bytes)"
    assert _outcome(lambda: _sliced(registry, data + b"!!", fields)) \
        == "SerializationError: object of type 'WIDE': 2 trailing bytes"
    assert _outcome(lambda: _sliced(registry, data[:-2], fields)) \
        == "SerializationError: field 'f' truncated"
