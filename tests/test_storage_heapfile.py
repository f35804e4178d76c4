"""Unit tests for heap files, including relocation / forwarding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateNameError, FileNotFoundInStoreError, RecordNotFoundError
from repro.storage.heapfile import _INLINE_LIMIT
from repro.storage.manager import StorageManager


@pytest.fixture()
def sm():
    return StorageManager(buffer_frames=16)


def test_insert_read_roundtrip(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"payload")
    assert heap.read(rid) == b"payload"


def test_records_fill_pages_in_order(sm):
    heap = sm.create_file("t")
    rids = [heap.insert(b"r" * 100) for __ in range(100)]
    pages = [rid[0] for rid in rids]
    assert pages == sorted(pages)  # appended in physical order
    assert heap.num_pages() >= 3


def test_scan_yields_all_records_in_physical_order(sm):
    heap = sm.create_file("t")
    payloads = [f"rec{i}".encode() for i in range(50)]
    rids = [heap.insert(p) for p in payloads]
    scanned = list(heap.scan())
    assert [rid for rid, __ in scanned] == rids
    assert [body for __, body in scanned] == payloads


def test_delete_removes_record(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"bye")
    heap.delete(rid)
    assert not heap.exists(rid)
    with pytest.raises(RecordNotFoundError):
        heap.read(rid)


def test_update_in_place(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"A" * 50)
    heap.update(rid, b"B" * 30)
    assert heap.read(rid) == b"B" * 30


def test_update_with_relocation_keeps_rid_stable(sm):
    heap = sm.create_file("t")
    # Fill a page almost completely so growth forces relocation.
    rid = heap.insert(b"A" * 100)
    fillers = [heap.insert(b"F" * 900) for __ in range(4)]
    heap.update(rid, b"B" * 1500)  # cannot fit on the home page any more
    assert heap.read(rid) == b"B" * 1500
    for f in fillers:
        assert heap.read(f) == b"F" * 900


def test_forward_chain_stays_length_one(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"A" * 100)
    for __ in range(4):
        heap.insert(b"F" * 900)
    heap.update(rid, b"B" * 1500)  # relocate once
    heap.update(rid, b"C" * 3000)  # relocate again -> stub must be rewritten
    assert heap.read(rid) == b"C" * 3000
    # Scanning still yields exactly one copy under the home rid.
    bodies = [body for r, body in heap.scan() if r == rid]
    assert bodies == [b"C" * 3000]


def test_delete_forwarded_record_cleans_both_slots(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"A" * 100)
    for __ in range(4):
        heap.insert(b"F" * 900)
    heap.update(rid, b"B" * 2000)
    count_before = heap.count()
    heap.delete(rid)
    assert heap.count() == count_before - 1
    assert not heap.exists(rid)


def test_scan_skips_moved_payloads(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"A" * 100)
    for __ in range(4):
        heap.insert(b"F" * 900)
    heap.update(rid, b"B" * 2000)
    rids = [r for r, __ in heap.scan()]
    assert len(rids) == len(set(rids)) == 5


def test_a_stale_rid_cannot_change_a_chunk_parked_in_its_slot(sm):
    """The top page's last record is deleted, then the last chunk of a
    large record takes its slot: the stale rid must not overwrite or free
    the chunk, and the large record still reads whole."""
    heap = sm.create_file("t")
    rids = [heap.insert(bytes([i]) * 250) for i in range(20)]
    stale = rids[-1]
    heap.delete(stale)
    large = b"L" * (_INLINE_LIMIT + 10)
    rid = heap.insert(large)
    assert heap._read_raw(stale)[:2] == bytes((0, 2))  # a chunk, parked
    for change in (heap.read, lambda r: heap.update(r, b"x"), heap.delete):
        with pytest.raises(RecordNotFoundError, match="overflow chunk"):
            change(stale)
    assert not heap.exists(stale)
    assert sm.pool.pinned_keys() == []
    assert heap.read(rid) == large


def test_count(sm):
    heap = sm.create_file("t")
    for i in range(17):
        heap.insert(bytes([i]))
    assert heap.count() == 17


def test_storage_manager_directory(sm):
    heap = sm.create_file("alpha")
    assert sm.file("alpha") is heap
    assert sm.file_by_id(heap.file_id) is heap
    assert sm.file_name(heap.file_id) == "alpha"
    assert sm.has_file("alpha")
    assert sm.file_names() == ["alpha"]


def test_storage_manager_duplicate_name_raises(sm):
    sm.create_file("x")
    with pytest.raises(DuplicateNameError):
        sm.create_file("x")


def test_storage_manager_unknown_lookups_raise(sm):
    with pytest.raises(FileNotFoundInStoreError):
        sm.file("missing")
    with pytest.raises(FileNotFoundInStoreError):
        sm.file_by_id(12345)
    with pytest.raises(FileNotFoundInStoreError):
        sm.file_name(12345)


def test_storage_manager_drop_file(sm):
    sm.create_file("gone")
    sm.drop_file("gone")
    assert not sm.has_file("gone")
    with pytest.raises(FileNotFoundInStoreError):
        sm.file("gone")


def test_measure_reports_io_delta(sm):
    heap = sm.create_file("t")
    rid = heap.insert(b"x" * 1000)
    sm.cold_cache()
    cost = sm.measure(lambda: heap.read(rid))
    assert cost.physical_reads == 1
    assert cost.physical_writes == 0


def test_cold_cache_then_scan_reads_every_page_once(sm):
    heap = sm.create_file("t")
    for __ in range(200):
        heap.insert(b"r" * 100)
    sm.cold_cache()
    cost = sm.measure(lambda: list(heap.scan()))
    assert cost.physical_reads == heap.num_pages()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.binary(min_size=0, max_size=800),
        ),
        max_size=40,
    )
)
def test_property_heapfile_matches_dict_model(ops):
    """A heap file behaves like a dict from rid to payload."""
    sm = StorageManager(buffer_frames=8)
    heap = sm.create_file("prop")
    model: dict[tuple[int, int], bytes] = {}
    for op, payload in ops:
        if op == "insert":
            rid = heap.insert(payload)
            assert rid not in model
            model[rid] = payload
        elif op == "delete" and model:
            rid = next(iter(model))
            heap.delete(rid)
            del model[rid]
        elif op == "update" and model:
            rid = next(reversed(model))
            heap.update(rid, payload)
            model[rid] = payload
    assert {rid: body for rid, body in heap.scan()} == model
    for rid, body in model.items():
        assert heap.read(rid) == body
