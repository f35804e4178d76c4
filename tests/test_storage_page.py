"""Unit tests for the slotted page."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError, RecordNotFoundError, RecordTooLargeError
from repro.storage.constants import MAX_RECORD_BYTES, PAGE_HEADER_BYTES, PAGE_SIZE
from repro.storage.page import Page


def test_new_page_is_empty():
    page = Page()
    assert page.num_slots == 0
    assert page.free_offset == PAGE_HEADER_BYTES
    assert page.contiguous_free() == PAGE_SIZE - PAGE_HEADER_BYTES


def test_insert_and_read_roundtrip():
    page = Page()
    slot = page.insert(b"hello world")
    assert page.read(slot) == b"hello world"


def test_multiple_inserts_get_distinct_slots():
    page = Page()
    slots = [page.insert(bytes([i]) * 10) for i in range(20)]
    assert slots == list(range(20))
    for i, slot in enumerate(slots):
        assert page.read(slot) == bytes([i]) * 10


def test_read_empty_slot_raises():
    page = Page()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(RecordNotFoundError):
        page.read(slot)


def test_read_out_of_range_slot_raises():
    page = Page()
    with pytest.raises(RecordNotFoundError):
        page.read(0)


def test_delete_frees_slot_for_reuse():
    page = Page()
    a = page.insert(b"aaaa")
    b = page.insert(b"bbbb")
    page.delete(a)
    c = page.insert(b"cccc")
    assert c == a  # freed slot is reused
    assert page.read(b) == b"bbbb"
    assert page.read(c) == b"cccc"


def test_delete_twice_raises():
    page = Page()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(RecordNotFoundError):
        page.delete(slot)


def test_update_in_place_shrink_and_grow():
    page = Page()
    slot = page.insert(b"A" * 100)
    page.update(slot, b"B" * 50)
    assert page.read(slot) == b"B" * 50
    page.update(slot, b"C" * 200)
    assert page.read(slot) == b"C" * 200


def test_update_empty_slot_raises():
    page = Page()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(RecordNotFoundError):
        page.update(slot, b"y")


def test_page_full_on_insert():
    page = Page()
    big = b"Z" * 1000
    while True:
        try:
            page.insert(big)
        except PageFullError:
            break
    # The page is full; a further large insert keeps failing.
    with pytest.raises(PageFullError):
        page.insert(big)


def test_record_too_large():
    page = Page()
    with pytest.raises(RecordTooLargeError):
        page.insert(b"x" * (MAX_RECORD_BYTES + 1))


def test_grow_past_page_capacity_raises_and_preserves_record():
    page = Page()
    slot = page.insert(b"A" * 2000)
    page.insert(b"B" * 1800)
    with pytest.raises(PageFullError):
        page.update(slot, b"C" * 3000)
    assert page.read(slot) == b"A" * 2000  # rollback kept the old image


def test_compaction_recovers_holes():
    page = Page()
    slots = [page.insert(b"D" * 400) for __ in range(9)]
    for slot in slots[::2]:
        page.delete(slot)
    # Contiguous space is small but holes are large; insert must compact.
    assert page.contiguous_free() < 900 + 4
    slot = page.insert(b"E" * 900)
    assert page.read(slot) == b"E" * 900
    for s in slots[1::2]:
        assert page.read(s) == b"D" * 400


def test_live_slots_and_records_iteration():
    page = Page()
    a = page.insert(b"one")
    b = page.insert(b"two")
    c = page.insert(b"three")
    page.delete(b)
    assert list(page.live_slots()) == [a, c]
    assert dict(page.records()) == {a: b"one", c: b"three"}


def test_page_image_roundtrip():
    page = Page()
    slot = page.insert(b"persist me")
    copy = Page(bytearray(page.data))
    assert copy.read(slot) == b"persist me"


def test_page_rejects_wrong_size_image():
    with pytest.raises(ValueError):
        Page(bytearray(100))


def test_has_room_for_counts_slot_entry():
    page = Page()
    assert page.has_room_for(PAGE_SIZE - PAGE_HEADER_BYTES - 4)
    assert not page.has_room_for(PAGE_SIZE - PAGE_HEADER_BYTES)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.binary(min_size=0, max_size=300),
        min_size=1,
        max_size=30,
    )
)
def test_property_inserted_records_read_back(records):
    """Whatever fits on one page reads back verbatim."""
    page = Page()
    stored = {}
    for payload in records:
        try:
            slot = page.insert(payload)
        except PageFullError:
            break
        stored[slot] = payload
    for slot, payload in stored.items():
        assert page.read(slot) == payload


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update"]), st.binary(max_size=120)),
        max_size=60,
    )
)
def test_property_random_ops_match_model(ops):
    """The page behaves like a dict under a random op sequence."""
    page = Page()
    model: dict[int, bytes] = {}
    for op, payload in ops:
        if op == "insert":
            try:
                slot = page.insert(payload)
            except PageFullError:
                continue
            model[slot] = payload
        elif op == "delete" and model:
            slot = sorted(model)[0]
            page.delete(slot)
            del model[slot]
        elif op == "update" and model:
            slot = sorted(model)[-1]
            try:
                page.update(slot, payload)
            except PageFullError:
                continue
            model[slot] = payload
    assert dict(page.records()) == model
    assert page.total_free() >= 0
    assert page.contiguous_free() >= 0


class _CountingPage(Page):
    __slots__ = ("compactions",)

    def compact(self) -> None:
        self.compactions = getattr(self, "compactions", 0) + 1
        super().compact()


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
       grow=st.lists(st.integers(-40, 120), min_size=12, max_size=12),
       deleted=st.sets(st.integers(0, 11), max_size=4))
def test_replace_matches_a_loop_of_update_with_one_compaction(
        sizes, grow, deleted):
    """Several records rewritten at once end up as a loop of update()
    leaves them -- contents, slots, space -- after at most one compaction."""
    loop, batch = Page(), _CountingPage()
    for page in (loop, batch):
        for i, size in enumerate(sizes):
            page.insert(bytes([i]) * size)
        for slot in sorted(deleted & set(range(len(sizes) - 1))):
            page.delete(slot)
    images = {slot: bytes([100 + slot])
              * max(1, len(loop.read(slot)) + grow[slot])
              for slot in loop.live_slots()}
    if sum(len(record) - len(batch.read(slot))
           for slot, record in images.items()) > batch.total_free():
        before = bytes(batch.data)
        with pytest.raises(PageFullError):
            batch.replace(images)
        assert bytes(batch.data) == before
        return
    try:
        for slot, record in images.items():
            loop.update(slot, record)
    except PageFullError:
        return  # a record grew before the one whose shrinking made room
    batch.compactions = 0
    batch.replace(images)
    assert batch.compactions <= 1
    assert list(batch.records()) == list(loop.records())
    assert batch.num_slots == loop.num_slots
    assert batch.total_free() == loop.total_free()
