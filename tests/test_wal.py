"""Wire-format and lifecycle unit tests for the write-ahead log."""

import pytest

from repro.errors import WalError
from repro.recovery import WAL_MAGIC, WalRecord, WalRecordType, WriteAheadLog
from repro.recovery.wal import redo
from repro.storage.constants import PAGE_SIZE

IMAGE_A = bytes(range(256)) * (PAGE_SIZE // 256)
IMAGE_B = bytes(reversed(IMAGE_A))


# ---------------------------------------------------------------------------
# record wire format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "record",
    [
        WalRecord(WalRecordType.BEGIN, 1, note="insert Emp1"),
        WalRecord(WalRecordType.BEGIN, 2, note=""),
        WalRecord(WalRecordType.BEGIN, 3, note="unicode éè note"),
        WalRecord(WalRecordType.PAGE_BEFORE, 4, 7, 12, IMAGE_A),
        WalRecord.redo(5, ((0, 0, 0, IMAGE_B), (7, 12, 100, b"k" * 20))),
        WalRecord(WalRecordType.ALLOC, 6, 3, 999),
        WalRecord(WalRecordType.COMMIT, 7),
    ],
)
def test_record_round_trip(record):
    blob = record.encode()
    decoded, consumed = WalRecord.decode(blob)
    assert consumed == len(blob)
    assert decoded == record


def test_records_round_trip_concatenated():
    records = [
        WalRecord(WalRecordType.BEGIN, 9, note="x"),
        WalRecord(WalRecordType.ALLOC, 9, 1, 0),
        WalRecord.redo(9, ((1, 0, 0, IMAGE_A),)),
        WalRecord(WalRecordType.COMMIT, 9),
    ]
    blob = b"".join(r.encode() for r in records)
    out, offset = [], 0
    while offset < len(blob):
        record, offset = WalRecord.decode(blob, offset)
        out.append(record)
    assert out == records


def test_decode_rejects_corrupted_body():
    blob = bytearray(WalRecord(WalRecordType.PAGE_BEFORE, 1, 2, 3, IMAGE_A).encode())
    blob[20] ^= 0xFF  # flip one byte inside the body
    with pytest.raises(WalError, match="CRC"):
        WalRecord.decode(bytes(blob))


def test_decode_rejects_truncated_frame_and_body():
    blob = WalRecord(WalRecordType.COMMIT, 1).encode()
    with pytest.raises(WalError, match="truncated"):
        WalRecord.decode(blob[:4])
    with pytest.raises(WalError, match="truncated"):
        WalRecord.decode(blob[:-1])


def test_decode_rejects_unknown_type():
    body = bytes([42]) + b"\x00" * 8
    import struct
    import zlib

    blob = struct.pack(">II", len(body), zlib.crc32(body)) + body
    with pytest.raises(WalError, match="malformed"):
        WalRecord.decode(blob)


def test_encode_rejects_wrong_image_size():
    with pytest.raises(WalError, match="bytes"):
        WalRecord(WalRecordType.PAGE_BEFORE, 1, 0, 0, b"short").encode()


# ---------------------------------------------------------------------------
# log lifecycle
# ---------------------------------------------------------------------------


def test_begin_requires_no_active_statement():
    wal = WriteAheadLog()
    wal.begin("one")
    with pytest.raises(WalError):
        wal.begin("two")


def test_commit_without_begin_raises():
    with pytest.raises(WalError):
        WriteAheadLog().commit(lambda key: IMAGE_A)


def test_read_only_statement_leaves_no_trace():
    wal = WriteAheadLog()
    wal.begin("retrieve")
    wal.writable((1, 0), IMAGE_A)  # declared writable but never dirtied
    wal.commit(lambda key: IMAGE_A)
    assert not wal.has_records


def test_write_statement_logs_before_after_commit():
    """The first touch since the checkpoint logs the page's image; commit
    logs one REDO record with every span, then COMMIT."""
    wal = WriteAheadLog()
    wal.begin("update")
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0), (100, 20))
    wal.observe_dirty((1, 0), (110, 30))   # overlaps: merged with the first
    wal.observe_dirty((1, 0), (300, 4))
    wal.observe_alloc(1, 5)
    wal.commit(lambda key: IMAGE_B)
    types = [r.type for r in wal.records]
    assert types == [
        WalRecordType.BEGIN,
        WalRecordType.PAGE_BEFORE,
        WalRecordType.ALLOC,
        WalRecordType.REDO,
        WalRecordType.COMMIT,
    ]
    before = wal.records[1]
    assert (before.file_id, before.page_no, before.image) == (1, 0, IMAGE_A)
    assert wal.records[3].spans == (
        (1, 0, 100, IMAGE_B[100:140]),
        (1, 0, 300, IMAGE_B[300:304]),
        (1, 5, 0, IMAGE_B),             # an allocated page: all of it
    )
    # a later statement dirtying the same page logs its span, no image
    wal.begin("again")
    wal.writable((1, 0), IMAGE_B)
    wal.observe_dirty((1, 0), (8, 2))
    wal.commit(lambda key: IMAGE_A)
    assert [r.type for r in wal.records[5:]] == [
        WalRecordType.BEGIN, WalRecordType.REDO, WalRecordType.COMMIT]
    # a span-less mark_dirty means the whole page
    wal.begin("whole")
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0), (8, 2))
    wal.observe_dirty((1, 0))
    wal.commit(lambda key: IMAGE_B)
    assert wal.records[-2].spans == ((1, 0, 0, IMAGE_B),)
    assert wal.log_bytes == len(wal.serialize()) - len(WAL_MAGIC)


def test_dirty_without_fetch_is_an_error():
    wal = WriteAheadLog()
    wal.begin("x")
    with pytest.raises(WalError, match="without a prior writable"):
        wal.observe_dirty((9, 9))


def test_abort_returns_undo_records_and_drops_tail():
    wal = WriteAheadLog()
    wal.begin("doomed")
    wal.writable((2, 1), IMAGE_A)
    wal.writable((2, 2), IMAGE_B)   # declared writable, never dirtied
    wal.observe_dirty((2, 1), (0, 8))
    wal.observe_alloc(2, 7)
    images, allocated = wal.abort()
    assert images == {(2, 1): IMAGE_A}
    assert allocated == [(2, 7)]
    assert not wal.has_records and wal.log_bytes == 0
    # the image went with the statement: the next one to dirty the page
    # logs it again
    wal.begin("next")
    wal.writable((2, 1), IMAGE_A)
    wal.observe_dirty((2, 1), (0, 8))
    assert [r.type for r in wal.records] == [WalRecordType.BEGIN,
                                            WalRecordType.PAGE_BEFORE]


def test_observe_drop_file_forgets_mid_statement_state():
    wal = WriteAheadLog()
    wal.begin("analyze")
    wal.observe_alloc(42, 0)          # temp file page
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0))
    wal.observe_drop_file(42)
    wal.commit(lambda key: IMAGE_B)
    assert all(r.file_id != 42 for r in wal.records)
    assert [r.type for r in wal.records] == [
        WalRecordType.BEGIN,
        WalRecordType.PAGE_BEFORE,
        WalRecordType.REDO,
        WalRecordType.COMMIT,
    ]
    assert wal.records[2].spans == ((1, 0, 0, IMAGE_B),)


def test_redo_counts_statements_and_their_allocations():
    wal = WriteAheadLog()
    wal.begin("first")
    wal.observe_alloc(1, 0)
    wal.commit(lambda key: IMAGE_A)
    wal.begin("second")
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0))          # its ALLOC is its image
    wal.observe_alloc(1, 1)
    wal.writable((2, 0), IMAGE_B)
    wal.observe_dirty((2, 0))
    wal.mark_crashed()
    done = redo(wal.records)
    assert (done.committed, done.discarded) == (1, 1)
    assert done.sizes == {1: 1}           # the committed ALLOC
    assert done.truncations == {1: 1}     # the crashed one's
    assert done.pages == {(1, 0): bytearray(IMAGE_A),
                          (2, 0): bytearray(IMAGE_B)}
    assert done.redone == {(1, 0)} and done.file_ids == {1, 2}
    assert wal.needs_recovery


def test_serialize_load_round_trip():
    wal = WriteAheadLog()
    wal.begin("persisted")
    wal.writable((3, 2), IMAGE_A)
    wal.observe_dirty((3, 2))
    wal.commit(lambda key: IMAGE_B)
    blob = wal.serialize()
    assert blob.startswith(WAL_MAGIC)
    other = WriteAheadLog()
    assert other.load(blob) == len(wal.records)
    assert other.records == wal.records
    assert other.begin("next") > wal.records[-1].stmt_id  # ids keep advancing


def test_load_rejects_bad_magic_and_garbage():
    with pytest.raises(WalError, match="magic"):
        WriteAheadLog().load(b"NOTAWAL!")
    with pytest.raises(WalError, match="FRWAL001"):
        WriteAheadLog().load(b"FRWAL001")  # the page-image format
    with pytest.raises(WalError):
        WriteAheadLog().load(WAL_MAGIC + b"\x01\x02\x03")


def test_checkpoint_truncates_but_not_mid_statement():
    wal = WriteAheadLog()
    wal.begin("a")
    wal.observe_alloc(1, 0)
    with pytest.raises(WalError):
        wal.checkpoint()
    wal.commit(lambda key: IMAGE_A)
    wal.checkpoint()
    assert not wal.has_records


# ---------------------------------------------------------------------------
# redo-only replay
# ---------------------------------------------------------------------------


def test_replay_rebuilds_pages_from_images_and_committed_spans():
    wal = WriteAheadLog()
    wal.begin("one")
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0), (10, 3))
    wal.observe_alloc(1, 1)
    wal.commit(lambda key: IMAGE_B)
    wal.begin("two")
    wal.writable((1, 0), IMAGE_B)
    wal.observe_dirty((1, 0), (20, 2))
    wal.commit(lambda key: IMAGE_A)
    wal.begin("crashed")                  # never commits
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0), (0, 4))
    wal.writable((1, 2), IMAGE_B)
    wal.observe_dirty((1, 2))
    wal.mark_crashed()
    done = redo(wal.records)
    pages, redone = done.pages, done.redone
    expected = bytearray(IMAGE_A)
    expected[10:13] = IMAGE_B[10:13]
    expected[20:22] = IMAGE_A[20:22]
    assert pages == {(1, 0): expected, (1, 1): bytearray(IMAGE_B),
                     (1, 2): bytearray(IMAGE_B)}
    assert redone == {(1, 0), (1, 1)}     # (1, 2): the crashed one's image
    # a dropped file's records are skipped
    done = redo(wal.records, live=lambda file_id: file_id != 1)
    assert done.pages == {} and done.redone == set()
    assert done.file_ids == {1}           # still named, for invalidation


def test_replay_refuses_a_span_without_an_image():
    wal = WriteAheadLog()
    wal.begin("one")
    wal.writable((1, 0), IMAGE_A)
    wal.observe_dirty((1, 0), (0, 4))
    wal.commit(lambda key: IMAGE_B)
    del wal.records[1]                    # lose the page's image
    with pytest.raises(WalError, match="no image"):
        redo(wal.records)


def test_checkpoint_forgets_which_pages_have_images():
    wal = WriteAheadLog()
    for __ in range(2):
        wal.begin("touch")
        wal.writable((1, 0), IMAGE_A)
        wal.observe_dirty((1, 0), (0, 4))
        wal.commit(lambda key: IMAGE_B)
        assert sum(r.type is WalRecordType.PAGE_BEFORE
                   for r in wal.records) == 1
        wal.checkpoint()
        assert wal.log_bytes == 0
