"""WAL frame decoding robustness: garbage in, ``WalError`` out.

Log records now also arrive off the replication wire, so a malformed
frame must never surface as ``struct.error`` / ``UnicodeDecodeError`` /
``IndexError`` -- any of those escaping :meth:`WalRecord.decode` would
kill a follower's apply loop instead of tripping its reconnect path.
"""

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import WalError
from repro.recovery.wal import WalRecord, WalRecordType
from repro.storage.constants import PAGE_SIZE


def _sample_records() -> list[WalRecord]:
    return [
        WalRecord(WalRecordType.BEGIN, 1, note="insert Emp1"),
        WalRecord(WalRecordType.ALLOC, 1, file_id=3, page_no=7),
        WalRecord.redo(1, ((3, 7, 0, bytes(PAGE_SIZE)), (3, 2, 40, b"k" * 20))),
        WalRecord(WalRecordType.COMMIT, 1),
        WalRecord(WalRecordType.PAGE_BEFORE, 1, file_id=3, page_no=2,
                  image=bytes(range(256)) * (PAGE_SIZE // 256)),
    ]


# ---------------------------------------------------------------------------
# round-trip sanity: what encode produces, decode accepts
# ---------------------------------------------------------------------------


def test_round_trip_all_record_types():
    blob = b"".join(r.encode() for r in _sample_records())
    offset = 0
    seen = []
    while offset < len(blob):
        record, offset = WalRecord.decode(blob, offset)
        seen.append(record)
    assert [r.type for r in seen] == [r.type for r in _sample_records()]
    assert seen[0].note == "insert Emp1"
    assert seen[2].spans[0] == (3, 7, 0, bytes(PAGE_SIZE))
    assert seen == _sample_records()


#: one redo span: file, page, and bytes that lie inside the page
_SPANS = st.integers(min_value=1, max_value=PAGE_SIZE).flatmap(
    lambda length: st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=PAGE_SIZE - length),
        st.binary(min_size=length, max_size=length)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(_SPANS, min_size=1, max_size=6))
def test_redo_records_round_trip(stmt_id, spans):
    record = WalRecord.redo(stmt_id, spans)
    assert record.spans == tuple(spans)
    blob = record.encode()
    assert WalRecord.decode(blob) == (record, len(blob))


# ---------------------------------------------------------------------------
# fuzz: arbitrary bytes and corrupted real frames never crash the decoder
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256), st.integers(min_value=-4, max_value=260))
def test_decode_garbage_never_crashes(data, offset):
    try:
        WalRecord.decode(data, offset)
    except WalError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4200),
       st.integers(min_value=0, max_value=255))
def test_single_byte_corruption_is_rejected_or_reframed(which, pos, value):
    """Flip one byte of a valid frame: decode either raises WalError or
    returns a (coincidentally) well-formed record -- never crashes."""
    blob = _sample_records()[which].encode()
    pos %= len(blob)
    if blob[pos] == value:
        value = (value + 1) % 256
    corrupted = blob[:pos] + bytes([value]) + blob[pos + 1:]
    try:
        record, nxt = WalRecord.decode(corrupted)
    except WalError:
        return
    assert isinstance(record, WalRecord)
    assert 0 < nxt <= len(corrupted)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_truncated_tail_is_rejected(which, data):
    blob = _sample_records()[which].encode()
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(WalError):
        WalRecord.decode(blob[:cut])


# ---------------------------------------------------------------------------
# targeted malformations: CRC-valid bodies with hostile contents
# ---------------------------------------------------------------------------


_FRAME = struct.Struct(">II")        # length + crc, as in repro.recovery.wal


def _frame(body: bytes, length: int | None = None) -> bytes:
    return _FRAME.pack(len(body) if length is None else length,
                       zlib.crc32(body)) + body


def test_empty_body_rejected():
    with pytest.raises(WalError):
        WalRecord.decode(_frame(b""))


def test_unknown_record_type_rejected():
    body = struct.pack(">BQ", 250, 1)
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body))


def test_lying_length_header_rejected():
    body = struct.pack(">BQ", int(WalRecordType.COMMIT), 1)
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body, length=len(body) + 10_000))


def test_begin_note_length_mismatch_rejected():
    # note_len claims 200 bytes, only 3 present
    body = struct.pack(">BQ", int(WalRecordType.BEGIN), 1)
    body += struct.pack(">H", 200) + b"abc"
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body))


def test_begin_note_invalid_utf8_rejected():
    raw = b"\xff\xfe\xfd"
    body = struct.pack(">BQ", int(WalRecordType.BEGIN), 1)
    body += struct.pack(">H", len(raw)) + raw
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body))


def test_short_page_image_rejected():
    body = struct.pack(">BQ", int(WalRecordType.PAGE_BEFORE), 1)
    body += struct.pack(">II", 3, 7) + b"short"
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body))


def test_commit_trailing_bytes_rejected():
    body = struct.pack(">BQ", int(WalRecordType.COMMIT), 1) + b"junk"
    with pytest.raises(WalError):
        WalRecord.decode(_frame(body))


def _redo(count: int, *spans: tuple, tail: bytes = b"") -> bytes:
    """A REDO body claiming ``count`` spans, each ``(offset, length,
    bytes)`` on page (3, 7), then ``tail``."""
    body = struct.pack(">BQI", int(WalRecordType.REDO), 1, count)
    for offset, length, data in spans:
        body += struct.pack(">IIHH", 3, 7, offset, length) + data
    return _frame(body + tail)


def test_redo_well_formed_body_accepted():
    record, __ = WalRecord.decode(_redo(2, (0, 3, b"abc"), (4093, 3, b"xyz")))
    assert record.spans == ((3, 7, 0, b"abc"), (3, 7, 4093, b"xyz"))


@pytest.mark.parametrize("blob", [
    _redo(1, (PAGE_SIZE - 2, 3, b"abc")),          # runs past the page
    _redo(1, (PAGE_SIZE, 1, b"a")),                # starts past the page
    _redo(1, (0, 0, b"")),                         # empty span
    _redo(2, (0, 3, b"abc")),                      # count claims one more
    _redo(1, (0, 3, b"abc"), tail=b"\x00"),        # trailing byte
    _redo(1, (0, 3, b"abc"), (5, 1, b"z")),        # count claims one fewer
    _redo(1, (0, 5, b"abc")),                      # span truncated
    _redo(0),                                      # no span at all
    _redo(2**32 - 1, (0, 3, b"abc")),              # absurd count
    _frame(struct.pack(">BQ", int(WalRecordType.REDO), 1) + b"\x00\x01"),
], ids=["past-page", "offset-past-page", "empty", "count-high", "trailing",
        "count-low", "truncated", "none", "absurd-count", "short-count"])
def test_malformed_redo_body_rejected(blob):
    with pytest.raises(WalError):
        WalRecord.decode(blob)


def test_redo_refuses_a_span_outside_the_page():
    for spans in (((1, 2, PAGE_SIZE - 1, b"ab"),), ((1, 2, 0, b""),), ()):
        with pytest.raises(WalError):
            WalRecord.redo(1, spans)
