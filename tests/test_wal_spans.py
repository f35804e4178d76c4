"""The redo log records exactly what a statement changed.

Each write site declares its intent with ``pool.writable`` before it
first changes a page -- that is when the statement's before-image is
taken -- and reports the bytes it changed as a span, or the whole page;
the statement's one REDO record carries those spans' after-bytes.  That
is only safe if the images are pre-statement and the spans *cover* every
change: the oracle here wraps :meth:`WriteAheadLog.commit` and requires,
for every page the statement dirtied, a write-intent snapshot equal to
the page as the statement first pinned it, and, for every page it pinned
at all, that pre-statement page patched with the statement's spans to
equal the frame byte for byte -- over every parity case of
``test_write_path.py`` at 4, 8 and 64 frames, and over inserts, deletes,
relocations, B+-tree splits and DDL.

The spans are also tight: an overwrite logs, per record, the bytes from
its first changed field to the end of its last -- a propagation the *k*
bytes of each referencer's hidden copy -- and nothing of the header, the
link and replica entries or the other fields.

Also here: a read takes no snapshot and a write site that skips
``writable`` is refused, a page first imaged by a statement that rolls
back is imaged again by the next one (so a torn write of it still heals),
a snapshot whose WAL tail is in the old format is refused by name, and a
served primary keeps its log bounded by checkpointing.
"""

from types import SimpleNamespace

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.errors import DiskFault, WalError
from repro.objects.encoding import encode_fields, value_section
from repro.recovery.wal import WalRecordType, WriteAheadLog
from repro.snapshot import SnapshotError, load_database, save_database
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import _FORWARD, _rid_unpack
from tests.test_write_path import CASES, FRAMES, _apply, _company, _database

# ---------------------------------------------------------------------------
# the span-coverage oracle
# ---------------------------------------------------------------------------


@pytest.fixture()
def spans_checked(monkeypatch):
    """Check every commit's images and spans against its pages; yields the
    list of statements checked (``(snapshots taken, spans logged)``
    each)."""
    begin, commit = WriteAheadLog.begin, WriteAheadLog.commit
    fetch = BufferPool.fetch
    pinned = {}  # page -> its image at the statement's first pin of it
    checked = []

    def clearing_begin(self, note=""):
        pinned.clear()
        return begin(self, note)

    def recording_fetch(pool, file_id, page_no):
        page = fetch(pool, file_id, page_no)
        if pool.wal is not None and pool.wal._scope() is not None:
            pinned.setdefault((file_id, page_no), bytes(page.data))
        return page

    def checking_commit(self, read_image):
        scope = self._scope()
        snapshots = dict(scope.snapshots) if scope is not None else {}
        dirtied = ([key for key in scope.spans if key not in scope.allocated]
                   if scope is not None else [])
        first = len(self.records)
        lsn = commit(self, read_image)
        for key in dirtied:
            assert key in snapshots, f"page {key} dirtied with no image"
            assert snapshots[key] == pinned[key], (
                f"page {key}'s image is not its pre-statement image")
        patched = {key: bytearray(image) for key, image in pinned.items()}
        spans = [span for record in self.records[first:]
                 if record.type is WalRecordType.REDO
                 for span in record.spans]
        for file_id, page_no, offset, data in spans:
            page = patched.get((file_id, page_no))
            if page is not None:  # an allocated page: no snapshot
                page[offset:offset + len(data)] = data
        for key, page in patched.items():
            assert page == bytes(read_image(key)), (
                f"page {key} changed outside the spans its statement logged")
        checked.append((len(snapshots), len(spans)))
        return lsn

    monkeypatch.setattr(BufferPool, "fetch", recording_fetch)
    monkeypatch.setattr(WriteAheadLog, "begin", clearing_begin)
    monkeypatch.setattr(WriteAheadLog, "commit", checking_commit)
    return checked


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("case", list(CASES))
def test_spans_cover_every_change_of_the_write_path(spans_checked, case,
                                                    frames):
    build, script = CASES[case]
    db = _database(frames, wal=True, reference=False)
    ctx = build(db)
    spans_checked.clear()  # the build was checked too; count the script
    for op in script:
        _apply(db, ctx, op)
    assert any(spans for __, spans in spans_checked)
    db.verify()


def _structural(db):
    """Inserts that fill and allocate pages and split a B+-tree, deletes,
    same-length rewrites, relocations and DDL between statements."""
    ctx = _company(db, pad=300, emps=30, before=[("Emp.dept.name", {})])
    emp = db.catalog.get_set("Emp")
    yield
    db.build_index("Emp.salary")                       # DDL: a checkpoint
    ctx.emps += [db.insert("Emp", {"name": f"new{i}", "salary": 100 + i,
                                   "dept": ctx.depts[i % 8]})
                 for i in range(120)]                  # node splits
    yield
    for oid in ctx.emps[:40:3]:
        db.delete("Emp", oid)
    yield
    db.update("Emp", ctx.emps[1], {"name": "same-length rewrite"})
    db.update("Emp", ctx.emps[5], {"dept": ctx.depts[1]})  # and its copy
    db.update("Dept", ctx.depts[2], {"name": "renamed"})
    db.replicate("Emp.dept.budget")                    # widens: relocations
    yield
    db.update("Dept", ctx.depts[2], {"budget": 5})
    db.update("Dept", ctx.depts[3], {"name": "again", "budget": 6})
    db.execute('replace (Emp.salary = 7) where Emp.salary >= 150')
    db.drop_index(db.catalog.index_on_field("Emp", "salary").name)
    db.update("Emp", ctx.emps[4], {"salary": 8})
    assert emp.count() == len(ctx.emps) - len(ctx.emps[:40:3])


@pytest.mark.parametrize("frames", FRAMES)
def test_spans_cover_inserts_deletes_relocations_splits_and_ddl(
        spans_checked, frames):
    db = _database(frames, wal=True, reference=False)
    for __ in _structural(db):
        db.verify()
    logged = [spans for __, spans in spans_checked if spans]
    assert len(logged) > 100
    db.verify()


def test_a_propagation_logs_spans_not_pages():
    """An update of one dept rewrites each referencer's payload where it
    lies: one REDO record whose spans are records, not pages."""
    db = _database(64, wal=True, reference=False)
    ctx = CASES["two-level"][0](db)
    wal = db.recovery.wal
    first = len(wal.records)
    _apply(db, ctx, ("org", 0, "acme"))
    records = wal.records[first:]
    (redo,) = [r for r in records if r.type is WalRecordType.REDO]
    assert len(redo.spans) >= 120 + 1   # the referencers and the org
    assert all(len(data) < 200 for __, __, __, data in redo.spans)
    assert [r.type for r in records].count(WalRecordType.COMMIT) == 1


def test_a_propagation_images_the_pages_it_writes_not_those_it_pins(
        spans_checked):
    """The update reads index nodes, link objects and the closure's
    pages; only the pages it changes are copied."""
    db = _database(64, wal=True, reference=False)
    ctx = CASES["two-level"][0](db)
    wal = db.recovery.wal
    spans_checked.clear()
    first = len(wal.records)
    _apply(db, ctx, ("org", 0, "acme"))
    (redo,) = [r for r in wal.records[first:]
               if r.type is WalRecordType.REDO]
    dirtied = {(file_id, page_no) for file_id, page_no, __, __ in redo.spans}
    assert spans_checked[-1][0] == len(dirtied)


# ---------------------------------------------------------------------------
# span tightness: an overwrite logs the field bytes it changed
# ---------------------------------------------------------------------------


def _field_span(db, set_name, oid, first, last=None):
    """``(file_id, page_no, offset, length)`` in the page of the bytes
    from field ``first`` to the end of field ``last`` (default ``first``)
    of the stored object ``oid`` -- on the page a forward stub names, if
    the record was moved.  Reads the page and the record's header."""
    obj_set = db.catalog.get_set(set_name)
    type_def = obj_set.type_def
    pool, file_id = db.storage.pool, obj_set.file_id
    page_no, slot = oid.page_no, oid.slot
    with pool.page(file_id, page_no) as page:
        offset, __ = page.span(slot)
        if page.data[offset] == _FORWARD:
            page_no, slot = _rid_unpack(page.data, offset + 1)
    with pool.page(file_id, page_no) as page:
        offset, length = page.span(slot)
        base = value_section(bytes(page.data[offset + 2:offset + length]),
                             db.registry.tag_of(type_def.name), type_def)
    assert base is not None
    start = type_def.layout[first][1]
    last_def, last_at = type_def.layout[last or first]
    return (file_id, page_no, offset + 2 + base + start,
            last_at + last_def.width - start)


def _redo_of(db, statement):
    """Run ``statement()``; the ``(file_id, page_no, offset, data)`` spans
    of the one REDO record it logged."""
    wal = db.recovery.wal
    first = len(wal.records)
    statement()
    (redo,) = [r for r in wal.records[first:]
               if r.type is WalRecordType.REDO]
    return redo.spans


def _where(spans):
    return sorted((f, p, offset, len(data)) for f, p, offset, data in spans)


def test_a_one_field_replace_logs_that_field_per_object(spans_checked):
    """``replace (Emp.salary = 100)`` over every Emp: one span per Emp,
    an int wide, exactly where its salary lies."""
    ctx = _company_db()
    db = ctx.db
    spans = _redo_of(db, lambda: db.execute(
        "replace (Emp.salary = 100) where Emp.salary >= 0"))
    assert len(spans) == len(ctx.emps)
    assert _where(spans) == sorted(_field_span(db, "Emp", oid, "salary")
                                   for oid in ctx.emps)
    salary = encode_fields(db.catalog.get_set("Emp").type_def,
                           {"salary": 100})[0][2]
    assert all(data == salary for __, __, __, data in spans)
    db.verify()


@pytest.mark.parametrize("case", ["plain", "stubs"])
def test_a_propagation_logs_k_bytes_per_referencer(spans_checked, case):
    """Renaming a dept logs its name and, per referencer, the k bytes of
    the hidden copy: no span reaches a header, a link or replica entry or
    another field.  Under ``stubs`` part of the referencers were moved
    behind a forward stub; their spans lie on the page they moved to."""
    db = _database(64, wal=True, reference=False)
    ctx = CASES[case][0](db)
    dept = ctx.depts[0]
    referencers = [oid for oid in ctx.emps
                   if db.get("Emp", oid).values["dept"] == dept]
    (hidden,) = [f.name for f in db.catalog.get_set("Emp").type_def.fields
                 if f.hidden]
    spans = _redo_of(db, lambda: db.update("Dept", dept, {"name": "renamed"}))
    expected = [_field_span(db, "Dept", dept, "name")] + [
        _field_span(db, "Emp", oid, hidden) for oid in referencers]
    assert len(spans) == 1 + len(referencers)
    assert _where(spans) == sorted(expected)
    assert {len(data) for __, __, __, data in spans} == {20}
    moved = [span for oid, span in zip(referencers, expected[1:])
             if span[1] != oid.page_no]
    assert bool(moved) == (case == "stubs")
    db.verify()


def test_a_two_field_replace_logs_one_span_from_first_to_last(spans_checked):
    """Name and dept change; salary lies between them and keeps its bytes
    inside the one span each record logs."""
    ctx = _company_db()
    db = ctx.db
    spans = _redo_of(db, lambda: db.update_many(
        "Emp", ctx.emps, {"dept": ctx.depts[2], "name": "both"}))
    assert _where(spans) == sorted(_field_span(db, "Emp", oid, "name", "dept")
                                   for oid in ctx.emps)
    assert [db.get("Emp", oid).values["salary"] for oid in ctx.emps] \
        == list(range(len(ctx.emps)))
    db.verify()


# ---------------------------------------------------------------------------
# write intent: a read copies nothing, a forgotten writable() is refused
# ---------------------------------------------------------------------------


def test_a_retrieve_in_a_wal_scope_takes_no_snapshot(monkeypatch):
    db = _database(8, wal=True, reference=False)
    CASES["two-level"][0](db)
    db.storage.cold_cache()  # every pin of the read below is a miss
    taken = []
    commit = WriteAheadLog.commit
    monkeypatch.setattr(WriteAheadLog, "commit", lambda self, read_image: (
        taken.append(dict(self._scope().snapshots)),
        commit(self, read_image))[1])
    result = db.execute("retrieve (Emp.name, Emp.dept.name)")
    assert len(result) > 0 and result.io.physical_reads > 0
    assert taken == [{}]  # its result file T is allocated: no image


def test_mark_dirty_without_writable_is_refused():
    db = _database(8, wal=True, reference=False)
    ctx = CASES["two-level"][0](db)
    pool, oid = db.storage.pool, ctx.emps[0]
    with pytest.raises(WalError, match="without a prior writable"):
        with db.recovery.statement("forgetful"):
            with pool.page(oid.file_id, oid.page_no):
                pool.mark_dirty(oid.file_id, oid.page_no)
    assert pool.pinned_keys() == [] and not db.recovery.wal.in_statement


# ---------------------------------------------------------------------------
# a rolled-back first touch, then a torn write
# ---------------------------------------------------------------------------


def _company_db() -> SimpleNamespace:
    """Two Depts a page, so the second one's budget lies in the half of
    its page a torn write leaves old."""
    db = Database(wal=True, buffer_frames=8)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 1800),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 200),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": i})
             for i in range(3)]
    emps = [db.insert("Emp", {"name": f"emp{i}", "salary": i,
                              "dept": depts[i % 3]})
            for i in range(12)]
    db.checkpoint()
    return SimpleNamespace(db=db, depts=depts, emps=emps)


def test_a_page_first_touched_by_a_rolled_back_statement_still_heals():
    ctx = _company_db()
    db, dept = ctx.db, ctx.depts[1]
    key = (dept.file_id, dept.page_no)
    with pytest.raises(RuntimeError, match="refused"):
        with db.recovery.statement("doomed"):
            db.update("Dept", dept, {"budget": 666})   # the first touch
            raise RuntimeError("refused")
    assert not db.recovery.wal.has_records
    db.update("Dept", dept, {"budget": 42})            # commits
    images = [r for r in db.recovery.wal.records
              if r.type is WalRecordType.PAGE_BEFORE]
    assert [(r.file_id, r.page_no) for r in images] == [key]
    db.faults.fail_after_writes(0, torn=True)
    with pytest.raises(DiskFault, match="torn"):
        db.cold_cache()                                # tears the Dept page
    disk = db.storage.disk
    torn = disk.peek_page(*key)
    report = db.recover()
    assert disk.peek_page(*key) != torn
    assert report.statements_replayed == 1 and report.pages_redone == 1
    assert db.get("Dept", dept).values["budget"] == 42
    assert [db.get("Dept", d).values["budget"] for d in ctx.depts] \
        == [0, 42, 2]
    db.verify()


# ---------------------------------------------------------------------------
# the format version
# ---------------------------------------------------------------------------


def test_a_snapshot_with_an_old_format_wal_tail_is_refused(tmp_path):
    ctx = _company_db()
    db = ctx.db
    db.faults.fail_after_writes(0)
    with pytest.raises(DiskFault):
        for oid in ctx.emps:
            db.update("Emp", oid, {"salary": 7})
        db.cold_cache()
    target = tmp_path / "crashed.frdb"
    save_database(db, str(target))
    blob = target.read_bytes()
    tail = db.recovery.wal.serialize()
    assert blob.endswith(tail) and tail.startswith(b"FRWAL002")
    target.write_bytes(blob[:-len(tail)] + b"FRWAL001" + tail[8:])
    with pytest.raises(SnapshotError, match="FRWAL001"):
        load_database(str(target))
    target.write_bytes(blob)
    assert load_database(str(target)).catalog.get_set("Emp").count() == 12


# ---------------------------------------------------------------------------
# served: the checkpoint trigger and a follower's result cache
# ---------------------------------------------------------------------------


def test_a_served_primary_keeps_its_log_bounded(monkeypatch):
    """Many updates on a small database: after every statement the log
    holds at most the trigger plus that statement, the trigger has fired
    several times over, and the database stays verified and healthy."""
    from repro.server import connect
    from repro.server.httpexpo import MetricsHTTPServer
    from repro.server.service import Server
    from repro.server.session import CHECKPOINT_LOG_MULTIPLE

    ctx = _company_db()
    db = ctx.db
    wal, metrics = db.recovery.wal, db.telemetry.metrics
    checkpoints = []
    checkpoint = db.recovery.checkpoint
    monkeypatch.setattr(db.recovery, "checkpoint",
                        lambda: checkpoints.append(1) or checkpoint())
    server = Server(db).start()
    sidecar = MetricsHTTPServer(server).start()
    try:
        with connect(*server.address) as client:
            for i in range(60):
                appended = metrics.value("wal_bytes_total")
                # the 200-byte name: an update logs the bytes it changes,
                # so an int salary would not reach the trigger
                client.execute(f"replace (Emp.name = 'renamed{i}') "
                               f"where Emp.salary >= 0")
                statement = metrics.value("wal_bytes_total") - appended
                trigger = (CHECKPOINT_LOG_MULTIPLE
                           * db.storage.disk.data_bytes())
                assert wal.log_bytes <= trigger + statement
            assert client.meta("verify") == "all replication invariants hold"
            status, body = _get_health(sidecar)
    finally:
        sidecar.shutdown()
        server.shutdown()
    assert len(checkpoints) >= 3
    assert metrics.value("wal_bytes_total") > len(checkpoints) * trigger
    assert status == 200 and body["status"] == "ok" and body["doctor_clean"]
    db.verify()


def _get_health(sidecar):
    import json
    from urllib.request import urlopen

    with urlopen(f"http://{sidecar.host}:{sidecar.port}/health",
                 timeout=10.0) as response:
        return response.status, json.loads(response.read())


def test_a_follower_invalidates_its_cached_reads_from_the_spans():
    """A follower's cached read of Emp1 (the hidden ``dept.name`` copy)
    must go when the primary renames a dept: the shipped entry names the
    Emp1 file only inside its redo spans."""
    from repro.server import connect
    from repro.server.replica import Replica, ReplicaServer
    from repro.server.service import Server
    from tests.test_replication_stream import _populate, _wait_caught_up

    primary = Server(Database(wal=True), port=0).start()
    follower = ReplicaServer(
        Replica(primary.address, name="r1", poll_wait=0.05,
                min_backoff=0.01, max_backoff=0.2), port=0).start()
    follower.db.resultcache.enabled = True
    read = 'retrieve (Emp1.name, Emp1.dept.name) where Emp1.name = "alice"'
    try:
        with connect(*primary.address) as client, \
                connect(*follower.address) as reader:
            _populate(primary, client)
            _wait_caught_up(follower.replica, primary)
            assert [list(r) for r in reader.execute(read).rows] \
                == [["alice", "toys"]]
            assert len(follower.db.resultcache) == 1
            client.execute('replace (Dept1.name = "games") '
                           'where Dept1.name = "toys"')
            _wait_caught_up(follower.replica, primary)
            assert len(follower.db.resultcache) == 0
            assert [list(r) for r in reader.execute(read).rows] \
                == [["alice", "games"]]
    finally:
        follower.die()
        primary.die()
