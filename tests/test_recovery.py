"""Database-level crash safety: atomic statements, recovery, the doctor."""

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.errors import DiskFault, WalError
from repro.objects.instance import ReplicaEntry
from repro.snapshot import SnapshotError, load_database, save_database
from repro.storage.buffer import BufferPool


def make_db(**kwargs) -> Database:
    """A WAL-enabled database with wide records (real page traffic)."""
    db = Database(wal=True, buffer_frames=kwargs.pop("buffer_frames", 8), **kwargs)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 200),
                                           int_field("budget")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 200),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    return db


def populate(db: Database, emps: int = 12):
    depts = [db.insert("Dept", {"name": f"dept{i}", "budget": 100 * i})
             for i in range(3)]
    oids = [db.insert("Emp", {"name": f"emp{i}", "salary": 1000 + i,
                              "dept": depts[i % 3]})
            for i in range(emps)]
    return depts, oids


# ---------------------------------------------------------------------------
# live rollback (logical errors do not need a restart)
# ---------------------------------------------------------------------------


def test_live_rollback_undoes_nested_work():
    db = make_db()
    depts, oids = populate(db)
    db.replicate("Emp.dept.name")
    db.checkpoint()
    before_count = db.catalog.get_set("Emp").count()
    with pytest.raises(RuntimeError, match="boom"):
        with db.recovery.statement("manual"):
            db.insert("Emp", {"name": "ghost", "salary": 1, "dept": depts[0]})
            db.update("Dept", depts[0], {"name": "never-happened"})
            raise RuntimeError("boom")
    assert db.catalog.get_set("Emp").count() == before_count
    assert db.get("Dept", depts[0]).values["name"] == "dept0"
    assert not db.recovery.wal.has_records  # the statement left no trace
    db.verify()
    # the session keeps working without any recovery step
    db.insert("Emp", {"name": "after", "salary": 2, "dept": depts[0]})
    db.verify()


def test_refused_delete_rolls_back_cleanly():
    db = make_db()
    depts, __ = populate(db)
    db.replicate("Emp.dept.name")
    with pytest.raises(Exception):
        db.delete("Dept", depts[0])  # still referenced through the path
    db.verify()
    assert db.get("Dept", depts[0]).values["name"] == "dept0"


# ---------------------------------------------------------------------------
# a propagation that fails half-way: no pin, no half-written page
# ---------------------------------------------------------------------------


def loaded_then_replicated(buffer_frames: int, index: bool = False):
    """Emp is loaded before the path exists, so ``replicate`` widens
    records on full pages: some stay, the rest move out behind a forward
    stub.  Returns the sorted closure under ``depts[0]`` too."""
    db = make_db(buffer_frames=buffer_frames)
    depts, oids = populate(db, emps=60)
    path = db.replicate("Emp.dept.name")
    if index:
        db.build_index("Emp.dept.name")
    db.checkpoint()
    link = db.catalog.get_link(path.link_sequence[0])
    closure = db.replication.inverted.closure_to_source(link, depts[0])
    assert len(closure) == 20
    return db, depts, closure, path.hidden_field_for("name")


def all_pages(db) -> dict:
    db.storage.pool.flush_all()
    disk = db.storage.disk
    return {(fid, page_no): disk.peek_page(fid, page_no)
            for fid in disk.file_ids()
            for page_no in range(disk.num_pages(fid))}


def test_logical_failure_mid_propagation_rolls_every_page_back():
    db, depts, closure, hidden = loaded_then_replicated(8, index=True)
    index = db.catalog.index_on_path("Emp.dept.name").index
    entries = list(index.items())
    before = all_pages(db)
    maintain = index.update
    calls = []

    def update(old, new, oid):
        calls.append(oid)
        if len(calls) == 7:  # the 7th of 20 referencers
            raise RuntimeError("index refused the entry")
        maintain(old, new, oid)

    index.update = update
    with pytest.raises(RuntimeError, match="index refused"):
        db.update("Dept", depts[0], {"name": "renamed"})
    del index.update
    assert calls == closure[:7]  # six referencers were rewritten already
    assert db.storage.pool.pinned_keys() == []
    assert all_pages(db) == before  # the six, and the index, byte for byte
    assert list(index.items()) == entries
    assert not db.recovery.wal.has_records
    db.verify()
    # the session goes on, no recovery step
    db.update("Dept", depts[0], {"name": "renamed"})
    assert {db.get("Emp", oid).values[hidden] for oid in closure} \
        == {"renamed"}
    db.verify()


def test_a_write_site_that_skips_writable_fails_instead_of_rolling_back_wrong(
        monkeypatch):
    """The propagation's in-place writer, made to forget ``writable``,
    changes an Emp page the statement holds no image of: its first
    ``mark_dirty`` raises, the pages that do have images roll back, and
    the page with none is never marked dirty, so nothing reaches the
    disk -- a loud failure, not a rollback that silently keeps a change."""
    db, depts, closure, hidden = loaded_then_replicated(8)
    before = all_pages(db)
    emp_file = closure[0].file_id
    writable = BufferPool.writable

    def forgetful(pool, file_id, page_no):
        if file_id != emp_file:
            writable(pool, file_id, page_no)

    monkeypatch.setattr(BufferPool, "writable", forgetful)
    with pytest.raises(WalError, match="without a prior writable"):
        db.update("Dept", depts[0], {"name": "renamed"})
    monkeypatch.undo()
    assert db.storage.pool.pinned_keys() == []
    assert not db.recovery.wal.has_records
    assert all(key[0] != emp_file for key in db.storage.pool._dirty)
    db.storage.pool.discard_all()  # drop the one frame changed in memory
    assert all_pages(db) == before
    db.verify()


def test_disk_fault_mid_propagation_leaves_no_pin_and_no_statement():
    from repro.recovery.faults import MAX_READ_RETRIES
    from repro.storage.heapfile import _FORWARD, _rid_unpack

    db, depts, closure, hidden = loaded_then_replicated(4)
    pool = db.storage.pool
    emp_file = closure[0].file_id
    # the first page, some way into the closure, that the propagation
    # reaches only by following a forward stub
    touched, victim = set(), None
    for position, oid in enumerate(closure):
        touched.add(oid.page_no)
        with pool.page(emp_file, oid.page_no) as page:
            offset, __ = page.span(oid.slot)
            moved_to = (_rid_unpack(page.data, offset + 1)[0]
                        if page.data[offset] == _FORWARD else None)
        if moved_to is not None:
            if position >= 3 and moved_to not in touched and victim is None:
                victim = moved_to
            touched.add(moved_to)
    assert victim is not None
    db.cold_cache()
    fetch = pool.fetch

    def faulty_fetch(file_id, page_no):
        if (file_id, page_no) == (emp_file, victim):
            # every read now exhausts its retries: a hard fault
            db.faults.transient_read_errors(
                1.0, fail_count=MAX_READ_RETRIES + 1)
        return fetch(file_id, page_no)

    pool.fetch = faulty_fetch
    with pytest.raises(DiskFault, match="retries"):
        db.update("Dept", depts[0], {"name": "renamed"})
    del pool.fetch
    assert pool.pinned_keys() == []
    assert db.recovery.needs_recovery
    with pytest.raises(DiskFault):
        db.insert("Dept", {"name": "x", "budget": 1})
    report = db.recover()
    assert report.verified and report.statements_discarded == 1
    # the statement is wholly absent: not the source, not one referencer
    assert db.get("Dept", depts[0]).values["name"] == "dept0"
    assert {db.get("Emp", oid).values[hidden] for oid in closure} \
        == {"dept0"}
    assert pool.pinned_keys() == []
    db.verify()
    db.update("Dept", depts[0], {"name": "renamed"})
    db.verify()


def test_a_value_that_cannot_be_stored_touches_no_page():
    """Kind and width are checked before the first page is pinned."""
    from repro.errors import FieldError, SerializationError

    db, depts, closure, hidden = loaded_then_replicated(8)
    emp = db.catalog.get_set("Emp")
    db.cold_cache()
    for bad, error in ((7, FieldError), ("x" * 201, SerializationError)):
        before = db.stats.snapshot()
        with pytest.raises(error):
            with db.recovery.statement("manual"):
                db.store.overwrite_fields(emp.heap, emp.type_def, closure,
                                          {hidden: bad}, general=None)
        io = db.stats.snapshot() - before
        assert (io.logical_reads, io.physical_reads) == (0, 0)
        assert not db.recovery.wal.has_records
    assert db.storage.pool.pinned_keys() == []
    db.verify()


# ---------------------------------------------------------------------------
# crash + recover
# ---------------------------------------------------------------------------


def crash_mid_updates(torn: bool, fault_point: int = 3):
    db = make_db(buffer_frames=6)
    depts, oids = populate(db, emps=60)
    db.replicate("Emp.dept.name")
    db.checkpoint()
    db.faults.fail_after_writes(fault_point, torn=torn)
    crashed = False
    try:
        for i, dept in enumerate(depts):
            db.update("Dept", dept, {"name": f"renamed{i}" * 20})
        for oid in oids:
            db.update("Emp", oid, {"salary": 9999})
    except DiskFault:
        crashed = True
    assert crashed, "workload too small to reach the fault point"
    return db, depts, oids


@pytest.mark.parametrize("torn", [False, True])
def test_crash_then_recover_is_all_or_nothing(torn):
    db, depts, oids = crash_mid_updates(torn)
    assert db.recovery.needs_recovery
    # the disk is down: statements fail until the database is recovered
    with pytest.raises(DiskFault):
        db.insert("Dept", {"name": "x", "budget": 1})
    report = db.recover()
    assert not db.recovery.needs_recovery
    assert report.verified
    db.verify()
    # every dept rename is atomic: fully old or fully new, propagation included
    path = db.catalog.get_path("Emp.dept.name")
    hidden = path.hidden_field_for("name")
    for i, dept in enumerate(depts):
        name = db.get("Dept", dept).values["name"]
        assert name in ("dept%d" % i, f"renamed{i}" * 20)
        for oid in oids:
            emp = db.get("Emp", oid)
            if emp.values["dept"] == dept:
                assert emp.values[hidden] == name
    # and the session is fully usable again
    db.insert("Emp", {"name": "post-crash", "salary": 5, "dept": depts[0]})
    db.verify()


def test_recovery_report_and_counter():
    db, __, __ = crash_mid_updates(torn=True)
    before = db.telemetry.metrics.value("recoveries_total")
    report = db.recover()
    assert db.telemetry.metrics.value("recoveries_total") == before + 1
    assert report.statements_replayed + report.statements_discarded >= 1
    text = str(report)
    assert "statement(s) redone" in text and "rolled back" in text


def test_recover_without_wal_is_refused():
    db = Database()  # wal off
    with pytest.raises(DiskFault, match="write-ahead log"):
        db.recover()


def test_checkpoint_truncates_the_log():
    db = make_db()
    populate(db, emps=4)
    assert db.recovery.wal.has_records
    db.checkpoint()
    assert not db.recovery.wal.has_records
    db.verify()


def test_wal_counters_accounted_separately_from_disk_io():
    db = make_db()
    metrics = db.telemetry.metrics
    writes_before = db.stats.physical_writes
    populate(db, emps=6)
    assert metrics.value("wal_records_total", kind="commit") > 0
    assert metrics.value("wal_flushes_total") > 0
    assert metrics.value("wal_bytes_total") > 0
    # the log lives on its own device: appends never touch the data disk
    db2 = Database(buffer_frames=8)
    db2.define_type(db.registry.get("DEPT"))
    db2.define_type(db.registry.get("EMP"))
    db2.create_set("Dept", "DEPT")
    db2.create_set("Emp", "EMP")
    writes2_before = db2.stats.physical_writes
    populate(db2, emps=6)
    assert (db.stats.physical_writes - writes_before
            == db2.stats.physical_writes - writes2_before)


# ---------------------------------------------------------------------------
# crashed snapshots
# ---------------------------------------------------------------------------


def test_crashed_snapshot_recovers_on_load(tmp_path):
    db, depts, oids = crash_mid_updates(torn=True)
    target = tmp_path / "crashed.frdb"
    save_database(db, str(target))  # saved as-is: pages + WAL tail
    db2 = load_database(str(target))
    assert not db2.recovery.needs_recovery  # replayed during load
    db2.verify()
    assert db2.catalog.get_set("Emp").count() == len(oids)
    db2.update("Dept", depts[0], {"budget": 42})
    db2.verify()


def test_healthy_wal_snapshot_round_trips(tmp_path):
    db = make_db()
    depts, __ = populate(db)
    db.replicate("Emp.dept.name")
    target = tmp_path / "healthy.frdb"
    save_database(db, str(target))
    assert not db.recovery.wal.has_records  # saving checkpointed it
    db2 = load_database(str(target))
    assert db2.recovery.enabled
    db2.update("Dept", depts[0], {"name": "fresh"})
    db2.verify()


# ---------------------------------------------------------------------------
# the doctor
# ---------------------------------------------------------------------------


def separate_db():
    db = Database(wal=True, buffer_frames=32)
    db.define_type(TypeDefinition("ORG", [char_field("name", 20),
                                          int_field("budget")]))
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20),
                                           ref_field("org", "ORG")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 20),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Org", "ORG")
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    orgs = [db.insert("Org", {"name": f"org{i}", "budget": i * 10})
            for i in range(2)]
    depts = [db.insert("Dept", {"name": f"dept{i}", "org": orgs[i % 2]})
             for i in range(3)]
    for i in range(6):
        db.insert("Emp", {"name": f"emp{i}", "dept": depts[i % 3]})
    path = db.replicate("Emp.dept.org.budget", strategy="separate")
    return db, path, orgs


def test_doctor_reports_healthy():
    db = make_db()
    populate(db)
    db.replicate("Emp.dept.name")
    report = db.doctor()
    assert report.healthy
    assert report.objects_checked > 0 and report.paths_checked == 1
    assert "no problems found" in report.render()


def test_doctor_detects_and_repairs_inplace_drift():
    db = make_db()
    depts, oids = populate(db)
    path = db.replicate("Emp.dept.name")
    hidden = path.hidden_field_for("name")
    emp_set = db.catalog.get_set("Emp")
    db.replication.apply_hidden_changes(emp_set, oids[0], {hidden: "WRONG"})
    with pytest.raises(Exception):
        db.verify()  # verify sees the drift but cannot say more
    diagnosis = db.doctor()
    assert not diagnosis.healthy
    assert any(f.category == "inplace-value" and f.repairable
               for f in diagnosis.findings)
    cure = db.doctor(repair=True)
    assert cure.repairs >= 1
    db.verify()
    assert db.doctor().healthy
    assert db.telemetry.metrics.value(
        "doctor_repairs_total", category="inplace-value") >= 1


def test_doctor_rebuilds_missing_replica():
    db, path, orgs = separate_db()
    replica_set = db.replication.replica_sets[path.path_id]
    roid, __ = next(iter(replica_set.scan()))
    replica_set.raw_delete(roid)  # vandalise: drop a replica object
    diagnosis = db.doctor()
    assert any(f.category == "replica-set" and f.repairable
               for f in diagnosis.findings)
    cure = db.doctor(repair=True)
    assert cure.repairs >= 1
    db.verify()
    assert db.doctor().healthy


def test_doctor_repairs_stale_replica_and_refcount():
    db, path, orgs = separate_db()
    replica_set = db.replication.replica_sets[path.path_id]
    roid, replica = next(iter(replica_set.scan()))
    replica.set("budget", -777)
    replica_set.raw_update(roid, replica)
    terminal_oid = orgs[0]
    terminal = db.store.read(terminal_oid)
    entry = terminal.replica_entry_for(path.path_id)
    terminal.set_replica_entry(
        ReplicaEntry(entry.replica_oid, entry.refcount + 5, path.path_id))
    db.store.update(terminal_oid, terminal)
    diagnosis = db.doctor()
    categories = {f.category for f in diagnosis.findings}
    assert "replica-value" in categories
    assert "replica-refcount" in categories
    db.doctor(repair=True)
    db.verify()
    assert db.doctor().healthy


def test_doctor_removes_orphan_replicas():
    db, path, orgs = separate_db()
    replica_set = db.replication.replica_sets[path.path_id]
    orphan = replica_set.make_object({"budget": 123456})
    replica_set.raw_insert(orphan)
    diagnosis = db.doctor()
    assert any(f.category == "replica-orphan" for f in diagnosis.findings)
    db.doctor(repair=True)
    db.verify()
    assert db.doctor().healthy


def test_doctor_reports_structural_damage_without_guessing():
    db = make_db()
    depts, oids = populate(db, emps=3)
    db.catalog.get_set("Dept").raw_delete(depts[0])  # dangling forward refs
    report = db.doctor(repair=True)
    assert any(f.category == "dangling-ref" and not f.repairable
               for f in report.findings)
    assert all(not f.repaired for f in report.findings
               if f.category == "dangling-ref")


# ---------------------------------------------------------------------------
# snapshot hardening (malformed images raise SnapshotError, never tracebacks)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        b"",                                    # empty file
        b"FRE",                                 # shorter than the magic
        b"XXXXXXXX" + b"\x00" * 64,             # wrong magic
        b"FREPDB01",                            # magic, no header length
        b"FREPDB01" + b"\xff" * 8,              # absurd header length
        b"FREPDB01" + (2**40).to_bytes(8, "big"),
        b"FREPDB01" + (20).to_bytes(8, "big") + b"not json at all!!!!!",
        b"FREPDB01" + (2).to_bytes(8, "big") + b"[]",   # JSON, wrong shape
        b"FREPDB01" + (2).to_bytes(8, "big") + b"{}",   # header missing keys
    ],
)
def test_malformed_snapshot_raises_snapshot_error(tmp_path, payload):
    target = tmp_path / "image.frdb"
    target.write_bytes(payload)
    with pytest.raises(SnapshotError):
        load_database(str(target))


def test_truncated_snapshot_pages_raise_snapshot_error(tmp_path):
    db = make_db()
    populate(db, emps=4)
    target = tmp_path / "image.frdb"
    save_database(db, str(target))
    blob = target.read_bytes()
    target.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(SnapshotError):
        load_database(str(target))
