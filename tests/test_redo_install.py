"""One redo path: what installing pages costs, and what it leaves behind.

Crash recovery, live rollback and a follower's apply rebuild pages with
one applier (``repro.recovery.wal.redo``) and install them with one step
(``RecoveryManager.install``).  Derived state follows the pages
installed: a heap page's free-space entry is read off its new image and
an index is reopened only when a page of its file was.  These tests
hold that step to two things:

* a follower pins no more pages per applied entry than the entry's
  records name;
* what it leaves behind -- every heap's free-space map, every tree's
  root and height, every index's statistics -- equals what a full
  rebuild computes on the same database, on a follower fed inserts that
  allocate pages and split an index and deletes that free space, and on
  a primary whose live rollback truncated what the statement allocated.
"""

import functools

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.recovery.wal import WalRecordType
from repro.server.replica import Replica
from repro.server.replog import ReplicationHub
from repro.snapshot import load_database, save_database
from repro.workloads import generator


def _derived(db) -> tuple:
    """Every piece of state the install step derives from pages."""
    heaps = {heap.file_id: dict(heap._free_space)
             for heap in db.storage.heap_files()}
    indexes = {name: (info.index.tree.root_page, info.index.tree.height,
                      info.index.stat_count, info.index.stat_min,
                      info.index.stat_max)
               for name, info in db.catalog.indexes.items()}
    return heaps, indexes


def _assert_equals_a_full_rebuild(db) -> None:
    kept = _derived(db)
    db.recovery._refresh(None)
    assert kept == _derived(db)


def _pages(db) -> dict:
    db.storage.pool.flush_all()
    disk = db.storage.disk
    return {(fid, page_no): disk.peek_page(fid, page_no)
            for fid in sorted(disk.file_ids())
            for page_no in range(disk.num_pages(fid))}


def _pair(tmp_path, db):
    """A primary and a follower loaded from one snapshot of ``db``, with
    the primary's commits captured into a replication hub."""
    path = str(tmp_path / "seed.db")
    save_database(db, path)
    primary, follower = load_database(path), load_database(path)
    return primary, ReplicationHub(primary), follower


def _follow(hub, follower):
    """Apply every captured entry through the follower's apply step;
    yields each entry with the logical reads its apply took."""
    replica = Replica(("127.0.0.1", 1), db=follower)
    stats = follower.storage.stats
    for entry in hub.log.entries_after(0, max_entries=1 << 20):
        before = stats.logical_reads
        replica._apply(entry)
        yield entry, stats.logical_reads - before
    assert replica.applied_lsn == hub.log.last_lsn


def _named_pages(entry) -> set:
    pages = set()
    for record in entry.records():
        if record.type is WalRecordType.ALLOC:
            pages.add((record.file_id, record.page_no))
        elif record.type is WalRecordType.REDO:
            pages.update((span[0], span[1]) for span in record.spans)
    return pages


def test_a_follower_pins_only_what_an_entry_touches(tmp_path, monkeypatch):
    """The harness's ``mixed_prop`` update, on the paper's R -> S schema
    at a tenth of the harness's scale: per applied entry, the follower
    pins no more pages than the entry names."""
    monkeypatch.setattr(generator, "Database",
                        functools.partial(Database, wal=True))
    config = generator.WorkloadConfig(n_s=200, f=5, k=20, r=100, s=200,
                                      clustered=False, strategy="inplace",
                                      seed=1)
    primary, hub, follower = _pair(
        tmp_path, generator.build_model_database(config).db)
    for i, lo in enumerate(range(0, 190, 19)):
        primary.execute(f"replace (S.repfield = 'u{i}') "
                        f"where S.field_s >= {lo} and S.field_s <= {lo + 9}")
    applied = list(_follow(hub, follower))
    assert len(applied) == 10
    for entry, pins in applied:
        assert entry.kind == "dml"
        assert pins <= len(_named_pages(entry)), entry.note
    assert _pages(follower) == _pages(primary)
    _assert_equals_a_full_rebuild(follower)
    follower.verify()


def _company() -> tuple:
    db = Database(wal=True, buffer_frames=64)
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20)]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 300),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    db.create_set("Dept", "DEPT")
    db.create_set("Emp", "EMP")
    depts = [db.insert("Dept", {"name": f"d{i}"}) for i in range(3)]
    for i in range(30):
        db.insert("Emp", {"name": f"e{i}", "salary": i, "dept": depts[i % 3]})
    db.replicate("Emp.dept.name")
    db.build_index("Emp.salary")
    db.checkpoint()
    return db, depts


def test_a_follower_keeps_derived_state_page_by_page(tmp_path):
    db, depts = _company()
    primary, hub, follower = _pair(tmp_path, db)
    emp_pages = primary.storage.disk.num_pages(
        primary.catalog.sets["Emp"].file_id)
    height = primary.catalog.indexes["idx1_Emp_salary"].index.tree.height
    # inserts that allocate heap pages and split the index
    oids = [primary.insert("Emp", {"name": f"n{i}", "salary": 1000 + i,
                                   "dept": depts[i % 3]})
            for i in range(600)]
    # deletes that free space, then a propagation
    for oid in oids[::3]:
        primary.delete("Emp", oid)
    primary.execute('replace (Dept.name = "games") where Dept.name = "d1"')
    assert primary.storage.disk.num_pages(
        primary.catalog.sets["Emp"].file_id) > emp_pages
    assert primary.catalog.indexes["idx1_Emp_salary"].index.tree.height \
        > height
    kinds = [entry.kind for entry, __ in _follow(hub, follower)]
    assert kinds and set(kinds) == {"dml"}
    assert _pages(follower) == _pages(primary)
    _assert_equals_a_full_rebuild(follower)
    assert _derived(follower)[1] == _derived(primary)[1]
    follower.verify()


def test_a_live_rollback_keeps_derived_state_page_by_page():
    db, depts = _company()
    emp_file = db.catalog.sets["Emp"].file_id
    index = db.catalog.indexes["idx1_Emp_salary"].index
    before = (db.storage.disk.num_pages(emp_file),
              db.storage.disk.num_pages(index.tree.file_id))
    with pytest.raises(RuntimeError, match="refused"):
        with db.recovery.statement("doomed"):
            for i in range(600):
                db.insert("Emp", {"name": f"n{i}", "salary": 1000 + i,
                                  "dept": depts[i % 3]})
            assert db.storage.disk.num_pages(emp_file) > before[0]
            assert index.tree.height > 1
            raise RuntimeError("refused")
    assert (db.storage.disk.num_pages(emp_file),
            db.storage.disk.num_pages(index.tree.file_id)) == before
    # no free-space entry is left for a page the rollback cut off
    heap = db.storage.file_by_id(emp_file)
    assert max(heap._free_space) == before[0] - 1
    _assert_equals_a_full_rebuild(db)
    assert index.stat_count == 30 and index.stat_max == 29
    db.insert("Emp", {"name": "after", "salary": 7, "dept": depts[0]})
    db.verify()
