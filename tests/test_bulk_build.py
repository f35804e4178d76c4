"""Parity of the sort build of ``replicate`` with the per-object loop it
replaced.

``replicate`` on a populated set used to build its structures one
referencer at a time: per source object, read the chain, enter each
membership into its link object (creating it with one member and growing
it with every later one), bump the terminal's replica count, then read,
widen and write back the source.  It is now a build by sort
(``ReplicationManager._bulk_build``): one scan, each referenced object read
once, each link object written once at its final size, each referenced and
each source record written once.  The loop is kept in this file as the
reference (:func:`_per_object_bulk_build`): two identically loaded
databases, one of them building with the loop, run the same ``replicate``
statements and must end with

* the same scan of every set -- values, replica entries, and the members
  each link entry stands for;
* every record of every set at the same page and slot, behind the same
  forward stub to the same target, wherever the build's writes keep the
  loop's order (a self-referential path writes a record that is both a
  source and an owner once, not twice, so there only the contents are
  compared);
* the same owner -> members sets in every link file, and a byte-identical
  replica file (S');
* ``verify()`` and the doctor clean, nothing pinned, no forward stub in a
  link file the build wrote, and no more pins than the loop took --

on pools of 4, 8 and 64 frames, with the write-ahead log on and off.

Page placement and counters only, never wall-clock.
"""

import types
from types import SimpleNamespace

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.objects.instance import INLINE_LINK_FLAG, LinkEntry
from repro.replication.spec import Strategy
from repro.storage.heapfile import _FORWARD, _LARGE, _MOVED, _rid_unpack

FRAMES = (4, 8, 64)


# ---------------------------------------------------------------------------
# the reference: the loop as it was
# ---------------------------------------------------------------------------


def _attach(inverted, link, owner_oid, member_oid):
    """``InvertedPaths.attach(..., cascade=False)`` as it was: one
    membership insert, creating the owner's link object with one member
    or growing it by one."""
    inverted._m_link_touches.inc()
    owner = inverted.store.read(owner_oid)
    entry = owner.link_entry_for(link.link_id)
    if entry is None:
        if inverted.inline_singletons:
            owner.add_link_entry(
                LinkEntry(member_oid, link.link_id | INLINE_LINK_FLAG))
        else:
            link_oid = link.file.create(owner_oid, [member_oid])
            owner.add_link_entry(LinkEntry(link_oid, link.link_id))
        inverted.store.update(owner_oid, owner)
        return
    if entry.inline:
        if entry.link_oid == member_oid:
            return
        link_oid = link.file.create(owner_oid, [entry.link_oid, member_oid])
        owner.add_link_entry(LinkEntry(link_oid, link.link_id))
        inverted.store.update(owner_oid, owner)
        return
    link.file.add(entry.link_oid, member_oid)


def _replica_ref(self, path, oids, objs, counted):
    """``ReplicationManager._bulk_replica_ref`` as it was: the terminal's
    count grows once per distinct level-(n-1) participant."""
    if len(oids) < len(path.link_sequence) + 1:
        return None
    last_oid, last_obj = oids[-1], objs[-1]
    terminal_oid = last_obj.ref(path.resolved.ref_chain[-1])
    if terminal_oid is None:
        return None
    if last_oid not in counted:
        counted.add(last_oid)
        return self.inverted.bump_replica(path, terminal_oid, +1)
    return self.inverted.replica_oid_for(path, terminal_oid)


def _per_object_bulk_build(self, path):
    """``ReplicationManager._bulk_build`` as it was, for in-place and
    separate paths: one source object at a time, in scan order."""
    src = self.catalog.get_set(path.source_set)
    chain = path.resolved.ref_chain
    counted = set()
    for oid, obj in list(src.scan()):
        oids = [oid]
        objs = [obj]
        for ref_name in chain[: len(path.link_sequence)]:
            nxt = objs[-1].ref(ref_name)
            if nxt is None:
                break
            oids.append(nxt)
            objs.append(self.store.read(nxt))
        for i in range(len(oids) - 1):
            link = self.catalog.get_link(path.link_sequence[i])
            _attach(self.inverted, link, oids[i + 1], oids[i])
        if path.strategy is Strategy.SEPARATE:
            changes = {path.hidden_ref: _replica_ref(self, path, oids, objs,
                                                     counted)}
        else:
            changes = self._hidden_values_for(path, obj)
        self.apply_hidden_changes(src, oid, changes, maintain_indexes=False)


# ---------------------------------------------------------------------------
# the databases
# ---------------------------------------------------------------------------


def _company(db, *, pad=90, dept_pad=0, org_pad=0, orgs=3, depts=8,
             emps=96, null_every=0):
    """ORG <- DEPT <- EMP, loaded before any path exists, so a build
    widens full pages; the scan reaches depts and orgs out of their page
    order.  ``*_pad`` sizes the referenced objects (a page of them fills
    up, or one needs several pages); ``null_every``: every n-th Emp has
    no dept and every n-th Dept no org."""
    org_fields = [char_field("name", 20), int_field("budget")]
    dept_fields = [char_field("name", 20), int_field("budget"),
                   ref_field("org", "ORG")]
    for fields, size in ((org_fields, org_pad), (dept_fields, dept_pad)):
        if size:
            fields.append(char_field("pad", size))
    db.define_type(TypeDefinition("ORG", org_fields))
    db.define_type(TypeDefinition("DEPT", dept_fields))
    db.define_type(TypeDefinition("EMP", [char_field("name", pad),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    for name, type_name in (("Org", "ORG"), ("Dept", "DEPT"), ("Emp", "EMP")):
        db.create_set(name, type_name)
    org_oids = [db.insert("Org", {"name": f"org{i}", "budget": i})
                for i in range(orgs)]

    def missing(i):
        return null_every and i % null_every == null_every - 1

    dept_oids = [db.insert("Dept", {"name": f"dept{i}", "budget": i,
                                    "org": None if missing(i)
                                    else org_oids[i * 7 % orgs]})
                 for i in range(depts)]
    for i in range(emps):
        # the last dept has one member, a §4.3.1 singleton
        dept = (dept_oids[-1] if i == emps // 2
                else dept_oids[i * 5 % (depts - 1)])
        db.insert("Emp", {"name": f"emp{i}", "salary": i,
                          "dept": None if missing(i) else dept})


def _crowded(db):
    _company(db, pad=30, dept_pad=150, org_pad=170, orgs=40, depts=60,
             emps=240)


def _self_referential(db):
    db.define_type(TypeDefinition("EMP", [char_field("name", 90),
                                          int_field("salary"),
                                          ref_field("manager", "EMP")]))
    db.create_set("Emp", "EMP")
    emps = []
    for i in range(90):
        manager = emps[(i * 7 + 3) % len(emps)] if i % 11 else None
        emps.append(db.insert("Emp", {"name": f"emp{i}", "salary": i,
                                      "manager": manager}))
    # a later member managing an earlier one, and a member managing itself
    db.update("Emp", emps[0], {"manager": emps[60]})
    db.update("Emp", emps[5], {"manager": emps[5]})


def _replicate(text, **options):
    return ("replicate", text, options)


def _drop(text):
    return ("drop", text, {})


#: case -> (Database options, loader, DDL steps, placement compared)
CASES = {
    "inplace": ({}, _company, [_replicate("Emp.dept.name")], True),
    "inplace-two-level": ({}, _company,
                          [_replicate("Emp.dept.org.name")], True),
    "separate": ({}, _company,
                 [_replicate("Emp.dept.name", strategy="separate")], True),
    "separate-two-level": ({}, _company, [
        _replicate("Emp.dept.org.name", strategy="separate")], True),
    "shared-prefix": ({}, _company, [
        _replicate("Emp.dept.name"), _replicate("Emp.dept.org.name"),
        _replicate("Emp.dept.org.budget", strategy="separate")], True),
    "inline": ({"inline_singleton_links": True}, _company, [
        _replicate("Emp.dept.name"), _replicate("Emp.dept.org.name"),
        _replicate("Emp.dept.org.budget", strategy="separate")], True),
    "colocated": ({}, _company,
                  [_replicate("Emp.dept.org.name", cluster_links=True)], True),
    "self-referential": ({}, _self_referential, [
        _replicate("Emp.manager.name"),
        _replicate("Emp.manager.manager.name"),
        _replicate("Emp.manager.manager.salary", strategy="separate")], False),
    "lazy": ({}, _company, [_replicate("Emp.dept.name", lazy=True)], True),
    "rebuild": ({}, _company, [
        _replicate("Emp.dept.org.name"), _drop("Emp.dept.org.name"),
        _replicate("Emp.dept.org.name"),
        _replicate("Emp.dept.budget", strategy="separate"),
        _drop("Emp.dept.budget"),
        _replicate("Emp.dept.budget", strategy="separate")], True),
    "chunked": ({}, lambda db: _company(db, pad=5000, dept_pad=4500,
                                        depts=4, emps=10), [
        _replicate("Emp.dept.name"),
        _replicate("Emp.dept.org.budget", strategy="separate")], True),
    "null-refs": ({}, lambda db: _company(db, null_every=3), [
        _replicate("Emp.dept.org.name"),
        _replicate("Emp.dept.org.budget", strategy="separate")], True),
    # full pages of depts and orgs: an owner's link entry or a terminal's
    # replica entry moves some of them out
    "crowded": ({}, _crowded, [_replicate("Emp.dept.org.name")], True),
    "crowded-separate": ({}, _crowded, [
        _replicate("Emp.dept.org.name", strategy="separate")], True),
}


# ---------------------------------------------------------------------------
# what two builds must share
# ---------------------------------------------------------------------------


def _link_members(db, entry):
    if entry.inline:
        return frozenset([entry.link_oid])
    link = db.catalog.get_link(entry.base_id)
    return frozenset(link.file.members(entry.link_oid))


def _data_sets(db):
    """The named sets, then the replica sets (S')."""
    return ([obj_set for __, obj_set in sorted(db.catalog.sets.items())]
            + [obj_set for __, obj_set in
               sorted(db.replication.replica_sets.items())])


def _scans(db):
    """Every set's scan, link entries resolved to the members they hold."""
    out = {}
    for obj_set in _data_sets(db):
        out[obj_set.name] = [
            (oid, obj.type_def.name, obj.values, obj.replica_entries,
             sorted((e.base_id, e.inline, _link_members(db, e))
                    for e in obj.link_entries))
            for oid, obj in obj_set.scan()]
    return out


def _placement(db, heap):
    """``(page, slot) -> where the record is``: plain, or a forward stub
    and its target, or a moved payload."""
    out = {}
    for page_no in range(heap.num_pages()):
        with db.storage.pool.page(heap.file_id, page_no) as page:
            for slot, raw in page.records():
                if raw[0] == _FORWARD:
                    out[page_no, slot] = ("stub", _rid_unpack(raw, 1))
                else:
                    out[page_no, slot] = ("moved" if raw[0] == _MOVED
                                          else "home", raw[1])
    return out


def _link_files(db):
    """Link file name -> the sorted ``(owner, members)`` it holds."""
    out = {}
    for link in db.catalog.links.values():
        name = db.storage.file_name(link.file.heap.file_id)
        out[name] = sorted((obj.owner, tuple(obj.entries))
                           for __, obj in link.file.scan())
    return out


def _link_stubs(db) -> int:
    return sum(placement[0] == "stub"
               for link in db.catalog.links.values()
               for placement in _placement(db, link.file.heap).values())


def _build(case: str, frames: int, wal: bool, reference: bool):
    options, load, steps, __ = CASES[case]
    db = Database(buffer_frames=frames, wal=wal, **options)
    if reference:
        db.replication._bulk_build = types.MethodType(
            _per_object_bulk_build, db.replication)
    load(db)
    db.cold_cache()
    before = db.stats.snapshot()
    for op, text, opts in steps:
        if op == "replicate":
            db.replicate(text, **opts)
        else:
            db.drop_replication(text)
        assert db.storage.pool.pinned_keys() == [], (op, text)
    pins = (db.stats.snapshot() - before).logical_reads
    return SimpleNamespace(db=db, pins=pins)


@pytest.mark.parametrize("wal", [False, True], ids=["nowal", "wal"])
@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("case", list(CASES))
def test_the_sort_build_equals_the_per_object_loop(case, frames, wal):
    new = _build(case, frames, wal, reference=False)
    ref = _build(case, frames, wal, reference=True)
    assert _scans(new.db) == _scans(ref.db)
    assert _link_files(new.db) == _link_files(ref.db)
    if CASES[case][3]:
        for obj_set, ref_set in zip(_data_sets(new.db), _data_sets(ref.db)):
            assert _placement(new.db, obj_set.heap) \
                == _placement(ref.db, ref_set.heap), obj_set.name
    for replica_set, ref_set in zip(new.db.replication.replica_sets.values(),
                                    ref.db.replication.replica_sets.values()):
        pages = range(replica_set.heap.num_pages())
        assert replica_set.heap.num_pages() == ref_set.heap.num_pages()
        for page_no in pages:
            with new.db.storage.pool.page(replica_set.file_id, page_no) as a, \
                    ref.db.storage.pool.page(ref_set.file_id, page_no) as b:
                assert a.data == b.data
    assert _link_stubs(new.db) == 0
    assert new.pins <= ref.pins
    for built in (new, ref):
        built.db.verify()
        assert built.db.doctor().healthy
        assert built.db.storage.pool.pinned_keys() == []


# ---------------------------------------------------------------------------
# that each case is the case it claims to be
# ---------------------------------------------------------------------------


def test_the_cases_cover_stubs_chunks_singletons_and_broken_chains():
    db = _build("inplace", 64, False, reference=False).db
    emp = db.catalog.get_set("Emp").heap
    assert any(kind == "stub" for kind, __ in _placement(db, emp).values())
    sizes = {len(_link_members(db, e))
             for __, obj in db.catalog.get_set("Dept").scan()
             for e in obj.link_entries}
    assert 1 in sizes and len(sizes) > 1

    db = _build("inline", 64, False, reference=False).db
    entries = [e for __, obj in db.catalog.get_set("Dept").scan()
               for e in obj.link_entries]
    assert any(e.inline for e in entries) and not all(e.inline for e in entries)

    db = _build("chunked", 64, False, reference=False).db
    heap = db.catalog.get_set("Dept").heap
    assert any(wrapper == _LARGE for kind, wrapper in
               _placement(db, heap).values() if kind == "home")

    db = _build("null-refs", 64, False, reference=False).db
    emps = list(db.catalog.get_set("Emp").scan())
    assert any(obj.values["dept"] is None for __, obj in emps)
    path = db.catalog.get_path("Emp.dept.org.budget")
    assert any(obj.values[path.hidden_ref] is None
               and obj.values["dept"] is not None for __, obj in emps)


def test_a_fresh_inplace_build_writes_each_link_object_once_in_owner_order():
    """No link object is grown, so none moves: the link file holds them
    in the order of their owners, with no forward stub."""
    db = _build("inplace", 64, False, reference=False).db
    link = db.catalog.get_link(
        db.catalog.get_path("Emp.dept.name").link_sequence[0])
    owners = [obj.owner for __, obj in link.file.scan()]
    assert owners == sorted(owners)
    assert _link_stubs(db) == 0
    touches = db.telemetry.metrics.value("replication_link_touches_total")
    assert touches == db.catalog.get_set("Emp").count()  # one per membership
