"""Parity of the page-at-a-time write path with the per-object loop it
replaced.

An update propagation used to run, per referencer, ``store.read`` ->
``index.update`` -> ``obj.set`` -> ``store.update``: three pins, a decode
and an encode to change *k* bytes.  It is now one
``ObjectStore.overwrite_fields`` call over the sorted closure, which
overwrites the hidden field's bytes where they lie under one pin per page.
The loop is kept in this file as the reference
(:func:`_per_object_rewrite`, and :func:`_per_member_rewrite` for a
collapsed path's members): two identically built databases, one of
them running the loop, are driven with the same statements, and must end
with every page of every file byte-identical, equal path-index contents,
write-ahead logs that replay to byte-identical pages, nothing pinned --
and, statement by statement, the same physical reads and writes, on a
pool of 4 frames as on one of 64: the new path touches the pages the
loop touched, in the loop's order, less the immediate repeats, so the
pool evicts the same frames.

Page bytes and counters only, never wall-clock.
"""

import re
import types
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.errors import DanglingReferenceError
from repro.objects import encoding
from repro.objects.types import FieldDef, FieldKind
from repro.query import executor, runner
from repro.recovery.wal import redo
from repro.storage.heapfile import _FORWARD, _rid_unpack

FRAMES = (4, 8, 64)


# ---------------------------------------------------------------------------
# the reference: the loop as it was
# ---------------------------------------------------------------------------


def _per_object_rewrite(self, path, link, oid, changes, owner=None):
    """``ReplicationManager._rewrite_hidden_over_closure`` as it was: one
    ``apply_hidden_changes`` -- read, maintain the path index, set, write
    back -- per referencer of the sorted closure."""
    source_set = self.catalog.get_set(path.source_set)
    targets = self.inverted.closure_to_source(link, oid, owner)
    self._m_propagations.inc()
    fanout = 0
    with self.telemetry.tracer.span("update_propagation",
                                    path=path.text) as span:
        for target in targets:
            obj = self.store.read(target)
            for fname, value in changes.items():
                info = self.catalog.index_on_field(source_set.name, fname)
                if info is not None:
                    info.index.update(obj.values.get(fname), value, target)
                obj.set(fname, value)
            self.store.update(target, obj)
            fanout += 1
        span.set("fanout", fanout)
    self._m_fanout.inc(fanout)
    self._count_propagation(path, 1, fanout)


def _per_member_rewrite(self, source_set, members, changes):
    """``CollapsedPaths._rewrite_members`` as it was: the general rewrite
    of one member at a time."""
    for member in members:
        self._apply(source_set, member, changes)


def _database(frames: int, wal: bool, reference: bool) -> Database:
    db = Database(buffer_frames=frames, wal=wal)
    if reference:
        db.replication._rewrite_hidden_over_closure = types.MethodType(
            _per_object_rewrite, db.replication)
        db.replication.collapsed._rewrite_members = types.MethodType(
            _per_member_rewrite, db.replication.collapsed)
    return db


# ---------------------------------------------------------------------------
# the databases
# ---------------------------------------------------------------------------


def _company(db, *, pad=90, depts=8, emps=96, clustered=False,
             before=(), after=(), index=None):
    """ORG <- DEPT <- EMP with two orgs.  Paths in ``before`` are
    replicated ahead of the load (every Emp is written at its final
    width); paths in ``after`` once Emp is loaded -- widening records on
    pages that are full, so some stay and the rest move out behind a
    forward stub.  Each path is ``(text, options)``."""
    db.define_type(TypeDefinition("ORG", [char_field("name", 20),
                                          int_field("budget")]))
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20),
                                           int_field("budget"),
                                           ref_field("org", "ORG")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", pad),
                                          int_field("salary"),
                                          ref_field("dept", "DEPT")]))
    for name, type_name in (("Org", "ORG"), ("Dept", "DEPT"), ("Emp", "EMP")):
        db.create_set(name, type_name)
    ctx = SimpleNamespace()
    ctx.orgs = [db.insert("Org", {"name": f"org{i}", "budget": i})
                for i in range(2)]
    ctx.depts = [db.insert("Dept", {"name": f"dept{i}", "budget": i,
                                    "org": ctx.orgs[i % 2]})
                 for i in range(depts)]
    for text, options in before:
        db.replicate(text, **options)
    ctx.emps = [db.insert("Emp", {
        "name": f"emp{i}", "salary": i,
        "dept": ctx.depts[i * depts // emps if clustered
                          else (i * 7) % depts]})
        for i in range(emps)]
    for text, options in after:
        db.replicate(text, **options)
    if index is not None:
        db.build_index(index)
    return ctx


def _plain(db):
    return _company(db, before=[("Emp.dept.name", {})])


def _stubs(db):
    return _company(db, after=[("Emp.dept.name", {})])


def _short(db):
    """Members that predate a widening: the type gains a hidden field the
    stored records do not hold (a ``replicate`` rewrites every member, so
    this is the state a widening leaves only until its bulk build is
    done).  The first propagation to reach such a record must grow it --
    on a full page, out of it."""
    ctx = _company(db, after=[("Emp.dept.name", {})])
    late = FieldDef("late", FieldKind.CHAR, size=60, hidden=True)
    db.replication._widen_source_type("Emp", 99, (late,))
    return ctx


def _chunked(db):
    """Every referencer is larger than a page, so it is stored in chunks
    and has no one place to overwrite."""
    return _company(db, pad=5000, depts=3, emps=6,
                    before=[("Emp.dept.name", {})])


def _two_paths(db):
    """Two paths over one shared link: two hidden fields, and an update of
    both terminal fields propagates twice over the same referencers."""
    return _company(db, after=[("Emp.dept.name", {}),
                               ("Emp.dept.budget", {})])


def _indexed(db):
    return _company(db, after=[("Emp.dept.name", {})],
                    index="Emp.dept.name")


def _two_level(db):
    """Emp clustered by dept, small records: many targets on each page."""
    return _company(db, pad=30, emps=240, clustered=True,
                    before=[("Emp.dept.org.name", {})])


def _two_level_stubs(db):
    return _company(db, pad=30, emps=240, clustered=True,
                    after=[("Emp.dept.org.name", {})])


def _separate(db):
    """The hidden field is a reference to the shared replica: moving a
    dept to another org rewrites it over the closure."""
    return _company(db, after=[("Emp.dept.org.name", {"strategy": "separate"})])


def _collapsed(db):
    """A collapsed 2-level path (Section 4.3.3): one tagged link reaches
    every referencer of an org, and moving a dept re-tags its members."""
    return _company(db, pad=30, emps=240, clustered=True,
                    after=[("Emp.dept.org.name", {"collapsed": True})])


def _lazy(db):
    return _company(db, after=[("Emp.dept.name", {"lazy": True})])


def _self_referential(db):
    """``tests/test_self_referential.py``'s schema: source set, link owners
    and referencers are one file, and a referencer may be its own
    manager's manager."""
    db.define_type(TypeDefinition("EMP", [char_field("name", 90),
                                          int_field("salary"),
                                          ref_field("manager", "EMP")]))
    db.create_set("Emp", "EMP")
    ctx = SimpleNamespace(orgs=[], depts=[])
    ctx.emps = []
    for i in range(90):
        manager = ctx.emps[(i - 1) // 6] if i else None
        ctx.emps.append(db.insert("Emp", {"name": f"emp{i}", "salary": i,
                                          "manager": manager}))
    db.replicate("Emp.manager.name")
    db.replicate("Emp.manager.manager.name")
    return ctx


def _apply(db, ctx, op):
    """Run one statement of a script (object numbers wrap around)."""
    kind, *args = op

    def dept(n):
        return ctx.depts[n % len(ctx.depts)]

    def emp(n):
        return ctx.emps[n % len(ctx.emps)]

    if kind == "name":
        db.update("Dept", dept(args[0]), {"name": args[1]})
    elif kind == "budget":
        db.update("Dept", dept(args[0]), {"budget": args[1]})
    elif kind == "both":
        db.update("Dept", dept(args[0]), {"name": args[1],
                                          "budget": args[2]})
    elif kind == "org":
        db.update("Org", ctx.orgs[args[0]], {"name": args[1]})
    elif kind == "reorg":
        db.update("Dept", dept(args[0]), {"org": ctx.orgs[args[1]]})
    elif kind == "move":
        db.update("Emp", emp(args[0]), {"dept": dept(args[1])})
    elif kind == "salary":
        db.update("Emp", emp(args[0]), {"salary": args[1]})
    elif kind == "replace":  # a statement with several victims
        db.execute(f"replace (Dept.name = '{args[2]}') "
                   f"where Dept.budget >= {args[0]} "
                   f"and Dept.budget <= {args[1]}")
    elif kind == "retitle":  # both orgs in one statement
        db.execute(f"replace (Org.name = '{args[2]}') "
                   f"where Org.budget >= {args[0]} "
                   f"and Org.budget <= {args[1]}")
    elif kind == "rename_many":
        db.execute(f"replace (Emp.name = '{args[2]}') "
                   f"where Emp.salary >= {args[0]} "
                   f"and Emp.salary <= {args[1]}")
    elif kind == "rename":
        db.update("Emp", emp(args[0]), {"name": args[1]})
    elif kind == "promote":
        db.update("Emp", emp(args[0]), {"manager": emp(args[1])})
    elif kind == "refresh":
        db.refresh()
    else:
        assert kind == "cold"
        db.cold_cache()


COMPANY_SCRIPT = [
    ("name", 0, "alpha"), ("name", 5, "beta"), ("budget", 2, 77),
    ("both", 3, "gamma", 1234), ("move", 10, 4), ("name", 4, "delta"),
    ("cold",), ("name", 0, "epsilon"), ("replace", 1, 3, "zeta"),
    ("salary", 20, -5), ("move", 11, 0), ("name", 0, "eta"),
    ("replace", 4, 7, "theta"), ("cold",), ("replace", 0, 7, "iota"),
]
TWO_LEVEL_SCRIPT = [
    ("org", 0, "acme"), ("name", 1, "ignored"), ("reorg", 2, 1),
    ("cold",), ("org", 1, "globex"), ("move", 7, 5), ("reorg", 5, 0),
    ("org", 0, "initech"), ("retitle", 0, 1, "umbrella"),
    ("replace", 0, 7, "kappa"), ("cold",), ("retitle", 0, 1, "hooli"),
]
CASES = {
    "plain": (_plain, COMPANY_SCRIPT),
    "stubs": (_stubs, COMPANY_SCRIPT),
    "short": (_short, COMPANY_SCRIPT),
    "chunked": (_chunked, [("name", 0, "alpha"), ("move", 1, 2), ("cold",),
                           ("name", 2, "beta"), ("name", 0, "gamma"),
                           ("replace", 0, 7, "omega")]),
    "two-paths": (_two_paths, COMPANY_SCRIPT),
    "indexed": (_indexed, COMPANY_SCRIPT),
    "two-level": (_two_level, TWO_LEVEL_SCRIPT),
    "two-level-stubs": (_two_level_stubs, TWO_LEVEL_SCRIPT),
    "separate": (_separate, TWO_LEVEL_SCRIPT),
    "collapsed": (_collapsed, TWO_LEVEL_SCRIPT),
    "lazy": (_lazy, [("name", 0, "alpha"), ("name", 5, "beta"),
                     ("refresh",), ("name", 0, "gamma"), ("move", 10, 4),
                     ("cold",), ("name", 4, "delta"), ("refresh",),
                     ("replace", 0, 7, "lambda"), ("refresh",)]),
    "self-referential": (_self_referential, [
        ("rename", 0, "root"), ("rename", 3, "three"), ("promote", 40, 3),
        ("cold",), ("rename", 3, "drei"), ("promote", 3, 3),
        ("rename", 3, "self"), ("rename", 1, "one"),
        ("rename_many", 0, 5, "boss"), ("cold",),
        ("rename_many", 2, 12, "chief")]),
}


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _drive(case: str, frames: int, wal: bool, reference: bool, script):
    """Build ``case`` and run ``script``; everything two runs must share."""
    build, __ = CASES[case]
    db = _database(frames, wal, reference)
    ctx = build(db)
    db.cold_cache()
    stats = db.stats
    per_statement = []
    for op in script:
        before = stats.snapshot()
        _apply(db, ctx, op)
        io = stats.snapshot() - before
        per_statement.append((op[0], io.physical_reads, io.physical_writes))
        assert db.storage.pool.pinned_keys() == [], op
    db.storage.pool.flush_all()
    disk = db.storage.disk
    pages = {(fid, page_no): disk.peek_page(fid, page_no)
             for fid in sorted(disk.file_ids())
             for page_no in range(disk.num_pages(fid))}
    indexes = {name: list(info.index.items())
               for name, info in db.catalog.indexes.items()}
    log = redo(db.recovery.wal.records).pages if wal else {}
    db.verify()
    assert db.storage.pool.pinned_keys() == []
    return SimpleNamespace(db=db, ctx=ctx, per_statement=per_statement,
                           pages=pages, indexes=indexes, log=log)


def _assert_parity(case: str, frames: int, wal: bool, script):
    new = _drive(case, frames, wal, False, script)
    ref = _drive(case, frames, wal, True, script)
    assert new.per_statement == ref.per_statement
    assert new.pages.keys() == ref.pages.keys()
    differing = [key for key in new.pages if new.pages[key] != ref.pages[key]]
    assert differing == []
    assert new.indexes == ref.indexes
    assert new.log == ref.log
    return new


@pytest.mark.parametrize("wal", [False, True], ids=["nowal", "wal"])
@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("case", list(CASES))
def test_propagation_equals_the_per_object_loop(case, frames, wal):
    new = _assert_parity(case, frames, wal, CASES[case][1])
    if case == "indexed":
        assert new.indexes, "the path index is what this case is about"


# ---------------------------------------------------------------------------
# that each case is the case it claims to be
# ---------------------------------------------------------------------------


def _stub_targets(db, oids) -> dict:
    """``oid -> page the payload was moved to`` for the forwarded ones."""
    heap = db.catalog.get_set("Emp").heap
    out = {}
    for oid in oids:
        with db.storage.pool.page(heap.file_id, oid.page_no) as page:
            offset, __ = page.span(oid.slot)
            if page.data[offset] == _FORWARD:
                out[oid] = _rid_unpack(page.data, offset + 1)[0]
    return out


def _traced_propagations(db, ctx, op):
    tracer = db.telemetry.tracer
    tracer.clear()
    tracer.enable()
    try:
        _apply(db, ctx, op)
    finally:
        tracer.disable()
    return tracer.spans_named("update_propagation")


def _closure(db, path_text: str, owner):
    """The sorted closure a propagation from ``owner`` rewrites."""
    link = db.catalog.get_link(
        db.catalog.get_path(path_text).link_sequence[-1])
    return db.replication.inverted.closure_to_source(link, owner)


def test_a_propagation_pins_each_page_once_and_decodes_nothing(monkeypatch):
    """The paper's update model: f referencers, k bytes each, a page at a
    time -- many targets per page, one pin per page, no decode, no encode."""
    import repro.objects.store as store_module

    db = _database(64, wal=True, reference=False)
    ctx = _two_level(db)
    closure = _closure(db, "Emp.dept.org.name", ctx.orgs[0])
    home_pages = {(t.file_id, t.page_no) for t in closure}
    assert len(closure) == 120 and len(home_pages) < len(closure) / 10
    assert _stub_targets(db, closure) == {}
    calls = []
    for name in ("decode_object", "encode_object"):
        def counting(*args, _name=name, _fn=getattr(store_module, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(store_module, name, counting)
    (span,) = _traced_propagations(db, ctx, ("org", 0, "acme"))
    assert span.attrs == {"path": "Emp.dept.org.name", "fanout": 120,
                          "pages": len(home_pages)}
    assert span.io["logical_reads"] == len(home_pages)
    # decoded: the Org object (the statement's one read of its victim)
    # and the four Dept objects the closure walks through; encoded:
    # nothing -- the Org's own name is overwritten where it lies too.
    # Not one of the 120 referencers.
    assert sorted(calls) == ["decode_object"] * 5
    db.verify()


def test_a_forwarded_referencer_costs_one_more_pin():
    """Load, then replicate: on every full page some records stayed and
    some moved out.  The pins of a propagation are the home pages plus
    the stubs followed plus the returns to a home page after a stub --
    what one read per record touches, less the immediate repeats."""
    db = _database(64, wal=False, reference=False)
    ctx = _two_level_stubs(db)
    closure = _closure(db, "Emp.dept.org.name", ctx.orgs[0])
    moved = _stub_targets(db, closure)
    assert 0 < len(moved) < len(closure)
    expected = 0
    pinned = None
    for oid in closure:
        for page_no in (oid.page_no, moved.get(oid)):
            if page_no is not None and page_no != pinned:
                pinned = page_no
                expected += 1
    (span,) = _traced_propagations(db, ctx, ("org", 0, "acme"))
    assert span.io["logical_reads"] == expected
    assert span.attrs["pages"] == len({t.page_no for t in closure})
    assert span.attrs["pages"] + len(moved) <= expected \
        <= span.attrs["pages"] + 2 * len(moved)
    db.verify()


@pytest.mark.parametrize("case", ["two-level-stubs", "indexed", "short",
                                  "chunked", "self-referential"])
def test_a_page_of_referencers_is_never_held_across_another_fetch(case):
    """One pin at a time: the home page is let go before a forward stub
    is followed, before the path index is maintained and before the
    general path takes a record over -- so index maintenance, relocation
    and eviction find the frames the per-object loop left them."""
    build, script = CASES[case]
    db = _database(8, wal=True, reference=False)
    ctx = build(db)
    pool = db.storage.pool
    emp_file = db.catalog.get_set("Emp").file_id
    fetch = pool.fetch
    fetches = []

    def watching(file_id, page_no):
        held = [key for key in pool.pinned_keys()
                if key[0] == emp_file and key != (file_id, page_no)]
        assert held == [], (file_id, page_no)
        fetches.append(file_id)
        return fetch(file_id, page_no)

    pool.fetch = watching
    for op in script:
        _apply(db, ctx, op)
    del pool.fetch
    assert emp_file in fetches
    db.verify()


def test_short_records_grow_on_their_first_propagation():
    db = _database(64, wal=False, reference=False)
    ctx = _short(db)
    emp = db.catalog.get_set("Emp")
    width = emp.type_def.data_width
    closure = _closure(db, "Emp.dept.name", ctx.depts[0])

    def record_bytes(oid):
        return len(emp.heap.read((oid.page_no, oid.slot)))

    assert all(record_bytes(t) == 20 + width - 60 for t in closure)
    moved = len(_stub_targets(db, closure))
    db.update("Dept", ctx.depts[0], {"name": "alpha"})
    assert all(record_bytes(t) == 20 + width for t in closure)
    assert len(_stub_targets(db, closure)) > moved  # some grew out
    db.verify()


# ---------------------------------------------------------------------------
# a replace, set-at-a-time, against the per-victim loop
# ---------------------------------------------------------------------------


def _per_victim_replace(db, plan, analyze=False):
    """``executor.execute_update`` as it was: each candidate read whole to
    find the victims (``_scan``), then one ``Database.update`` per victim
    -- its own read, write, WAL scope, closure walk and push."""
    before = db.stats.snapshot()
    victims = [oid for oid, __ in
               executor._scan(db, plan.set_name, plan.access, plan.where)]
    for oid in victims:
        db.update(plan.set_name, oid, dict(plan.assignments))
    return executor.QueryResult(("oid",), [(oid,) for oid in victims],
                                db.stats.snapshot() - before, plan.explain())


@pytest.mark.parametrize("wal", [False, True], ids=["nowal", "wal"])
@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("case", list(CASES))
def test_a_replace_equals_the_per_victim_loop(case, frames, wal, monkeypatch):
    """Each script's multi-victim statements, run set-at-a-time and one
    victim at a time, each victim's push by the per-referencer loop
    (:func:`_per_object_rewrite`): the same page bytes, path-index
    contents and replayed log, nothing left pinned -- and on 64 frames,
    where no page is evicted, the same physical reads and writes
    statement by statement.  On 4 and 8 frames the two visit pages in
    other orders, so the pool evicts other frames."""
    script = CASES[case][1]
    assert any(op[0] in ("replace", "retitle", "rename_many")
               for op in script)
    new = _drive(case, frames, wal, False, script)
    monkeypatch.setattr(runner, "execute_update", _per_victim_replace)
    ref = _drive(case, frames, wal, True, script)
    monkeypatch.undo()
    assert new.pages.keys() == ref.pages.keys()
    assert [key for key in new.pages if new.pages[key] != ref.pages[key]] \
        == []
    assert new.indexes == ref.indexes
    assert new.log == ref.log
    if frames == 64:
        assert new.per_statement == ref.per_statement


def test_a_replace_pushes_once_over_the_union_of_its_closures():
    """Both orgs renamed by one statement: one push over the sorted union
    of their closures, whose pages they share -- each page pinned once
    for the statement, not once per victim -- while the counters still
    count owners and referencers."""
    db = _database(64, wal=True, reference=False)
    ctx = _two_level(db)
    closures = [_closure(db, "Emp.dept.org.name", org) for org in ctx.orgs]
    union = sorted(closures[0] + closures[1])
    pages = {t.page_no for t in union}
    assert {t.page_no for t in closures[0]} & {t.page_no for t in closures[1]}
    metrics = db.telemetry.metrics
    owners = metrics.value("replication_propagations_total")
    fanout = metrics.value("replication_fanout_total")
    (span,) = _traced_propagations(db, ctx, ("retitle", 0, 1, "umbrella"))
    assert span.attrs == {"path": "Emp.dept.org.name", "fanout": len(union),
                          "pages": len(pages)}
    assert span.io["logical_reads"] == len(pages)
    assert metrics.value("replication_propagations_total") - owners == 2
    assert metrics.value("replication_fanout_total") - fanout == len(union)
    db.verify()


def test_an_index_bounded_replace_decodes_each_victim_once(monkeypatch):
    """The index applies the whole ``where``: the victims' OIDs come off
    its leaf, and reading each victim once is the only decode of the
    statement -- not the victim search, not the writes, not the closure
    walk.  A stale index entry still raises before anything is written."""
    import repro.objects.store as store_module

    db = Database(buffer_frames=64)
    db.define_type(TypeDefinition("REC", [
        int_field("k"), char_field("name", 12), ref_field("next", "REC"),
        char_field("pad", 200)]))
    db.create_set("Rec", "REC")
    oids = []
    for i in range(120):
        oids.append(db.insert("Rec", {
            "k": i, "name": f"r{i}", "pad": f"p{i}",
            "next": None if i % 3 == 0 else oids[i // 2]}))
    db.replicate("Rec.next.name")  # widened once loaded: some move out
    db.build_index("Rec.k")
    db.cold_cache()
    lo = oids.index(min(_stub_targets_of(db, "Rec", oids)))
    victims = oids[lo:lo + 10]  # the first of them behind a forward stub
    where = f"where Rec.k >= {lo} and Rec.k <= {lo + 9}"
    decoded = []
    for module in (store_module, encoding):
        monkeypatch.setattr(module, "decode_object", lambda registry, data,
                            _fn=module.decode_object:
                            decoded.append(len(data)) or _fn(registry, data))
    result = db.execute(f"replace (Rec.name = 'renamed') {where}")
    assert [row[0] for row in result.rows] == victims
    assert len(decoded) == len(victims)
    monkeypatch.undo()
    db.verify()
    assert {db.get("Rec", oid).values["name"] for oid in victims} \
        == {"renamed"}
    stale = victims[5]
    db.catalog.get_set("Rec").raw_delete(stale)  # the index keeps its entry
    with pytest.raises(DanglingReferenceError, match=re.escape(str(stale))):
        db.execute(f"replace (Rec.name = 'again') {where}")
    assert db.get("Rec", victims[0]).values["name"] == "renamed"
    assert db.storage.pool.pinned_keys() == []


def test_a_stale_index_entry_fails_a_delete_before_anything_goes():
    """A delete reads its candidates to find them, so a stale entry in
    the middle of an index range raises before the first victim goes."""
    db = Database(buffer_frames=64)
    db.define_type(TypeDefinition("REC", [int_field("k"),
                                          char_field("name", 12)]))
    db.create_set("Rec", "REC")
    oids = [db.insert("Rec", {"k": i, "name": f"r{i}"}) for i in range(20)]
    db.build_index("Rec.k")
    stale = oids[5]
    db.catalog.get_set("Rec").raw_delete(stale)  # the index keeps its entry
    with pytest.raises(DanglingReferenceError, match=re.escape(str(stale))):
        db.execute("delete from Rec where Rec.k >= 2 and Rec.k <= 9")
    assert all(db.store.exists(oid) for oid in oids if oid != stale)
    assert db.storage.pool.pinned_keys() == []


def _stub_targets_of(db, set_name: str, oids) -> dict:
    """``oid -> page the payload was moved to`` for the forwarded ones."""
    heap = db.catalog.get_set(set_name).heap
    out = {}
    for oid in oids:
        with db.storage.pool.page(heap.file_id, oid.page_no) as page:
            offset, __ = page.span(oid.slot)
            if page.data[offset] == _FORWARD:
                out[oid] = _rid_unpack(page.data, offset + 1)[0]
    return out


# ---------------------------------------------------------------------------
# random statement sequences
# ---------------------------------------------------------------------------

_TEXT = st.text(alphabet="abcxyz", min_size=1, max_size=12)
_COMPANY_OPS = st.one_of(
    st.tuples(st.just("name"), st.integers(0, 7), _TEXT),
    st.tuples(st.just("budget"), st.integers(0, 7), st.integers(0, 999)),
    st.tuples(st.just("both"), st.integers(0, 7), _TEXT,
              st.integers(0, 999)),
    st.tuples(st.just("org"), st.integers(0, 1), _TEXT),
    st.tuples(st.just("reorg"), st.integers(0, 7), st.integers(0, 1)),
    st.tuples(st.just("move"), st.integers(0, 95), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0, 4), st.integers(4, 7),
              _TEXT),
    st.just(("refresh",)),
    st.just(("cold",)),
)
_SELF_OPS = st.one_of(
    st.tuples(st.just("rename"), st.integers(0, 89), _TEXT),
    st.tuples(st.just("promote"), st.integers(0, 89), st.integers(0, 89)),
    st.just(("cold",)),
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(sorted(CASES)), frames=st.sampled_from(FRAMES),
       wal=st.booleans(), data=st.data())
def test_random_data_and_ref_updates_keep_parity(case, frames, wal, data):
    ops = _SELF_OPS if case == "self-referential" else _COMPANY_OPS
    script = data.draw(st.lists(ops, min_size=1, max_size=12))
    _assert_parity(case, frames, wal, script)
