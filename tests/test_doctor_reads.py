"""One doctor pass reads each object once, and a repair never reads past
its own writes.

The doctor's structure check, its path checks and the ``verify`` it ends
with share one OID -> object map (``ReadMemo``): every referencer of an
object reaches the same decoded copy.  A repairing doctor drops the map
before its first write, so what it reads afterwards is what it wrote.
"""

from collections import Counter

import pytest

from repro import Database, TypeDefinition, char_field, int_field, ref_field
from repro.objects.instance import ReplicaEntry
from repro.objects.store import ObjectStore
from repro.workloads import generator


def _self_referential():
    db = Database(wal=True, buffer_frames=16)
    db.define_type(TypeDefinition("EMP", [char_field("name", 60),
                                          int_field("salary"),
                                          ref_field("manager", "EMP")]))
    db.create_set("Emp", "EMP")
    emps = []
    for i in range(60):
        manager = emps[(i * 7 + 3) % len(emps)] if i % 9 else None
        emps.append(db.insert("Emp", {"name": f"emp{i}", "salary": i,
                                      "manager": manager}))
    db.update("Emp", emps[4], {"manager": emps[4]})  # its own manager
    paths = [db.replicate("Emp.manager.name"),
             db.replicate("Emp.manager.manager.name"),
             db.replicate("Emp.manager.manager.salary", strategy="separate")]
    return db, emps, paths


def _separate():
    db = Database(wal=True, buffer_frames=16)
    db.define_type(TypeDefinition("ORG", [char_field("name", 20),
                                          int_field("budget")]))
    db.define_type(TypeDefinition("DEPT", [char_field("name", 20),
                                           ref_field("org", "ORG")]))
    db.define_type(TypeDefinition("EMP", [char_field("name", 20),
                                          ref_field("dept", "DEPT")]))
    for name, type_name in (("Org", "ORG"), ("Dept", "DEPT"), ("Emp", "EMP")):
        db.create_set(name, type_name)
    orgs = [db.insert("Org", {"name": f"org{i}", "budget": i})
            for i in range(4)]
    depts = [db.insert("Dept", {"name": f"dept{i}", "org": orgs[i % 4]})
             for i in range(10)]
    emps = [db.insert("Emp", {"name": f"emp{i}", "dept": depts[i % 10]})
            for i in range(40)]
    path = db.replicate("Emp.dept.org.budget", strategy="separate")
    return db, orgs, emps, path


def _replica_entry(db, oid, path):
    return db.store.read(oid).replica_entry_for(path.path_id)


def _cure(db):
    diagnosis = db.doctor()
    assert not diagnosis.healthy
    cure = db.doctor(repair=True)
    assert cure.repairs >= 1
    # the verify that ends the repairing pass found nothing left over
    assert [f.render() for f in cure.findings if not f.repaired] == []
    db.verify()
    assert db.doctor().healthy


def test_a_repairing_doctor_cleans_a_drifted_self_referential_path():
    """The objects repaired are the terminals other members reach: a
    repair that read them from before its own writes would rewrite the
    damage back."""
    db, emps, (name1, name2, salary) = _self_referential()
    emp_set = db.catalog.get_set("Emp")
    for i, path in ((4, name1), (10, name2), (20, name1), (21, name2)):
        db.replication.apply_hidden_changes(
            emp_set, emps[i], {path.hidden_field_for("name"): "WRONG"})
    replica_set = db.replication.replica_sets[salary.path_id]
    first, __ = next(iter(replica_set.scan()))
    replica_set.raw_delete(first)  # a terminal loses its replica
    terminal = next(oid for oid in emps
                    if (entry := _replica_entry(db, oid, salary))
                    is not None and entry.replica_oid != first)
    entry = _replica_entry(db, terminal, salary)
    obj = db.store.read(terminal)
    obj.set_replica_entry(ReplicaEntry(entry.replica_oid, entry.refcount + 3,
                                       salary.path_id))
    db.store.update(terminal, obj)
    _cure(db)


def test_a_repairing_doctor_cleans_a_drifted_separate_path():
    db, orgs, emps, path = _separate()
    replica_set = db.replication.replica_sets[path.path_id]
    replicas = [oid for oid, __ in replica_set.scan()]
    replica_set.raw_delete(replicas[0])  # missing: rebuilt under a new OID
    stale = replica_set.read(replicas[1])
    stale.set("budget", -1)
    replica_set.raw_update(replicas[1], stale)
    terminal = next(oid for oid in orgs
                    if _replica_entry(db, oid, path).replica_oid == replicas[2])
    obj = db.store.read(terminal)
    obj.set_replica_entry(ReplicaEntry(replicas[2], 99, path.path_id))
    db.store.update(terminal, obj)
    db.replication.apply_hidden_changes(db.catalog.get_set("Emp"), emps[7],
                                        {path.hidden_ref: replicas[3]})
    replica_set.raw_insert(replica_set.make_object({"budget": 5}))  # orphan
    _cure(db)


@pytest.mark.parametrize("strategy", ["inplace", "separate"])
def test_one_doctor_pass_decodes_each_referenced_object_once(
        strategy, monkeypatch):
    """The harness's R -> S database: every S object is reached by f = 5
    referencers, through the structure check, the path check and verify."""
    config = generator.WorkloadConfig(n_s=400, f=5, strategy=strategy,
                                      buffer_frames=2048, seed=1)
    db = generator.build_model_database(config).db
    s_file = db.catalog.get_set("S").file_id
    reads = Counter()
    read = ObjectStore.read

    def counting(self, oid, *args, **kwargs):
        reads[oid] += 1
        return read(self, oid, *args, **kwargs)

    monkeypatch.setattr(ObjectStore, "read", counting)
    assert db.doctor().healthy
    on_s = {oid: n for oid, n in reads.items() if oid.file_id == s_file}
    assert len(on_s) == config.n_s
    assert max(reads.values()) == 1
