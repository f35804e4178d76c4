"""Reference-path resolution, OID codec, and error-hierarchy tests."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.errors import InvalidPathError
from repro.schema.paths import ALL, resolve_path
from repro.storage.oid import NULL_OID, OID, is_null


# ---------------------------------------------------------------------------
# path resolution
# ---------------------------------------------------------------------------


def lookups(db):
    return db.catalog.set_type_of, db.registry.get


def test_resolve_one_level(company):
    db = company["db"]
    r = resolve_path("Emp1.dept.name", *lookups(db))
    assert r.source_set == "Emp1"
    assert r.ref_chain == ("dept",)
    assert r.terminal == "name"
    assert r.level == 1
    assert r.terminal_type == "DEPT"
    assert [f.name for f in r.replicated_fields] == ["name"]
    assert r.text == "Emp1.dept.name"
    assert not r.is_full_object


def test_resolve_two_level_and_prefixes(company):
    r = resolve_path("Emp1.dept.org.budget", *lookups(company["db"]))
    assert r.level == 2
    assert r.type_names[-1] == "ORG"
    assert list(r.prefix_chains()) == [("dept",), ("dept", "org")]


def test_resolve_all(company):
    r = resolve_path("Emp1.dept.all", *lookups(company["db"]))
    assert r.is_full_object
    assert r.terminal == ALL
    assert {f.name for f in r.replicated_fields} == {"name", "budget", "org"}


def test_resolve_ref_terminal(company):
    r = resolve_path("Emp1.dept.org", *lookups(company["db"]))
    assert r.level == 1
    assert r.replicated_fields[0].ref_type == "ORG"


@pytest.mark.parametrize(
    "bad",
    [
        "Emp1.name",              # too short: nothing to join
        "Emp1",                   # way too short
        "Emp1.salary.name",       # salary is not a reference
        "Emp1.dept.nothere",      # unknown terminal
        "Emp1.nothere.name",      # unknown ref
        "Nope.dept.name",         # unknown set
    ],
)
def test_resolve_rejects(company, bad):
    from repro.errors import UnknownSetError

    with pytest.raises((InvalidPathError, UnknownSetError)):
        resolve_path(bad, *lookups(company["db"]))


def test_resolve_rejects_hidden_terminal(company):
    db = company["db"]
    path = db.replicate("Emp1.dept.name")
    with pytest.raises(InvalidPathError):
        resolve_path(f"Emp1.{path.hidden_fields[0]}.x", *lookups(db))


# ---------------------------------------------------------------------------
# OID codec
# ---------------------------------------------------------------------------


@given(
    f=st.integers(0, 0xFFFF),
    p=st.integers(0, 0xFFFFFFFF),
    s=st.integers(0, 0xFFFF),
)
def test_oid_pack_roundtrip(f, p, s):
    oid = OID(f, p, s)
    assert OID.unpack(oid.pack()) == oid
    assert len(oid.pack()) == 8
    assert oid.pack() == struct.pack(">HIH", f, p, s)
    back = OID.unpack(b"pad" + oid.pack() + b"tail", 3)
    assert type(back) is OID and back == oid
    assert (back.file_id, back.page_no, back.slot) == (f, p, s)
    assert repr(back) == f"OID({f}:{p}.{s})"


_FIELDS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@given(a=_FIELDS, b=_FIELDS)
def test_oid_hash_equality_and_order_are_its_field_tuples(a, b):
    x, y = OID(*a), OID(*b)
    assert hash(x) == hash(a)
    assert (x == y) == (a == b) and (x != y) == (a != b)
    assert (x < y) == (a < b) and (x <= y) == (a <= b)
    assert (x > y) == (a > b) and (x >= y) == (a >= b)
    assert x == a and {x: 1}[a] == 1
    assert sorted([y, x]) == [OID(*t) for t in sorted([b, a])]


def test_oid_ordering_is_physical():
    assert OID(1, 0, 5) < OID(1, 1, 0) < OID(2, 0, 0)


def test_null_oid():
    assert is_null(NULL_OID)
    assert not is_null(OID(1, 2, 3))
    assert OID.unpack(NULL_OID.pack()) == NULL_OID
    assert is_null(OID.unpack(b"\xff" * 8))
    assert NULL_OID.pack() == b"\xff" * 8
    assert repr(NULL_OID) == "OID(65535:4294967295.65535)"


# ---------------------------------------------------------------------------
# error hierarchy
# ---------------------------------------------------------------------------


def test_every_error_is_a_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
            assert issubclass(obj, errors.ReproError), name


def test_error_grouping():
    assert issubclass(errors.PageFullError, errors.StorageError)
    assert issubclass(errors.UnknownSetError, errors.SchemaError)
    assert issubclass(errors.IntegrityError, errors.ReplicationError)
    assert issubclass(errors.PlanningError, errors.QueryError)
    assert issubclass(errors.ParseError, errors.SchemaError)


def test_registry_root_name(company):
    db = company["db"]
    emp1 = db.catalog.get_set("Emp1")
    assert db.registry.root_name(emp1.type_name) == "EMP"
    db.replicate("Emp1.dept.name")
    assert db.registry.root_name(db.catalog.get_set("Emp1").type_def.name) == "EMP"
    assert db.registry.root_name("ORG") == "ORG"
