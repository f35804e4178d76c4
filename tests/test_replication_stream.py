"""WAL-shipping replication: log, hub, follower apply, staleness, failover.

This is the server-layer replication (primary streams committed
statements to read-only followers), distinct from the paper's *field*
replication the rest of the suite exercises.
"""

import time

import pytest

from repro.errors import (ReadOnlyReplicaError, RemoteError,
                          ReplicaResyncError, ReplicaStaleError,
                          ReplicationLinkError)
from repro.recovery.faults import NetFaultInjector
from repro.recovery.wal import WalRecord, WalRecordType
from repro.schema.database import Database
from repro.schema.parser import run_script_statement
from repro.server.client import RoutedClient, connect
from repro.server.replica import Replica, ReplicaServer
from repro.server.replog import ReplicationEntry, ReplicationLog, render_status
from repro.server.service import Server
from tests.test_redo_install import _follow, _pages, _pair


# ---------------------------------------------------------------------------
# the log itself
# ---------------------------------------------------------------------------


def test_log_lsns_are_monotone_and_addressable():
    log = ReplicationLog(max_entries=100)
    for i in range(5):
        entry = log.append("dml", note=f"stmt {i}")
        assert entry.lsn == i + 1
    assert log.last_lsn == 5
    tail = log.entries_after(2)
    assert [e.lsn for e in tail] == [3, 4, 5]
    assert log.entries_after(5) == []


def test_log_retention_forces_resync():
    log = ReplicationLog(max_entries=3)
    for i in range(10):
        log.append("dml", note=str(i))
    assert log.last_lsn == 10
    assert len(log) == 3
    assert log.dropped == 7
    assert log.oldest_lsn == 8
    # a follower inside the retained window still catches up
    assert [e.lsn for e in log.entries_after(7)] == [8, 9, 10]
    # one that fell off the tail must re-seed
    with pytest.raises(ReplicaResyncError):
        log.entries_after(5)


def test_relay_refuses_stream_gaps():
    log = ReplicationLog()
    log.relay(ReplicationEntry(1, "dml", "a", b""))
    with pytest.raises(ReplicationLinkError):
        log.relay(ReplicationEntry(3, "dml", "gap", b""))
    log.relay(ReplicationEntry(2, "dml", "b", b""))
    assert log.last_lsn == 2


def test_entry_wire_round_trip():
    dml = ReplicationEntry(6, "dml", "insert Emp1", b"\x01\x02")
    back = ReplicationEntry.from_wire(dml.to_wire())
    assert (back.lsn, back.kind, back.frames) == (6, "dml", b"\x01\x02")
    ddl = ReplicationEntry(7, "ddl", "create S: {own ref T}", next_file_id=9)
    back = ReplicationEntry.from_wire(ddl.to_wire())
    assert (back.lsn, back.kind, back.note) == (7, "ddl", ddl.note)
    assert back.next_file_id == 9
    with pytest.raises(ReplicationLinkError):
        ReplicationEntry.from_wire({"lsn": 1, "kind": "mystery"})


def test_wait_beyond_times_out_and_wakes():
    log = ReplicationLog()
    assert log.wait_beyond(0, timeout=0.01) is False
    log.append("dml")
    assert log.wait_beyond(0, timeout=0.01) is True


# ---------------------------------------------------------------------------
# served topology fixtures
# ---------------------------------------------------------------------------


SETUP_DDL = [
    "define type DEPT (name: char[12], floor: int)",
    "define type EMP (name: char[12], age: int, dept: ref DEPT)",
    "create Dept1: {own ref DEPT}",
    "create Emp1: {own ref EMP}",
    "replicate Emp1.dept.name",
]


def _populate(primary: Server, client) -> None:
    """DDL over the wire, rows via the engine API under the latch."""
    for text in SETUP_DDL:
        client.execute(text)
    with primary.sessions.latch:
        db = primary.db
        toys = db.insert("Dept1", {"name": "toys", "floor": 3})
        tools = db.insert("Dept1", {"name": "tools", "floor": 1})
        db.insert("Emp1", {"name": "alice", "age": 30, "dept": toys})
        db.insert("Emp1", {"name": "bob", "age": 40, "dept": tools})


def _wait_caught_up(replica: Replica, primary: Server,
                    timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if (replica.applied_lsn >= primary.hub.log.last_lsn
                and replica.connected):
            return
        time.sleep(0.01)
    raise AssertionError(
        f"follower stuck at {replica.applied_lsn}, primary at "
        f"{primary.hub.log.last_lsn}")


@pytest.fixture()
def topology():
    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=10.0).start()
    follower = ReplicaServer(
        Replica(primary.address, name="r1", max_lag_statements=64,
                poll_wait=0.05, min_backoff=0.01, max_backoff=0.2),
        port=0).start()
    client = connect(*primary.address)
    try:
        _populate(primary, client)
        _wait_caught_up(follower.replica, primary)
        yield primary, follower, client
    finally:
        client.close()
        follower.die()
        primary.die()


# ---------------------------------------------------------------------------
# streaming end to end
# ---------------------------------------------------------------------------


def test_follower_serves_primary_rows(topology):
    primary, follower, client = topology
    with connect(*follower.address) as rc:
        rows = rc.execute("retrieve (Emp1.name, Emp1.dept.name)").rows
    assert sorted(r[0] for r in rows) == ["alice", "bob"]


def test_writes_keep_streaming_and_ddl_keeps_file_ids_aligned(topology):
    primary, follower, client = topology
    # a retrieve materializes (and drops) a temp file on the primary;
    # the follower must neither receive it nor fall out of id-step for
    # the DDL that follows
    before = primary.hub.log.last_lsn
    client.execute("retrieve (Emp1.name)")
    assert primary.hub.log.last_lsn == before  # reads ship nothing
    client.execute('replace (Emp1.age = 31) where Emp1.name = "alice"')
    client.execute("create Emp2: {own ref EMP}")
    _wait_caught_up(follower.replica, primary)
    assert (follower.db.storage.disk.file_ids()
            == primary.db.storage.disk.file_ids())
    with connect(*follower.address) as rc:
        rows = rc.execute('retrieve (Emp1.age) where Emp1.name = "alice"').rows
    assert [list(r) for r in rows] == [[31]]


def test_replica_refuses_writes_with_stable_code(topology):
    primary, follower, client = topology
    with connect(*follower.address) as rc:
        with pytest.raises(RemoteError) as err:
            rc.execute('replace (Emp1.age = 99) where Emp1.name = "alice"')
    assert err.value.code == "read_only_replica"


def test_unpromoted_follower_refuses_doctor_repair(topology):
    primary, follower, client = topology
    with connect(*follower.address) as rc:
        with pytest.raises(RemoteError) as err:
            rc.meta("doctor", "repair")
        assert err.value.code == "read_only_replica"
        # diagnosis touches no replicated page and stays allowed
        assert "doctor" in rc.meta("doctor")
        primary.die()
        rc.promote()
        assert "doctor" in rc.meta("doctor", "repair")


def test_stale_replica_refuses_reads_with_stable_code(topology):
    primary, follower, client = topology
    replica = follower.replica
    replica.stop_apply()
    replica.max_lag = 0
    replica.primary_lsn = replica.applied_lsn + 5  # what a heartbeat told us
    assert replica.stale
    with connect(*follower.address) as rc:
        with pytest.raises(RemoteError) as err:
            rc.execute("retrieve (Emp1.name)")
    assert err.value.code == "replica_stale"
    assert follower.health()["status"] == "stale"
    count = replica.db.telemetry.metrics.value(
        "replica_stale_reads_rejected_total")
    assert count >= 1


def test_guard_is_a_plain_exception_in_process(topology):
    primary, follower, client = topology
    replica = follower.replica
    with pytest.raises(ReadOnlyReplicaError):
        replica.guard("write")
    replica.max_lag = 0
    replica.primary_lsn = replica.applied_lsn + 1
    with pytest.raises(ReplicaStaleError) as err:
        replica.guard("read")
    assert err.value.lag == 1 and err.value.bound == 0


def test_follower_reconnects_and_dedupes_after_link_loss(topology):
    primary, follower, client = topology
    replica = follower.replica
    applied = replica.applied_lsn
    reconnects = replica.reconnects
    # sever every live connection (including the replication link); the
    # listener stays up, so the follower must re-subscribe and resume
    with primary._mutex:
        conns = list(primary._conns)
    for sock in conns:
        sock.close()
    with connect(*primary.address) as writer:
        writer.execute('replace (Emp1.age = 41) where Emp1.name = "bob"')
    _wait_caught_up(replica, primary)
    assert replica.applied_lsn > applied
    assert replica.reconnects > reconnects
    with connect(*follower.address) as rc:
        rows = rc.execute('retrieve (Emp1.age) where Emp1.name = "bob"').rows
    assert [list(r) for r in rows] == [[41]]


def test_promote_over_the_wire_stands_down_the_guard(topology):
    primary, follower, client = topology
    primary.die()
    with connect(*follower.address) as rc:
        result = rc.promote()
        assert result["kind"] == "promoted"
        rc.execute('replace (Emp1.age = 50) where Emp1.name = "alice"')
        rows = rc.execute('retrieve (Emp1.age) where Emp1.name = "alice"').rows
    assert [list(r) for r in rows] == [[50]]
    assert follower.replica.promoted
    assert follower.health()["status"] in ("ok", "degraded")


def test_replication_status_and_render(topology):
    primary, follower, client = topology
    pstat = client.replication()
    assert pstat["role"] == "primary"
    assert pstat["last_lsn"] == primary.hub.log.last_lsn
    assert len(pstat["followers"]) >= 1
    with connect(*follower.address) as rc:
        fstat = rc.replication()
    assert fstat["role"] == "follower"
    assert fstat["applied_lsn"] == pstat["last_lsn"]
    text = render_status(pstat) + "\n" + render_status(fstat)
    assert "role primary" in text and "role follower" in text
    assert "follower #" in text


def test_meta_replication_and_server_stats_carry_topology(topology):
    primary, follower, client = topology
    assert "role primary" in client.meta("replication")
    assert primary.server_stats()["replication"]["role"] == "primary"


# ---------------------------------------------------------------------------
# the sync quorum
# ---------------------------------------------------------------------------


def test_quorum_timeout_is_counted_but_not_fatal():
    primary = Server(Database(wal=True), port=0, sync_replicas=1,
                     sync_timeout=0.05).start()
    try:
        with connect(*primary.address) as client:
            client.execute("define type T (x: int)")  # no follower: times out
        assert primary.db.telemetry.metrics.value(
            "replication_sync_timeouts_total") >= 1
    finally:
        primary.die()


def test_drain_flushes_the_tail_to_followers():
    primary = Server(Database(wal=True), port=0, drain_timeout=5.0).start()
    follower = ReplicaServer(
        Replica(primary.address, name="r1", poll_wait=0.05,
                min_backoff=0.01, max_backoff=0.2), port=0).start()
    try:
        with connect(*primary.address) as client:
            for text in SETUP_DDL:
                client.execute(text)
        deadline = time.perf_counter() + 5.0
        while (follower.replica.applied_lsn < primary.hub.log.last_lsn
               and time.perf_counter() < deadline):
            time.sleep(0.01)
        flushed, laggards = primary.hub.drain(timeout=5.0)
        assert flushed and not laggards
        primary.shutdown()  # runs the same drain; must not hang
    finally:
        follower.die()
        primary.die()


# ---------------------------------------------------------------------------
# what a field update ships
# ---------------------------------------------------------------------------


def test_a_field_update_ships_the_field_bytes(tmp_path):
    """Renaming a dept with 40 referencers ships one entry: BEGIN,
    COMMIT and one REDO holding a 12-byte span head and the 12 changed
    bytes per object written -- the dept and each referencer's hidden
    copy, not their records.  Applied, it leaves the follower's pages
    equal to the primary's."""
    db = Database(wal=True)
    for text in SETUP_DDL[:4]:
        run_script_statement(db, text)
    toys = db.insert("Dept1", {"name": "toys", "floor": 3})
    db.insert("Dept1", {"name": "tools", "floor": 1})
    referencers = 40
    for i in range(referencers):
        db.insert("Emp1", {"name": f"e{i}", "age": i, "dept": toys})
    run_script_statement(db, SETUP_DDL[4])
    db.checkpoint()
    primary, hub, follower = _pair(tmp_path, db)
    primary.execute('replace (Dept1.name = "games") '
                    'where Dept1.name = "toys"')
    (entry,) = hub.log.entries_after(0)
    assert entry.kind == "dml"
    width = primary.catalog.get_set("Dept1").type_def.field_def("name").width
    begin = WalRecord(WalRecordType.BEGIN, 0, note=entry.note).encode()
    commit = WalRecord(WalRecordType.COMMIT, 0).encode()
    one_span = WalRecord.redo(0, [(0, 0, 0, b"x")]).encode()
    redo_head = len(one_span) - (12 + 1)
    assert len(entry.frames) <= (len(begin) + len(commit) + redo_head
                                 + (1 + referencers) * (12 + width))
    assert [applied for applied, __ in _follow(hub, follower)] == [entry]
    assert _pages(follower) == _pages(primary)
    assert sorted(r[0] for r in follower.execute(
        "retrieve (Emp1.dept.name)").rows) == ["games"] * referencers
    follower.verify()


# ---------------------------------------------------------------------------
# client robustness: timeouts, retry, routing
# ---------------------------------------------------------------------------


def test_client_retries_idempotent_requests_after_a_drop(topology):
    primary, follower, client = topology
    retrying = connect(*primary.address, retry=True, retry_backoff=0.01)
    try:
        retrying.ping()
        with primary._mutex:
            conns = list(primary._conns)
        for sock in conns:
            sock.close()
        # the socket is dead; a retryable request reconnects transparently
        assert retrying.ping() is True
        rows = retrying.execute("retrieve (Emp1.name)").rows
        assert len(rows) == 2
    finally:
        retrying.close()


def test_client_does_not_retry_writes_or_inside_transactions(topology):
    primary, follower, client = topology
    c = connect(*primary.address, retry=True, retry_backoff=0.01)
    try:
        assert c._may_retry("statement", {"statement": "retrieve (Emp1.name)"})
        assert not c._may_retry(
            "statement", {"statement": 'replace (Emp1.age = 1)'})
        c.begin()
        assert not c._may_retry(
            "statement", {"statement": "retrieve (Emp1.name)"})
        c.abort()
    finally:
        c.close()


def test_routed_client_routes_reads_and_falls_back(topology):
    primary, follower, client = topology
    with RoutedClient(primary.address, replicas=[follower.address],
                      retry_backoff=0.01) as routed:
        served = follower.replica.db.telemetry.metrics
        before = served.value("server_requests_total", kind="statement") or 0
        rows = routed.execute("retrieve (Emp1.name)").rows
        assert len(rows) == 2
        after = served.value("server_requests_total", kind="statement") or 0
        assert after > before  # the read ran on the follower
        # writes go to the primary even with replicas configured
        routed.execute('replace (Emp1.age = 33) where Emp1.name = "alice"')
        # a stale replica falls back to the primary instead of failing
        follower.replica.stop_apply()
        follower.replica.max_lag = 0
        follower.replica.primary_lsn = follower.replica.applied_lsn + 9
        rows = routed.execute("retrieve (Emp1.age) "
                              'where Emp1.name = "alice"').rows
        assert [list(r) for r in rows] == [[33]]


# ---------------------------------------------------------------------------
# the network fault injector
# ---------------------------------------------------------------------------


def test_net_faults_are_deterministic_per_seed():
    a = NetFaultInjector(seed=7, drop=0.2, delay=0.2, duplicate=0.2)
    b = NetFaultInjector(seed=7, drop=0.2, delay=0.2, duplicate=0.2)
    plans = [a.plan_frame() for __ in range(50)]
    assert plans == [b.plan_frame() for __ in range(50)]
    assert set(plans) <= set(NetFaultInjector.ACTIONS)
    assert a.frames_seen == 50


def test_net_fault_script_pins_exact_frames():
    inj = NetFaultInjector(script=["ok", "drop", "truncate"])
    assert inj.armed
    assert [inj.plan_frame() for __ in range(3)] == ["ok", "drop", "truncate"]
    assert inj.plan_frame() == "ok"  # script exhausted, no rates armed


def test_net_fault_rates_are_validated():
    with pytest.raises(ValueError):
        NetFaultInjector(drop=1.5)
    with pytest.raises(ValueError):
        NetFaultInjector(drop=0.6, truncate=0.6)


def test_follower_survives_a_hostile_link():
    """Scripted drop/duplicate/truncate faults on the real link: the
    follower reconnects, dedupes, and still converges byte-for-byte."""
    primary = Server(Database(wal=True), port=0).start()
    faults = NetFaultInjector(
        script=["ok", "duplicate", "drop", "ok", "truncate"] + ["ok"] * 5,
        seed=3, drop=0.05, duplicate=0.05)
    follower = ReplicaServer(
        Replica(primary.address, name="chaos", poll_wait=0.05,
                link_timeout=0.3, min_backoff=0.01, max_backoff=0.1,
                net_faults=faults),
        port=0).start()
    try:
        with connect(*primary.address) as client:
            _populate(primary, client)
        _wait_caught_up(follower.replica, primary, timeout=10.0)
        assert faults.frames_seen > 0
        with connect(*follower.address) as rc:
            rows = rc.execute("retrieve (Emp1.name)").rows
        assert sorted(r[0] for r in rows) == ["alice", "bob"]
    finally:
        follower.die()
        primary.die()
