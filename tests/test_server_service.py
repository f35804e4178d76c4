"""The TCP server end to end: handshake, statements, admission, drain."""

import json
import socket
import struct
import threading
import urllib.error
from urllib.request import urlopen

import pytest

import repro.server.__main__ as server_main
from repro.errors import RemoteError
from repro.server import connect
from repro.server.client import ClientResult
from repro.server.httpexpo import ENDPOINTS, MetricsHTTPServer
from repro.server.service import Server


@pytest.fixture()
def server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=2.0).start()
    yield srv
    srv.shutdown()


def test_handshake_ping_and_statement(server):
    with connect(*server.address) as client:
        assert client.session_id >= 1
        assert client.ping()
        result = client.execute("retrieve (Emp1.name, Emp1.dept.name)")
        assert isinstance(result, ClientResult)
        assert ("alice", "toys") in result.rows
        assert result.columns == ("Emp1.name", "Emp1.dept.name")
        assert result.io.total_io >= 0 and result.plan


def test_write_propagates_through_replication_over_the_wire(server):
    with connect(*server.address) as client:
        client.execute("replicate Emp1.dept.name")
        client.execute('replace (Dept.name = "games") where Dept.name = "toys"')
        rows = client.execute("retrieve (Emp1.name, Emp1.dept.name)").rows
        assert ("alice", "games") in rows and ("bob", "games") in rows
        assert "invariants hold" in client.meta("verify")


def test_transactions_and_error_codes(server):
    with connect(*server.address) as client:
        client.begin()
        client.execute("replace (Emp1.salary = 1)")
        client.commit()
        with pytest.raises(RemoteError) as info:
            client.execute("retrieve (Nope.name)")
        assert info.value.code == "engine_error"
        with pytest.raises(RemoteError) as info:
            client.execute("what even is this")
        assert info.value.code == "parse_error"
        # the connection survived both errors
        assert client.ping()


def test_lock_timeout_surfaces_with_its_code(server):
    with connect(*server.address) as holder, connect(*server.address) as waiter:
        holder.begin()
        holder.execute("replace (Emp1.salary = 1)")  # X(Emp1), held
        with pytest.raises(RemoteError) as info:
            waiter.execute("replace (Emp1.salary = 2)")
        assert info.value.code == "lock_timeout"
        holder.commit()
        waiter.execute("replace (Emp1.salary = 2)")  # now free


def test_connection_limit_rejected_with_server_busy(company):
    server = Server(company["db"], max_connections=1).start()
    try:
        with connect(*server.address) as client:
            assert client.ping()
            with pytest.raises(RemoteError) as info:
                connect(*server.address)
            assert info.value.code == "server_busy"
        # the slot frees up once the first client leaves
        deadline = 50
        for __ in range(deadline):
            try:
                extra = connect(*server.address, timeout=1.0)
                break
            except RemoteError:
                import time

                time.sleep(0.05)
        else:
            pytest.fail("slot never freed")
        extra.close()
    finally:
        server.shutdown()


def test_damaged_frame_gets_error_then_close(server):
    sock = socket.create_connection(server.address, timeout=2.0)
    try:
        from repro.server import protocol

        protocol.check_handshake(protocol.read_frame(sock))
        payload = b'{"id": 1, "kind": "ping"}'
        sock.sendall(struct.pack(">II", len(payload), 12345) + payload)  # bad crc
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"
        # the server closed the poisoned stream
        assert sock.recv(1) == b""
    finally:
        sock.close()


def test_meta_commands_over_the_wire(server):
    with connect(*server.address) as client:
        assert "Emp1" in client.meta("describe")
        assert "physical reads" in client.meta("stats")
        assert "lock_waits_total" in client.meta("stats", "prom")
        stats = client.stats()
        assert stats["connections"] == 1
        assert stats["max_connections"] == 8
        assert stats["sets"] >= 4


def test_request_metrics_by_kind(server):
    with connect(*server.address) as client:
        client.ping()
        client.execute("retrieve (Emp1.name)")
        metrics = server.db.telemetry.metrics
        assert metrics.value("server_requests_total", kind="ping") >= 1
        assert metrics.value("server_requests_total", kind="statement") >= 1
        assert metrics.value("server_connections_total") >= 1


def test_shutdown_drains_and_is_idempotent(company):
    server = Server(company["db"]).start()
    client = connect(*server.address)
    assert client.ping()
    assert "draining" in client.shutdown()
    assert server.wait(10.0)
    server.shutdown()  # second call returns immediately
    # new connections are refused after drain
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=0.5)


def test_sessions_closed_on_disconnect_release_locks(server):
    client = connect(*server.address)
    client.begin()
    client.execute("replace (Emp1.salary = 3)")
    client.close()  # dies mid-transaction
    with connect(*server.address) as other:
        # must not block on the dead session's X(Emp1)
        other.execute("replace (Emp1.salary = 4)")


def test_the_server_runs_no_sampling_layer(company, monkeypatch):
    """No sampler thread, no sampling routes, verb or flags: a started
    server adds only its accept thread, ``/ash``, ``/timeseries`` and
    ``/alerts`` are unknown paths, ``ash`` is an unknown request kind,
    and ``--sample-interval`` is refused before a database is opened --
    as is ``--no-replication``, one of the flags nothing set."""
    before = set(threading.enumerate())
    server = Server(company["db"]).start()
    sidecar = None
    try:
        assert [t.name for t in set(threading.enumerate()) - before] \
            == ["repro-accept"]
        sidecar = MetricsHTTPServer(server).start()
        for path in ("/ash", "/timeseries", "/alerts"):
            with pytest.raises(urllib.error.HTTPError) as info:
                urlopen(f"http://{sidecar.host}:{sidecar.port}{path}",
                        timeout=10.0)
            assert info.value.code == 404
            assert json.loads(info.value.read())["endpoints"] == \
                list(ENDPOINTS)
        with connect(*server.address) as client:
            with pytest.raises(RemoteError) as info:
                client._request("ash")
            assert info.value.code == "protocol_error"
            assert "unknown request kind 'ash'" in str(info.value)
            assert client.ping()
    finally:
        if sidecar is not None:
            sidecar.shutdown()
        server.shutdown()

    def opened(path):
        raise AssertionError("a database was opened")

    monkeypatch.setattr(server_main, "open_database", opened)
    for argv in (["--sample-interval", "1"], ["--no-replication"]):
        with pytest.raises(SystemExit) as exit_info:
            server_main.main(argv)
        assert exit_info.value.code == 2
