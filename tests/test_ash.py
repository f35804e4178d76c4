"""Active session history: ring bounds and eviction (including under
concurrent writers), filtered reads, profiles, and the live sampling
path through a served database (``ash`` verb, ``/ash``, ``\\ash``)."""

import json
import threading
import time
from urllib.request import urlopen

import pytest

from repro.server import connect
from repro.server.httpexpo import MetricsHTTPServer
from repro.server.service import Server
from repro.telemetry.ash import ActiveSessionHistory
from repro.telemetry.waitevents import CLIENT_NET, CPU, WaitEventCollector


def _sample(ts, event="cpu", session_id=1, statement="retrieve ( x )",
            fingerprint="fp"):
    return {"ts": ts, "session_id": session_id, "session": f"s{session_id}",
            "statement": statement, "fingerprint": fingerprint,
            "event": event, "detail": "", "wait_s": 0.0,
            "statement_age_s": 0.0}


# ---------------------------------------------------------------------------
# the ring: bounds, eviction, concurrency
# ---------------------------------------------------------------------------


def test_ring_is_bounded_and_evicts_oldest_first():
    ash = ActiveSessionHistory(capacity=10)
    ash.record([_sample(float(i)) for i in range(25)])
    assert len(ash) == 10
    assert ash.sampled_total == 25
    retained = ash.samples()
    assert [s["ts"] for s in retained] == [float(i) for i in range(15, 25)]


def test_ring_stays_bounded_under_concurrent_sessions():
    ash = ActiveSessionHistory(capacity=64)
    threads = []
    per_thread = 40

    def writer(sid: int) -> None:
        for i in range(per_thread):
            ash.record([_sample(time.time(), session_id=sid)])

    threads = [threading.Thread(target=writer, args=(sid,))
               for sid in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert len(ash) == 64  # full, never over capacity
    assert ash.sampled_total == 8 * per_thread
    assert ash.passes == 8 * per_thread


def test_filters_window_fingerprint_event_session_and_limit():
    ash = ActiveSessionHistory(capacity=100)
    ash.record([
        _sample(10.0, event=CPU, session_id=1, fingerprint="aa"),
        _sample(20.0, event="lock:Emp1", session_id=2, fingerprint="bb"),
        _sample(30.0, event="lock:Dept", session_id=2, fingerprint="bb"),
        _sample(40.0, event="buffer_io", session_id=3, fingerprint="aa"),
    ])
    assert len(ash.samples(since=15.0, until=35.0)) == 2
    assert len(ash.samples(fingerprint="aa")) == 2
    # "lock" matches the whole class; "lock:Emp1" just that resource
    assert len(ash.samples(event="lock")) == 2
    assert len(ash.samples(event="lock:Emp1")) == 1
    assert len(ash.samples(session_id=2)) == 2
    newest = ash.samples(limit=1)
    assert len(newest) == 1 and newest[0]["ts"] == 40.0


def test_profile_shares_sum_to_one_and_rank_by_samples():
    ash = ActiveSessionHistory()
    ash.record([_sample(1.0, event="lock:Emp1")] * 3
               + [_sample(2.0, event=CPU)])
    profile = ash.profile("event")
    assert profile[0]["event"] == "lock:Emp1"
    assert profile[0]["share"] == pytest.approx(0.75)
    assert sum(row["share"] for row in profile) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ash.profile("nonsense")


def test_sampling_pass_covers_busy_and_idle_sessions():
    collector = WaitEventCollector()
    collector.begin_statement(1, "busy", "retrieve (Emp1.name)")

    class FakeSession:
        def __init__(self, id_, closed=False):
            self.id = id_
            self.name = f"fake{id_}"
            self.closed = closed
            self.in_txn = False

    ash = ActiveSessionHistory()
    n = ash.sample(collector, [FakeSession(1), FakeSession(2),
                               FakeSession(3, closed=True)])
    # session 1 is busy (cpu), session 2 idle (client_net), 3 is closed
    assert n == 2
    events = {s["session_id"]: s["event"] for s in ash.samples()}
    assert events == {1: CPU, 2: CLIENT_NET}
    busy = ash.samples(session_id=1)[0]
    assert busy["fingerprint"] != ""  # fingerprinted at sample time
    assert ash.samples(session_id=2)[0]["detail"] == "idle"


def test_snapshot_document_shape():
    ash = ActiveSessionHistory(capacity=8)
    ash.record([_sample(time.time(), event=CPU)])
    doc = ash.snapshot(window_s=60.0, limit=5)
    assert doc["capacity"] == 8
    assert doc["retained"] == 1
    assert doc["matched"] == 1
    assert doc["profile"][0]["event"] == CPU
    assert doc["by_fingerprint"][0]["fingerprint"] == "fp"
    assert len(doc["samples"]) == 1
    assert "(no ASH samples" in ActiveSessionHistory().render_text()


# ---------------------------------------------------------------------------
# live sampling through a served database
# ---------------------------------------------------------------------------


@pytest.fixture()
def sampled_server(company):
    srv = Server(company["db"], max_connections=8, lock_timeout=5.0,
                 sample_interval=0.02, ash_capacity=512).start()
    yield srv
    srv.shutdown()


def _wait_for_samples(server, minimum=3, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if server.ash.sampled_total >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(f"sampler took no samples in {timeout}s")


def test_live_sampler_feeds_ash_verb_http_and_meta(sampled_server):
    server = sampled_server
    http = MetricsHTTPServer(server).start()
    try:
        with connect(*server.address) as client:
            for __ in range(10):
                client.execute("retrieve (Emp1.name, Emp1.dept.name)")
            _wait_for_samples(server)
            # the wire verb
            doc = client.ash(window_s=300.0)
            assert doc["sampled_total"] >= 3
            assert doc["matched"] >= 1
            events = {row["event"] for row in doc["profile"]}
            assert events & {CPU, CLIENT_NET}
            # the shell meta
            text = client.meta("ash", "300")
            assert "active session history" in text
            # the HTTP surface
            with urlopen(f"http://{http.host}:{http.port}/ash?window_s=300",
                         timeout=10.0) as response:
                assert response.status == 200
                body = json.loads(response.read().decode("utf-8"))
            assert body["sampled_total"] >= 3
            with urlopen(f"http://{http.host}:{http.port}"
                         "/timeseries?window_s=300", timeout=10.0) as response:
                series = json.loads(response.read().decode("utf-8"))["series"]
            assert "server.statements_total" in series
            assert series["server.statements_total"], "sampled points"
            with urlopen(f"http://{http.host}:{http.port}/alerts",
                         timeout=10.0) as response:
                alerts = json.loads(response.read().decode("utf-8"))
            assert {a["alert"] for a in alerts["alerts"]} == \
                {"lock_wait_share", "replica_staleness", "health"}
            assert alerts["firing"] == 0
            assert alerts["evaluations"] >= 1
    finally:
        http.shutdown()


def test_ash_http_rejects_bad_query(sampled_server):
    http = MetricsHTTPServer(sampled_server).start()
    try:
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as err:
            urlopen(f"http://{http.host}:{http.port}/ash?window_s=banana",
                    timeout=10.0)
        assert err.value.code == 400
    finally:
        http.shutdown()


def test_disabled_sampler_answers_empty_but_alive(company):
    server = Server(company["db"], max_connections=4,
                    sample_interval=0).start()
    try:
        assert not server.sampler.running
        with connect(*server.address) as client:
            client.execute("retrieve (Emp1.name)")
            doc = client.ash()
            assert doc["sampled_total"] == 0
            text = client.meta("ash")
            assert "no ASH samples" in text or "no samples" in text
    finally:
        server.shutdown()
