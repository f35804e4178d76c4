"""A real ``python -m repro.server`` process under sustained mixed load.

Marked ``soak``: excluded from the default (tier-1) run, exercised by
the CI server job.  Duration is tunable via ``REPRO_SOAK_SECONDS``.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import RemoteError
from repro.server import connect
from repro.snapshot import open_database, save_database
from tests.conftest import define_employee_schema

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))


def _build_snapshot(path):
    from repro import Database

    db = Database()
    define_employee_schema(db)
    orgs = [db.insert("Org", {"name": f"org{i}", "budget": i}) for i in range(2)]
    depts = [
        db.insert("Dept", {"name": f"dept{i}", "budget": 1000 + i,
                           "org": orgs[i % 2]})
        for i in range(4)
    ]
    for i in range(24):
        db.insert("Emp1", {"name": f"emp{i}", "age": 20 + i,
                           "salary": 1_000 * i, "dept": depts[i % 4]})
    db.replicate("Emp1.dept.name")
    save_database(db, path)


@pytest.mark.soak
def test_server_process_survives_sustained_mixed_load(tmp_path):
    snapshot = tmp_path / "soak.frdb"
    saved = tmp_path / "after.frdb"
    _build_snapshot(str(snapshot))

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--snapshot", str(snapshot), "--save", str(saved),
         "--lock-timeout", "10", "--metrics-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        host, port = line.split()[-1].rsplit(":", 1)
        address = (host, int(port))
        line = proc.stdout.readline().strip()
        assert line.startswith("metrics on "), line
        mhost, mport = line.split()[-1].rsplit(":", 1)
        metrics_base = f"http://{mhost}:{mport}"

        deadline = time.monotonic() + SOAK_SECONDS
        counts = {"reads": 0, "writes": 0, "busy": 0, "lock": 0, "scrapes": 0}
        counts_mutex = threading.Lock()
        failures = []

        def scraper():
            """Hammer the sidecar during the soak: every scrape must 200."""
            from urllib.request import urlopen

            try:
                while time.monotonic() < deadline:
                    for path in ("/metrics", "/health", "/slow"):
                        with urlopen(metrics_base + path, timeout=10.0) as rsp:
                            assert rsp.status == 200, (path, rsp.status)
                            body = rsp.read().decode("utf-8")
                        if path == "/metrics":
                            assert "lock_wait_seconds" in body
                    with counts_mutex:
                        counts["scrapes"] += 1
                    time.sleep(0.25)
            except Exception as exc:
                failures.append(f"scraper: {exc!r}")

        def worker(idx):
            try:
                with connect(*address, timeout=30.0) as client:
                    i = 0
                    while time.monotonic() < deadline:
                        i += 1
                        try:
                            if idx % 2:
                                rows = client.execute(
                                    "retrieve (Emp1.name, Emp1.dept.name)").rows
                                assert len(rows) == 24
                                with counts_mutex:
                                    counts["reads"] += 1
                            else:
                                dept = (idx + i) % 4
                                client.execute(
                                    f'replace (Dept.name = "dept{dept}-{idx}-{i}") '
                                    f"where Dept.budget = {1000 + dept}")
                                with counts_mutex:
                                    counts["writes"] += 1
                        except RemoteError as exc:
                            # explicit verdicts are allowed; anything else is not
                            if exc.code in ("server_busy",):
                                with counts_mutex:
                                    counts["busy"] += 1
                                time.sleep(0.01)
                            elif exc.code in ("lock_timeout", "deadlock"):
                                with counts_mutex:
                                    counts["lock"] += 1
                            else:
                                raise
            except Exception as exc:
                failures.append(f"worker {idx}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=scraper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SOAK_SECONDS + 60.0)
        assert failures == []
        assert counts["reads"] > 0 and counts["writes"] > 0
        assert counts["scrapes"] > 0

        with connect(*address, timeout=30.0) as client:
            assert "invariants hold" in client.meta("verify")
            assert "no problems found" in client.meta("doctor")
            stats = client.stats()
            assert stats["connections_total"] >= 8
            client.shutdown()

        assert proc.wait(timeout=60.0) == 0
        out, err = proc.stdout.read(), proc.stderr.read()
        assert "server drained" in out
        assert f"saved snapshot to {saved}" in out, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    # the drained snapshot reloads cleanly and is internally consistent
    reloaded = open_database(str(saved))
    reloaded.verify()
    assert len(reloaded.execute("retrieve (Emp1.name)").rows) == 24


@pytest.mark.soak
def test_server_process_concurrency_stress(tmp_path):
    """Read-heavy 16-client stress against a real server process.

    Gated on ``REPRO_CONCURRENCY_STRESS=1`` (the CI soak job's stress
    variant).  14 readers and 2 writers queue for the one engine mutex
    while a scraper polls ``/metrics``; the run must finish without
    deadlock or protocol failures, every read must see every row, and
    the replication invariants must hold afterwards.
    """
    if os.environ.get("REPRO_CONCURRENCY_STRESS") != "1":
        pytest.skip("set REPRO_CONCURRENCY_STRESS=1 to run the stress soak")
    clients = 16
    snapshot = tmp_path / "stress.frdb"
    _build_snapshot(str(snapshot))

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--snapshot", str(snapshot),
         "--max-connections", str(clients + 4), "--lock-timeout", "10",
         "--metrics-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        host, port = line.split()[-1].rsplit(":", 1)
        address = (host, int(port))
        line = proc.stdout.readline().strip()
        assert line.startswith("metrics on "), line
        mhost, mport = line.split()[-1].rsplit(":", 1)
        metrics_base = f"http://{mhost}:{mport}"

        deadline = time.monotonic() + SOAK_SECONDS
        counts = {"reads": 0, "writes": 0, "busy": 0, "lock": 0}
        counts_mutex = threading.Lock()
        failures = []

        def scraper():
            from urllib.request import urlopen

            try:
                while time.monotonic() < deadline:
                    with urlopen(metrics_base + "/metrics",
                                 timeout=10.0) as rsp:
                        assert rsp.status == 200
                        rsp.read()
                    time.sleep(0.25)
            except Exception as exc:
                failures.append(f"scraper: {exc!r}")

        def worker(idx):
            is_writer = idx < 2  # read-heavy: 2 of 16 write
            try:
                with connect(*address, timeout=30.0) as client:
                    i = 0
                    while time.monotonic() < deadline:
                        i += 1
                        try:
                            if is_writer:
                                dept = (idx + i) % 4
                                client.execute(
                                    f'replace (Dept.name = "s{dept}-{idx}-{i}") '
                                    f"where Dept.budget = {1000 + dept}")
                                with counts_mutex:
                                    counts["writes"] += 1
                            else:
                                rows = client.execute(
                                    "retrieve (Emp1.name, Emp1.dept.name)"
                                ).rows
                                assert len(rows) == 24
                                with counts_mutex:
                                    counts["reads"] += 1
                        except RemoteError as exc:
                            if exc.code in ("server_busy",):
                                with counts_mutex:
                                    counts["busy"] += 1
                                time.sleep(0.01)
                            elif exc.code in ("lock_timeout", "deadlock"):
                                with counts_mutex:
                                    counts["lock"] += 1
                            else:
                                raise
            except Exception as exc:
                failures.append(f"worker {idx}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        threads.append(threading.Thread(target=scraper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SOAK_SECONDS + 60.0)
        assert failures == []
        assert counts["reads"] > 0 and counts["writes"] > 0

        with connect(*address, timeout=30.0) as client:
            assert "invariants hold" in client.meta("verify")
            client.shutdown()
        assert proc.wait(timeout=60.0) == 0
        assert "server drained" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
