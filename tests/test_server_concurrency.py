"""Concurrency stress: readers scan a replicated path while writers
update its source; every observed value must have actually been written
and the replication invariants must hold afterwards."""

import threading

import pytest

from repro.errors import RemoteError
from repro.server import connect
from repro.server.service import Server


@pytest.fixture()
def server(company):
    db = company["db"]
    db.replicate("Emp1.dept.name")
    srv = Server(db, max_connections=16, lock_timeout=10.0).start()
    yield srv
    srv.shutdown()


def test_readers_never_observe_half_propagated_writes(server):
    """8+ concurrent connections: writers rename departments through the
    replicated path, readers scan Emp1.dept.name.  Set-granularity locks
    must make each propagation atomic: every observed department name is
    one some writer actually wrote (or the seed value), and within one
    scan all employees of one department agree on its name."""
    rounds = 12
    # each writer renames a department it owns; names are tagged so the
    # legal value set is known exactly
    writers = {"toys": 100, "tools": 200, "shoes": 300}  # name -> budget key
    legal = {dept: {dept} | {f"{dept}-v{i}" for i in range(rounds)}
             for dept in writers}
    emp_home = {  # employee -> department (immutable during the test)
        "alice": "toys", "bob": "toys", "carol": "tools",
        "dave": "tools", "erin": "shoes", "frank": "shoes",
    }
    errors = []
    violations = []
    observed = []
    stop = threading.Event()

    def writer(dept, budget):
        try:
            with connect(*server.address) as client:
                for i in range(rounds):
                    client.execute(
                        f'replace (Dept.name = "{dept}-v{i}") '
                        f'where Dept.budget = {budget}')
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(f"writer {dept}: {exc!r}")
        finally:
            stop.set()

    def reader(idx):
        try:
            with connect(*server.address) as client:
                while not stop.is_set() or idx < 2:  # at least one final scan
                    rows = client.execute(
                        "retrieve (Emp1.name, Emp1.dept.name)").rows
                    seen = {}
                    for name, dept_name in rows:
                        home = emp_home[name]
                        if dept_name not in legal[home]:
                            violations.append(
                                f"{name} observed {dept_name!r}, never written")
                        seen.setdefault(home, set()).add(dept_name)
                    for home, names in seen.items():
                        if len(names) > 1:
                            violations.append(
                                f"torn scan: {home} appeared as {sorted(names)}")
                    observed.append(rows)
                    if stop.is_set():
                        break
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(f"reader {idx}: {exc!r}")

    threads = [threading.Thread(target=writer, args=(d, b))
               for d, b in writers.items()]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(5)]
    assert len(threads) + len(writers) >= 8 or len(threads) >= 8
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert violations == []
    assert len(observed) >= 5  # the readers really ran

    # after the dust settles: invariants hold and the doctor is happy
    with connect(*server.address) as client:
        assert "invariants hold" in client.meta("verify")
        assert "0 problem" in client.meta("doctor") or \
            "no problems" in client.meta("doctor").lower()
        # final state: the last written name is what replicas show
        rows = client.execute("retrieve (Emp1.name, Emp1.dept.name)").rows
        for name, dept_name in rows:
            assert dept_name == f"{emp_home[name]}-v{rounds - 1}"


def test_eight_clients_mixed_load_consistent(server):
    """The acceptance bar: >= 8 live connections at once, mixed reads and
    writes, zero errors other than explicit lock verdicts."""
    barrier = threading.Barrier(8, timeout=30.0)
    failures = []

    def worker(idx):
        try:
            with connect(*server.address) as client:
                barrier.wait()  # all 8 connected simultaneously
                for i in range(6):
                    if idx % 2:
                        rows = client.execute(
                            "retrieve (Emp1.name, Emp1.dept.name)").rows
                        assert len(rows) == 6
                    else:
                        client.execute(
                            f"replace (Emp1.salary = {1000 + idx * 10 + i}) "
                            f'where Emp1.name = "alice"')
        except Exception as exc:
            failures.append(f"worker {idx}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert failures == []
    with connect(*server.address) as client:
        assert client.stats()["connections_total"] >= 8
        assert "invariants hold" in client.meta("verify")


def test_induced_deadlock_is_broken_over_the_wire(server):
    """Two transactions lock Emp1 / Emp2 in opposite orders; the server
    must abort exactly one with the ``deadlock`` code and the other must
    commit."""
    ready = threading.Barrier(2, timeout=30.0)
    verdicts = {}

    def txn(name, first, second):
        with connect(*server.address) as client:
            client.begin()
            client.execute(f"replace ({first}.salary = 1)")
            ready.wait()  # both hold their first lock: the cycle is set
            try:
                client.execute(f"replace ({second}.salary = 2)")
                client.commit()
                verdicts[name] = "committed"
            except RemoteError as exc:
                verdicts[name] = exc.code

    t1 = threading.Thread(target=txn, args=("a", "Emp1", "Emp2"))
    t2 = threading.Thread(target=txn, args=("b", "Emp2", "Emp1"))
    t1.start()
    t2.start()
    t1.join(timeout=30.0)
    t2.join(timeout=30.0)
    assert sorted(verdicts.values()) == ["committed", "deadlock"]
    assert server.db.telemetry.metrics.value("deadlocks_total") >= 1
    with connect(*server.address) as client:
        assert "invariants hold" in client.meta("verify")


def test_lock_wait_metrics_accumulate_under_contention(server):
    """Contending writers must be visible in lock_waits_total /
    lock_wait_seconds -- the observability the benchmark reports."""
    import time

    metrics = server.db.telemetry.metrics
    before = metrics.value("lock_waits_total")
    with connect(*server.address) as holder:
        holder.begin()
        holder.execute("replace (Emp1.salary = 1)")  # X(Emp1), held

        def blocked():
            with connect(*server.address) as client:
                client.execute("replace (Emp1.salary = 2)")  # must wait

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.3)  # let the waiter park on the lock
        holder.commit()
        thread.join(timeout=30.0)
    assert metrics.value("lock_waits_total") > before
    assert metrics.histogram("lock_wait_seconds").count() > 0
    assert metrics.histogram("lock_wait_seconds").sum() > 0.1
