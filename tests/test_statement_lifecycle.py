"""Lifecycle parity: an embedded ``db.execute`` and a served
``Session.run_statement`` run the same path, so every statement -- however
it ends -- is planned once and recorded once, with the same facts."""

import pytest

from repro import Database
from repro.server.session import SessionManager
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.statstats import StatementStats
from repro.telemetry.waitevents import CPU, WaitEventCollector
from tests.conftest import define_employee_schema

_PLANNERS = ("plan_retrieve", "plan_replace", "plan_delete")


def _build(cache: bool) -> Database:
    db = Database(wal=True, cache=cache)
    define_employee_schema(db)
    db.replicate("Emp1.dept.name")
    db.replicate("Emp1.dept.org.name", lazy=True)
    org = db.insert("Org", {"name": "org", "budget": 1})
    depts = [db.insert("Dept", {"name": f"d{i}", "budget": i, "org": org})
             for i in range(3)]
    for i in range(12):
        db.insert("Emp1", {"name": f"e{i:02d}", "age": 20 + i,
                           "salary": 1000 * i, "dept": depts[i % 3]})
    db.telemetry.slowlog.configure(threshold_ms=0.0)  # keep every statement
    return db


class _Probe:
    """Counts what one statement made the recorders and the planner do."""

    def __init__(self, monkeypatch):
        self.observed: list[dict] = []
        self.slow: list[dict] = []
        self.begun = self.finished = self.plans = 0
        self._wrap(monkeypatch, StatementStats, "observe", self._observe)
        self._wrap(monkeypatch, SlowQueryLog, "observe", self._slow)
        self._wrap(monkeypatch, WaitEventCollector, "begin_statement",
                   self._begin)
        self._wrap(monkeypatch, WaitEventCollector, "finish_statement",
                   self._finish)
        import repro.query.planner
        import repro.query.runner

        for name in _PLANNERS:
            planner = self._counting(getattr(repro.query.planner, name))
            # the lifecycle holds its own reference (``from planner import``)
            monkeypatch.setattr(repro.query.planner, name, planner)
            monkeypatch.setattr(repro.query.runner, name, planner)

    def _wrap(self, monkeypatch, owner, name, note):
        original = getattr(owner, name)

        def wrapper(instance, *args, **kwargs):
            out = original(instance, *args, **kwargs)
            note(out, *args, **kwargs)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    def _counting(self, planner):
        def wrapper(*args, **kwargs):
            self.plans += 1
            return planner(*args, **kwargs)
        return wrapper

    def _observe(self, fp, statement, duration_ms, **kwargs):
        self.observed.append(dict(kwargs, fingerprint=fp,
                                  duration_ms=duration_ms))

    def _slow(self, kept, **kwargs):
        if kept:
            self.slow.append(kwargs)

    def _begin(self, ctx, *args):
        self.begun += 1

    def _finish(self, breakdown, *args):
        self.finished += 1

    def facts(self) -> dict:
        """What the one statement since the last call left behind."""
        assert len(self.observed) == 1, self.observed
        assert len(self.slow) == 1, self.slow
        assert (self.begun, self.finished) == (1, 1)
        seen, slow = self.observed.pop(), self.slow.pop()
        facts = {"fingerprint": seen["fingerprint"],
                 "outcome": seen.get("outcome", "ok"),
                 "rows": seen.get("rows"), "cache": slow.get("cache", ""),
                 "wal_bytes": seen.get("wal_bytes", 0),
                 "duration_ms": seen["duration_ms"],
                 "waits": seen.get("waits") or {}, "plans": self.plans}
        assert slow["fingerprint"] == facts["fingerprint"]
        assert slow.get("outcome", "ok") == facts["outcome"]
        self.begun = self.finished = self.plans = 0
        return facts


#: (query, warm-up statements run first, cache on, what must happen)
_RETRIEVES = {
    "ok": ("retrieve (Emp1.name, Emp1.dept.name)", (), False,
           {"outcome": "ok", "rows": 12, "cache": "", "plans": 1}),
    "parse error": ("retrieve Emp1.name", (), False,
                    {"outcome": "ParseError", "rows": None, "plans": 0}),
    "planning error": ("retrieve (Nope.name)", (), True,
                       {"outcome": "UnknownSetError", "rows": None,
                        "plans": 1}),
    "cache miss": ("retrieve (Emp1.name, Emp1.dept.name)", (), True,
                   {"outcome": "ok", "rows": 12, "cache": "miss",
                    "plans": 1}),
    "cache hit": ("retrieve (Emp1.name, Emp1.dept.name)",
                  ("retrieve (Emp1.name, Emp1.dept.name)",), True,
                  {"outcome": "ok", "rows": 12, "cache": "hit", "plans": 0}),
    "lazy bypass": ("retrieve (Emp1.name, Emp1.dept.org.name)", (), True,
                    {"outcome": "ok", "rows": 12, "cache": "bypass",
                     "plans": 1}),
}
_WRITES = {
    "replace ok": ("replace (Dept.name = 'x') where Dept.name = 'd0'",
                   {"outcome": "ok", "rows": 1, "plans": 1}),
    "replace parse error": ("replace Emp1",
                            {"outcome": "ParseError", "plans": 0}),
    "replace planning error": ("replace (Nope.x = 1)",
                               {"outcome": "UnknownSetError", "plans": 1}),
    "delete ok": ("delete from Emp1 where Emp1.name = 'e00'",
                  {"outcome": "ok", "rows": 1, "plans": 1}),
    "delete parse error": ("delete Emp1 from",
                           {"outcome": "ParseError", "plans": 0}),
    "delete planning error": ("delete from Nope",
                              {"outcome": "UnknownSetError", "plans": 1}),
}


def _both_modes(monkeypatch, query, warm, cache, analyze):
    """Run ``query`` embedded and served on twin databases; returns the
    two statements' recorded facts."""
    probe = _Probe(monkeypatch)
    embedded = _build(cache)
    manager = SessionManager(_build(cache), lock_timeout=2.0)
    try:
        session = manager.open_session("served")
        facts = []
        for run in (
                lambda text: embedded.execute(text, analyze=analyze),
                lambda text: session.run_statement(
                    ("explain analyze " if analyze else "") + text)):
            for text in warm:
                run(text)
                probe.facts()
            try:
                run(query)
            except Exception as exc:
                raised = type(exc).__name__
            else:
                raised = "ok"
            facts.append(probe.facts())
            assert facts[-1]["outcome"] == raised
        assert manager.locks.held_by(session.owner) == {}
        return facts
    finally:
        manager.shutdown()


@pytest.mark.parametrize("analyze", [False, True],
                         ids=["retrieve", "explain analyze retrieve"])
@pytest.mark.parametrize("case", sorted(_RETRIEVES))
def test_retrieve_is_planned_and_recorded_once_in_both_modes(
        monkeypatch, case, analyze):
    query, warm, cache, want = _RETRIEVES[case]
    embedded, served = _both_modes(monkeypatch, query, warm, cache, analyze)
    for facts in (embedded, served):
        assert {key: facts[key] for key in want} == want
        # every path is timed and attributed -- a cache hit included
        assert facts["duration_ms"] > 0.0
        assert CPU in facts["waits"]
    for key in ("fingerprint", "outcome", "rows", "cache", "plans"):
        assert embedded[key] == served[key], key


@pytest.mark.parametrize("cache", [False, True], ids=["cache off", "cache on"])
@pytest.mark.parametrize("case", sorted(_WRITES))
def test_write_is_planned_and_recorded_once_in_both_modes(
        monkeypatch, case, cache):
    query, want = _WRITES[case]
    embedded, served = _both_modes(monkeypatch, query, (), cache, False)
    for facts in (embedded, served):
        assert {key: facts[key] for key in want} == want
        assert facts["cache"] == ""
        assert (facts["wal_bytes"] > 0) == (facts["outcome"] == "ok")
    for key in ("fingerprint", "outcome", "rows", "plans", "wal_bytes"):
        assert embedded[key] == served[key], key
