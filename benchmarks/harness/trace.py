"""Per-layer spans, recorded from outside the program.

The harness wraps each layer's public entry points for the duration of
an in-process replay of the served statement lifecycle and records one
span per call: name, start, end, the span that caused it, and the
statement it belongs to.  Spans stay in memory and are written to
``trace.jsonl`` when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import inspect
import json
import socket
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from benchmarks.harness import metrics as m
from benchmarks.harness.server import delta, parse_prometheus
from benchmarks.harness.workloads import Scale, Shadow, Stream, Workload

# span fields, by index
NAME, START, END, PARENT, STMT, UNITS = range(6)
ROOT = "client.request"


class SpanRecorder:
    """Spans of one thread, cheapest possible: a list per span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: the statement the spans being recorded belong to
        self.stmt = -1
        self._undo: list[tuple] = []

    def open(self, name: str, units: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.stmt, units])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, units=None):
        """``fn`` recorded as a span called ``name``.  ``units(args)``
        optionally counts the work one call carries.  A generator
        function gets one span per resumption, so the consumer's time
        between items is not charged to it."""
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = open_(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(index)
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            index = open_(name, units(args) if units else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)
        return wrapper

    # -- installing the wrappers -------------------------------------------

    def instrument(self) -> None:
        """Wrap every target; :meth:`restore` undoes it."""
        for name, owner, attr, units in _targets():
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, units)
            holders = [owner]
            if inspect.ismodule(owner):
                # ``from module import fn`` copies the reference: replace
                # it in every module of the program that holds one
                holders += [mod for key, mod in list(sys.modules.items())
                            if key.startswith("repro.") and mod is not owner
                            and mod.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._undo.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "parent": span[PARENT], "stmt": span[STMT],
                    "name": span[NAME],
                    "start_us": round((span[START] - origin) * 1e6, 1),
                    "end_us": round((span[END] - origin) * 1e6, 1),
                    "units": span[UNITS]}) + "\n")


def _targets() -> list[tuple]:
    """(span name, owner, attribute, units) for every wrapped entry point.
    The span name's prefix is the layer."""
    from repro.cache.resultcache import ResultCache
    from repro.index.btree import BPlusTree
    from repro.objects import encoding
    from repro.objects.store import ObjectStore
    from repro.query import batchjoin, executor, language, planner
    from repro.recovery.wal import WriteAheadLog
    from repro.replication.manager import ReplicationManager
    from repro.server import locks, protocol, session
    from repro.server.admission import EngineGate
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.storage.heapfile import HeapFile
    from repro.telemetry.slowlog import SlowQueryLog
    from repro.telemetry.statstats import StatementStats
    from repro.telemetry.waitevents import WaitEventCollector

    def second_len(args):
        return len(args[1]) if hasattr(args[1], "__len__") else 0

    table = {
        "protocol": [(protocol, "encode_frame"), (protocol, "read_frame")],
        "session": [(session.Session, "run_statement"),
                    (session, "serialize_result")],
        "telemetry": [(StatementStats, "observe"), (SlowQueryLog, "observe"),
                      (WaitEventCollector, "begin_statement"),
                      (WaitEventCollector, "finish_statement")],
        "cache": [(ResultCache, "get"), (ResultCache, "hit"),
                  (ResultCache, "miss"), (ResultCache, "fill"),
                  (ResultCache, "invalidate")],
        "parser": [(language, "parse_statement")],
        "planner": [(planner, "plan_retrieve"), (planner, "plan_replace")],
        "locks": [(locks, "footprint_for_statement"),
                  (locks.LockManager, "acquire"),
                  (locks.LockManager, "release_all")],
        "admission": [(EngineGate, "enter_shared"),
                      (EngineGate, "exit_shared")],
        "executor": [(executor, "execute_retrieve"),
                     (executor, "execute_update")],
        "batchjoin": [(batchjoin, "resolve_step_batch"),
                      (batchjoin, "resolve_chain_values", second_len)],
        "objects": [(ObjectStore, "read"), (ObjectStore, "read_many", second_len),
                    (ObjectStore, "update"), (ObjectStore, "insert"),
                    (ObjectStore, "scan"), (encoding, "decode_object"),
                    (encoding, "encode_object")],
        "index": [(BPlusTree, "range_scan"), (BPlusTree, "search"),
                  (BPlusTree, "insert"), (BPlusTree, "delete")],
        "buffer": [(BufferPool, "fetch"), (BufferPool, "unpin"),
                   (BufferPool, "fetch_many"), (BufferPool, "unpin_many"),
                   (BufferPool, "mark_dirty"), (BufferPool, "new_page"),
                   (BufferPool, "flush_all")],
        "heapfile": [(HeapFile, "read"), (HeapFile, "insert"),
                     (HeapFile, "update"), (HeapFile, "delete"),
                     (HeapFile, "scan")],
        "disk": [(SimulatedDisk, "read_page"), (SimulatedDisk, "write_page")],
        "wal": [(WriteAheadLog, "begin"), (WriteAheadLog, "commit"),
                (WriteAheadLog, "flush")],
        "replication": [(ReplicationManager, "propagate_update"),
                        (ReplicationManager, "apply_hidden_changes")],
    }
    return [(f"{layer}.{entry[1]}", entry[0], entry[1],
             entry[2] if len(entry) > 2 else None)
            for layer, entries in table.items() for entry in entries]


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


@dataclass
class SpanTotals:
    """Sums over a span list, by span name."""

    inclusive_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    units: dict = field(default_factory=lambda: defaultdict(int))

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(seconds for name, seconds in self.self_s.items()
                   if name.startswith(prefix))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def totals(spans: list[list]) -> SpanTotals:
    out = SpanTotals()
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        out.inclusive_s[name] += span[END] - span[START]
        out.self_s[name] += own
        out.calls[name] += 1
        out.units[name] += span[UNITS]
    return out


# ---------------------------------------------------------------------------
# the in-process replay
# ---------------------------------------------------------------------------


@dataclass
class Replay:
    recorder: SpanRecorder
    statements: int = 0
    reads: int = 0
    updates: int = 0
    failed: int = 0
    response_bytes: int = 0
    #: engine counter differences over the replay, keyed as the server's
    counters: dict = field(default_factory=dict)
    #: the read statements replayed, for the materialize comparison
    read_texts: list = field(default_factory=list)
    db: object = None


def engine_counters(db) -> dict[str, float]:
    return parse_prometheus(db.telemetry.metrics.render_prometheus())


def replay(snapshot_path: str, workload: Workload, scale: Scale, seed: int,
           per_connection: int) -> Replay:
    """Replay each connection's first ``per_connection`` statements,
    round-robin, through the served lifecycle in this process: frame ->
    ``Session.run_statement`` -> frame, with every layer wrapped."""
    from repro.server import protocol
    from repro.server.client import ClientResult
    from repro.server.session import SessionManager
    from repro.snapshot import load_database

    db = load_database(snapshot_path)
    # Server.start() runs the doctor, which reads every page through the
    # pool; do the same so the replay starts from the served pool state
    db.doctor()
    db.resultcache.enabled = "--cache" in workload.server_flags
    manager = SessionManager(db)
    sessions = [manager.open_session() for __ in range(workload.connections)]
    streams = [Stream(workload, scale, seed, conn)
               for conn in range(workload.connections)]
    shadow = Shadow(scale, seed, workload.connections)
    recorder = SpanRecorder()
    out = Replay(recorder, db=db)
    client_end, server_end = socket.socketpair()
    before = engine_counters(db)
    recorder.instrument()
    try:
        for index in range(per_connection * workload.connections):
            conn = index % workload.connections
            stmt = streams[conn].next()
            recorder.stmt = index
            root = recorder.open(ROOT)
            client_end.sendall(protocol.encode_frame(
                {"id": index, "kind": "statement", "statement": stmt.text}))
            request = protocol.read_frame(server_end)
            result = sessions[conn].run_statement(request["statement"])
            frame = protocol.encode_frame(protocol.ok_response(index, result))
            server_end.sendall(frame)
            response = protocol.read_frame(client_end)
            rows = ClientResult.from_wire(response["result"]).rows
            recorder.close(root)
            out.statements += 1
            out.response_bytes += len(frame)
            if stmt.kind == "update":
                out.updates += 1
                shadow.sending(stmt)
            else:
                out.reads += 1
                out.read_texts.append(stmt.text)
            if shadow.check(stmt, rows, conn):
                if stmt.kind == "update":
                    shadow.apply(stmt)
            else:
                out.failed += 1
    finally:
        recorder.restore()
        manager.shutdown()
        client_end.close()
        server_end.close()
    out.counters = delta(engine_counters(db), before)
    return out


def materialize_ms_per_read(db, texts: list[str]) -> float:
    """What writing the result file costs one read: the same statements
    through the public ``db.execute`` with and without it, order
    alternating, as a difference of medians."""
    db.resultcache.enabled = False
    with_file, without = [], []
    for index, text in enumerate(texts):
        order = (True, False) if index % 2 else (False, True)
        for materialize in order:
            begun = time.perf_counter()
            db.execute(text, materialize=materialize)
            elapsed = (time.perf_counter() - begun) * 1000.0
            (with_file if materialize else without).append(elapsed)
    return m.median(with_file) - m.median(without)
