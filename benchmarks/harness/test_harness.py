"""Self-tests of the harness (not part of tier 1)::

    PYTHONPATH=src python -m pytest benchmarks/harness -q -o testpaths=
"""

import json
import os
import pathlib
import time
from collections import Counter

import pytest

from benchmarks.harness import calibrate, cli, trace
from benchmarks.harness import metrics as m
from benchmarks.harness.compare import compare, verdict
from benchmarks.harness.server import parse_prometheus
from benchmarks.harness.workloads import (
    SMOKE_SCALE,
    WORKLOADS,
    Scale,
    Shadow,
    Stream,
    owned_keys,
    reference_targets,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- percentiles ------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (5, 0.5), (20, 0.5), (99, 0.5), (100, 0.9), (199, 0.9), (200, 0.95),
    (999, 0.95), (1000, 0.99), (10_000, 0.999)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert m.highest_percentile(n) == expected


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert m.percentile(samples, 0.5) == 50.0
    assert m.percentile(samples, 0.95) == 95.0
    assert m.percentile(samples, 0.99) == 99.0
    assert m.percentile([3.0], 0.99) == 3.0
    assert m.percentile([], 0.5) == 0.0


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    first, third = m.quartiles(values)
    assert m.spread(values) == (third - first) / 12.0
    assert m.spread([7.0]) == 0.0


# -- the reference kernel ------------------------------------------------------


def test_kernel_is_fixed_work_and_pinning_picks_an_allowed_core():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.kernel_ms() > 0.0
    allowed = os.sched_getaffinity(0)
    try:
        core = calibrate.pin_to_fastest_core()
        assert core in calibrate.CORES
        assert os.sched_getaffinity(0) == {core}
    finally:
        os.sched_setaffinity(0, allowed)


def test_sampler_times_kernels_while_the_block_runs():
    with calibrate.KernelSampler() as sampler:
        time.sleep(0.1)
    assert 3 <= len(sampler.samples_ms) <= 11
    assert min(sampler.samples_ms) <= sampler.median_ms() <= max(sampler.samples_ms)
    assert calibrate.KernelSampler().median_ms() > 0.0   # never started


# -- spans ------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    # root 0..10; a 1..4 with child b 2..3; c 5..9
    spans = [["root", 0.0, 10.0, -1, 0, 0], ["l.a", 1.0, 4.0, 0, 0, 0],
             ["l.b", 2.0, 3.0, 1, 0, 0], ["k.c", 5.0, 9.0, 0, 0, 2]]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = trace.totals(spans)
    assert totals.inclusive_s["l.a"] == 3.0
    assert totals.layer_self_s("l") == 3.0
    assert totals.layer_self_s("k") == 4.0
    assert totals.units["k.c"] == 2
    assert sum(totals.self_s.values()) == 10.0


def test_recorder_nests_calls_and_generator_resumptions():
    recorder = trace.SpanRecorder()

    def leaf():
        return 1

    def items():
        yield leaf()
        yield leaf()

    leaf = recorder.wrap(leaf, "x.leaf")
    outer = recorder.wrap(lambda: list(recorder.wrap(items, "x.items")()),
                          "y.outer")
    assert outer() == [1, 1]
    names = [span[trace.NAME] for span in recorder.spans]
    # three resumptions of the generator (two items and the end), the
    # leaves inside the first two
    assert names == ["y.outer", "x.items", "x.leaf", "x.items", "x.leaf",
                     "x.items"]
    parents = [span[trace.PARENT] for span in recorder.spans]
    assert parents == [-1, 0, 1, 0, 3, 0]
    assert all(span[trace.END] >= span[trace.START] for span in recorder.spans)


def test_instrument_restores_every_patched_name():
    from repro.query import language, runner
    from repro.storage.buffer import BufferPool

    before = (language.parse_statement, runner.parse_statement,
              BufferPool.__dict__["fetch"])
    recorder = trace.SpanRecorder()
    recorder.instrument()
    try:
        assert runner.parse_statement is language.parse_statement
        assert language.parse_statement is not before[0]
    finally:
        recorder.restore()
    assert (language.parse_statement, runner.parse_statement,
            BufferPool.__dict__["fetch"]) == before


# -- streams and the oracle ------------------------------------------------


def _texts(workload, seed, conn=0, n=200):
    stream = Stream(workload, Scale(), seed, conn)
    return [stream.next().text for __ in range(n)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stream_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    assert _texts(workload, 11) == _texts(workload, 11)
    assert _texts(workload, 11) != _texts(workload, 12)


def test_zipf_reads_fall_on_64_ranges_most_on_the_first():
    counts = Counter(_texts(WORKLOADS["cached_zipf"], 5, n=5000))
    reads = {text: n for text, n in counts.items() if text.startswith("retrieve")}
    assert len(reads) <= 64
    ranked = sorted(reads.values(), reverse=True)
    # Zipf(1) over 64 ranks: the first holds 1/H(64) = 21 % of the draws
    assert 0.17 < ranked[0] / sum(ranked) < 0.25
    assert ranked[0] > 1.5 * ranked[1] > ranked[9]


def test_writers_own_disjoint_halves():
    workload, scale = WORKLOADS["mixed_prop"], Scale()
    for conn in range(workload.connections):
        stream = Stream(workload, scale, 3, conn)
        owned = owned_keys(scale, workload.connections, conn)
        updates = [s for s in (stream.next() for __ in range(500))
                   if s.kind == "update"]
        assert len(updates) == 100          # P_update = 0.2, exactly
        assert all(s.lo in owned and s.lo + scale.update_rows - 1 in owned
                   for s in updates)
        assert len({s.value for s in updates}) == len(updates)


def test_reference_targets_match_the_generator():
    from repro.workloads.generator import WorkloadConfig, build_model_database

    scale = Scale(n_s=60, f=3)
    db = build_model_database(WorkloadConfig(n_s=60, f=3, seed=7)).db
    rows = db.execute("retrieve (R.field_r, R.sref.field_s)",
                      materialize=False).rows
    assert sorted(rows) == list(enumerate(reference_targets(scale, 7)))


def test_shadow_checks_rows():
    scale = Scale()
    shadow = Shadow(scale, 9, connections=2)
    stream = Stream(WORKLOADS["mixed_prop"], scale, 9, 0)
    read = next(s for s in iter(stream.next, None) if s.kind == "read")
    good = [(read.lo + i, shadow.base[shadow.s_of_r[read.lo + i]])
            for i in range(scale.read_rows)]
    assert shadow.check(read, good, conn=0)
    assert not shadow.check(read, good[:-1], conn=0)
    assert not shadow.check(read, [(k, "nonsense") for k, __ in good], conn=0)
    # a value connection 1 is writing is plausible to connection 0 at once
    other = Stream(WORKLOADS["mixed_prop"], scale, 9, 1)
    update = next(s for s in iter(other.next, None) if s.kind == "update")
    shadow.sending(update)
    touched = [(k, update.value if update.lo <= shadow.s_of_r[k]
                < update.lo + scale.update_rows else v) for k, v in good]
    assert shadow.check(read, touched, conn=0)
    # ... but not on a key that update never covered
    outside = next(k for k, __ in good if not update.lo <= shadow.s_of_r[k]
                   < update.lo + scale.update_rows
                   and shadow.s_of_r[k] not in owned_keys(scale, 2, 0))
    wrong = [(k, update.value if k == outside else v) for k, v in good]
    assert not shadow.check(read, wrong, conn=0)


# -- counters and compare -----------------------------------------------------


def test_parse_prometheus_sums_families():
    parsed = parse_prometheus(
        '# HELP x y\nwal_records_total{kind="begin"} 2\n'
        'wal_records_total{kind="page"} 5\ndisk_reads_total 7\n')
    assert parsed["wal_records_total"] == 7
    assert parsed['wal_records_total{kind="page"}'] == 5
    assert parsed["disk_reads_total"] == 7


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [10.3, 10.4, 10.2, 10.3, 10.35], "lower", 0.10) == "ok"
    assert verdict(steady, [11.5, 11.6, 11.4, 11.5, 11.5], "lower", 0.10) == "worse"
    assert verdict(steady, [8.5, 8.6, 8.4, 8.5, 8.5], "higher", 0.10) == "worse"
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0]
    assert verdict(noisy, steady, "lower", 0.10) == "unresolved"
    # every run of B beats every run of A: resolved despite A's spread
    assert verdict(noisy, [7.0, 7.1, 7.2, 7.0, 7.1], "lower", 0.10) == "ok"


def _record(read_p50, failed=0):
    end_to_end = {name: {"unit": unit, "values": [1.0, 1.0, 1.0]}
                  for name, (unit, __, __) in m.END_TO_END.items()}
    end_to_end["read_p50_rel"]["values"] = read_p50
    return {"commit": "c", "seed": 1, "workloads": {
        "inplace_hot": {"attempted": 100, "failed": failed,
                        "end_to_end": end_to_end}}}


def test_compare_rejects_worse_and_more_failures():
    base = _record([4.0, 4.1, 4.0])
    assert compare(base, _record([4.1, 4.0, 4.1]))[1]
    lines, accepted = compare(base, _record([6.0, 6.1, 6.0]))
    assert not accepted
    assert any("read_p50_rel" in line and line.endswith("worse") for line in lines)
    assert not compare(base, _record([4.0, 4.1, 4.0], failed=1))[1]


# -- the contract and the whole thing ----------------------------------------


def test_benchmark_json_matches_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {e["name"]: (e["unit"], e["better"], e["bound"])
            for e in contract["end_to_end"]} == m.END_TO_END
    assert {e["name"]: (e["unit"], e["better"])
            for e in contract["per_layer"]} == m.PER_LAYER
    assert contract["paths"] == ["benchmarks/harness"]


def test_smoke_run_is_correct_and_quick(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    assert cli.main(["run", "--smoke", "--seed", "4", "--out", str(out)]) == 0
    assert time.perf_counter() - started < 30.0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["claim"] is None and record["correct"]
    assert record["smoke"] and record["nproc"] >= 1
    for name in WORKLOADS:
        side = record["workloads"][name]
        assert side["failed"] == 0
        assert set(side["end_to_end"]) == set(m.END_TO_END)
        assert all(v["values"][0] > 0 for v in side["end_to_end"].values())
    assert compare(record, record)[1]
    assert SMOKE_SCALE.n_r == 2000


def test_traced_run_emits_every_per_layer_metric():
    from benchmarks.harness import bench

    run = bench.trace_run(WORKLOADS["cached_zipf"], SMOKE_SCALE, 6, seconds=2.0)
    assert run.summary()["correct"], run.notes
    assert set(run.metrics) == set(m.PER_LAYER)
    value = {name: metric["value"] for name, metric in run.metrics.items()}
    assert value["trace.coverage"] >= 0.95
    assert value["cache.hit_ratio"] > 0.3 and value["buffer.misses_per_stmt"] == 0
    assert value["batchjoin.resolve_ms_per_read"] == 0
    assert value["wal.records_per_update"] > 0
    lines = (bench.OUT_DIR / "trace-cached_zipf.jsonl").read_text().splitlines()
    roots = [json.loads(line) for line in lines if '"client.request"' in line]
    assert len(roots) == WORKLOADS["cached_zipf"].warmup
    assert all(span["parent"] == -1 for span in roots)
