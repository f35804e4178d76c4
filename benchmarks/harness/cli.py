"""Command line.

``python3 benchmarks/harness --workload W --seed N --seconds S --trace T``
    one run of one workload, the form ``BENCHMARK.json`` drives; the last
    line of output is the JSON result.
``python3 benchmarks/harness run [--seed N] [--repeats R] [--out FILE]``
    every workload, untraced ``R`` times and traced once, recorded.
``python3 benchmarks/harness compare A.json B.json``
    is record B worse than record A?
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from benchmarks.harness import bench
from benchmarks.harness.compare import compare
from benchmarks.harness.workloads import (
    DEFAULT_SCALE,
    SMOKE_SCALE,
    WORKLOADS,
)


def _print_run(run: bench.Run) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    print(f"# {run.workload} seed={run.seed} trace={int(run.trace)}")
    for name, metric in run.metrics.items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    for note in run.notes:
        print(f"# {note}")
    print(json.dumps(run.summary()), flush=True)


def _one(args) -> int:
    workload = WORKLOADS[args.workload]
    runner = bench.trace_run if args.trace else bench.measure
    run = runner(workload, DEFAULT_SCALE, args.seed, args.seconds)
    _print_run(run)
    return 0 if run.summary()["correct"] else 1


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=os.path.dirname(__file__)).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run_all(args) -> int:
    """Every workload; ``--smoke`` is one short untraced window each on a
    fifth of the data, a shape check that ends in under 30 s."""
    scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    repeats = 1 if args.smoke else args.repeats
    seconds = 1.0 if args.smoke else args.seconds
    record = {"commit": _commit(), "seed": args.seed, "nproc": os.cpu_count(),
              "python": platform.python_version(), "seconds": seconds,
              "repeats": repeats, "smoke": args.smoke, "workloads": {}}
    correct = True
    for workload in WORKLOADS.values():
        runs = [bench.measure(workload, scale, args.seed + repeat, seconds,
                              setups=1, windows=1 if args.smoke else bench.WINDOWS)
                for repeat in range(repeats)]
        traced = None if args.smoke else bench.trace_run(
            workload, scale, args.seed, seconds)
        for run in runs + ([traced] if traced else []):
            _print_run(run)
            correct = correct and run.summary()["correct"]
        record["workloads"][workload.name] = {
            "why": workload.why,
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "end_to_end": {
                name: {"unit": runs[0].metrics[name]["unit"],
                       "values": [run.metrics[name]["value"] for run in runs],
                       "windows": [run.windows.get(name) for run in runs]}
                for name in runs[0].metrics},
            "per_layer": traced.metrics if traced else {},
        }
    record["correct"] = correct
    # this harness measures; a gain is claimed by a later change, against it
    record["claim"] = None
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as out:
            out.write(text + "\n")
    print(text)
    return 0 if correct else 1


def _compare(args) -> int:
    with open(args.a) as a, open(args.b) as b:
        lines, accepted = compare(json.load(a), json.load(b))
    print("\n".join(lines))
    return 0 if accepted else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="python3 benchmarks/harness run")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--repeats", type=int, default=3)
        parser.add_argument("--seconds", type=float, default=10.0)
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--out", metavar="FILE")
        return _run_all(parser.parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="python3 benchmarks/harness compare")
        parser.add_argument("a", metavar="A.json")
        parser.add_argument("b", metavar="B.json")
        return _compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="python3 benchmarks/harness",
                                     epilog="also: run, compare")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return _one(parser.parse_args(argv))
