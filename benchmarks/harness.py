"""Set-up, timed rounds, the tracemalloc pass and the result line of one benchmark run."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import OpFailed

# Set-up is repeated and its median reported, so that a slow first run of a
# step does not stand for the set-up cost.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_mb": "MB",
    "round_s": "s",
    "factorized_s": "s",
    "dense_s": "s",
}


class Tally:
    """Operations attempted, failed and wrong, with the first message of each kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported = set()

    def note(self, label, kind, message):
        if (label, kind) not in self._reported:
            self._reported.add((label, kind))
            print(f"# {label}: {kind}: {message}", file=sys.stderr)


def run_round(wl, state, tally, tracer=None, peaks=None):
    """Run one round; returns (kind, label, path, seconds, failed) per operation.

    With ``peaks`` given, tracemalloc is running and each operation's peak
    above the memory held before it is appended to ``peaks``.
    """
    times = []
    for op in wl.round_ops(state):
        if peaks is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        failed, problem = False, None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the program failed this operation
            failed, problem = True, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if peaks is not None:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        if not failed:
            if tracer is not None:
                tracer.enabled = False
            try:
                problem = op.check(result)
            except OpFailed as exc:
                failed, problem = True, str(exc)
            except Exception as exc:  # an output the check cannot even read is wrong
                problem = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.enabled = True
            if problem and not failed:
                tally.wrong += 1
                tally.note("wrong", op.kind, problem)
        if failed:
            tally.failed += 1
            tally.note("failed", op.kind, problem)
        tally.attempted += 1
        times.append((op.kind, op.label, op.path, seconds, failed))
    return times


def timed_rounds(wl, state, seconds, tally, tracer=None, ranges=None):
    """Whole rounds until the next one would end after ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer is not None else 0
        rounds.append(run_round(wl, state, tally, tracer))
        if ranges is not None:
            ranges.append((lo, len(tracer.spans)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def round_figures(rounds, per_call):
    """Medians over rounds of the end-to-end sums and of each operation kind."""
    rows = []
    for ops in rounds:
        row = defaultdict(float, round_s=0.0, factorized_s=0.0, dense_s=0.0)
        counts = defaultdict(int)
        for kind, label, path, seconds, failed in ops:
            row["round_s"] += seconds
            if path is not None and not failed:
                row[f"{path}_s"] += seconds
            for key in (kind, f"{kind}[{label}]" if label else None):
                if key:
                    row[key] += seconds
                    counts[key] += 1
        if per_call:
            for kind, n in counts.items():
                row[kind] /= n
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def set_up(wl, seed, work):
    """Inputs for the run, then one unchecked round of the same workload at toy size."""
    state = wl.setup(seed, work / "main")
    toy = type(wl)(smoke=True)
    toy_state = toy.setup(seed, work / "warm")
    for op in toy.round_ops(toy_state):
        try:
            op.run()
        except Exception:  # failures are counted in the measured rounds, not here
            pass
    return state


def machine_facts(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# nproc={len(os.sched_getaffinity(0))} blas_threads={threads} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')}")


def run(args, out_dir: Path, threads: str) -> int:
    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = set_up(wl, args.seed, work)
            setup_times.append(time.perf_counter() - start)
        wl.references(state)

        if args.trace:
            metrics, units = traced_run(wl, state, args, tally, out_dir)
        else:
            # The tracemalloc pass comes first and so also warms the allocator
            # and BLAS for the timed rounds.
            peaks = []
            tracemalloc.start()
            try:
                run_round(wl, state, tally, peaks=peaks)
            finally:
                tracemalloc.stop()
            rounds = timed_rounds(wl, state, args.seconds, tally)
            figures = round_figures(rounds, wl.per_call)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "peak_mb": max(peaks) / tracing.MB,
                "round_s": figures["round_s"],
                "factorized_s": figures["factorized_s"],
                "dense_s": figures["dense_s"],
            }
            units = END_TO_END_UNITS
            for kind in sorted(k for k in figures if k not in metrics):
                print(f"{kind}={figures[kind]:.6g} s")
            print(f"rounds={len(rounds)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(machine_facts(threads))
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(wl, state, args, tally, out_dir):
    """A traced tracemalloc pass, then half the time untraced and half traced."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracemalloc.start()
        try:
            run_round(wl, state, tally, tracer)
        finally:
            tracemalloc.stop()
    finally:
        tracer.uninstall()
    peak_range = (0, len(tracer.spans))
    base = timed_rounds(wl, state, args.seconds / 2, tally)
    ranges = []
    tracer.install()
    try:
        traced = timed_rounds(wl, state, args.seconds / 2, tally, tracer, ranges)
    finally:
        tracer.uninstall()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"# spans={len(tracer.spans)} written to {path}")
    metrics = tracing.per_layer_metrics(
        tracer, ranges, peak_range,
        round_figures(base, wl.per_call)["round_s"],
        round_figures(traced, wl.per_call)["round_s"],
    )
    return metrics, tracing.PER_LAYER_UNITS
