"""Time layers of the pipeline in one or more source trees.

    python3 bench/layers.py [--layers csv,regression,json,simulate,align] [--reps R] [--sizes N,N,...]
                            [--shapes M:N,M:N,...] [--out FILE] LABEL=SRC_DIR ...

Each LABEL=SRC_DIR names a checkout's src/ directory, timed in a fresh
interpreter that imports hybridsis from there.  There are R rounds, each
starting one interpreter per tree, in alternating order, so that a slow
spell of a shared host falls on both sides; an interpreter times every cell
once and then makes one more call under tracemalloc for its heap peak.
Every cell is the median of its R timings.

csv (for each n in --sizes): calls on a seeded trajectory of n samples with
h = 0.01, to or from a file in a temporary directory.  Shares are drawn
uniformly from [0, 1), without ("bare") and with ("count") a population of
1,000,003.

  write,n=N,CASE  write_trajectory_csv, for CASE bare and count, and for two
                  slow paths: an all-zero path ("count,zeros") and the shares
                  times 1e-4, whose digits the writer leaves to "%.17g"
                  ("count,below_1e-4");
  read,n=N,CASE   read_trajectory_csv of the bare and count files.

regression (for each M:N in --shapes, M releases evenly spaced over N rows,
h = 1, shares drawn uniformly from [0.05, 0.95]):

  regression,m=M,n=N  build_regression, check_identifiability and estimate
                      on a fresh system, as the study, fit and estimate run
                      them.  One timing is the mean over a batch of
                      max(1, 200000 // N) calls, so a 150-row call is timed
                      over about 1,300 of them.  The schedule is built once
                      per cell, as the study builds one per step size.

The default shapes are the gated ones: the study's 3 intervals at h = 1 and
h = 0.02 (150 and 7,500 rows), one catalog fit (48 intervals, 1,461 rows)
and many_releases (301 intervals, 100,000 rows).

json: the CLI's JSON printer (cli._print_json, into a stdout that keeps
nothing) on the two largest dicts the gated workloads print, both built
from seeded noiseless data with the package's own calls:

  json,estimate,m=300  the estimate --truth output of many_releases (301
                       intervals, 100,000 rows, h = 0.01), mean of 10 calls;
  json,fit,m=47        one catalog fit (48 intervals, 1,461 daily rows),
                       mean of 100 calls.

simulate (for each n in --sizes and m in 2, 50 and 300): the generators on n
samples with m releases evenly spaced, h = 0.01 and x0 = 0.05, each
interval's R0 drawn from [1.5, 3] and each release from [-0.1, 0.1], so
every share stays below 0.75:

  simulate,dt,m=M,n=N                 simulate_dt;
  simulate,ct,m=M,n=N                 simulate_ct;
  simulate,sde,m=M,n=N                simulate_sde, sigma = 0.01, one sub-step;
  simulate,observation_noise,m=M,n=N  add_observation_noise, sigma = 0.01, on
                                      the simulate_dt path;
  simulate,forecast,m=M,n=N           forecast over the n samples.

One timing is the mean over a batch of max(1, 1000000 // N) calls, after
one warm-up call.

align (for each n in --sizes and m in 2, 50 and 300): ingest.align on a
seeded daily series of n days from 2000-01-01, counts drawn uniformly from
[0, 1,000,003], with m release dates evenly spaced inside it and population
1,000,003, as fit runs it without a window:

  align,m=M,n=N          plain;
  align,smooth7,m=M,n=N  with the 7-day moving average.

align builds the dataset's UpdateSchedule and Trajectory, so its cells hold
their argument checks too.  Batches and warm-up as for simulate.

Prints, or writes to FILE, one JSON object: {"layer": "csv io, regression, json output, simulate, align",
"unit": "s", "statistic": ..., "cells": {cell: {LABEL: seconds}},
"peak_mib": {cell: {LABEL: MiB}}, "env": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

_LAYERS = {"csv": "csv io", "regression": "regression", "json": "json output",
           "simulate": "simulate", "align": "align"}
_RELEASES = (2, 50, 300)  # m, the releases of each simulate and align cell


def _csv_cases(sizes: list[int]):
    rng = np.random.default_rng(15)
    for n in sizes:
        shares = rng.random(n)
        yield f"n={n},bare", shares, None
        yield f"n={n},count", shares, 1_000_003
        yield f"n={n},count,zeros", np.zeros(n), 1_000_003
        yield f"n={n},count,below_1e-4", shares * 1e-4, 1_000_003


def _measure(call, batch: int = 1) -> tuple[float, float]:
    """(mean seconds per call over a batch of calls, heap peak in MiB of
    one more call)."""
    t0 = time.perf_counter()
    for _ in range(batch):
        call()
    seconds = (time.perf_counter() - t0) / batch
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak / 2**20


def _time_csv(sizes: list[int]) -> dict:
    from hybridsis import Trajectory, read_trajectory_csv, write_trajectory_csv

    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, values, population in _csv_cases(sizes):
            traj = Trajectory(values=values, step_size=0.01, population=population)
            path = Path(tmp) / f"{name}.csv"
            cells[f"write,{name}"] = _measure(lambda: write_trajectory_csv(traj, path))
            if name.endswith(("bare", "count")):
                cells[f"read,{name}"] = _measure(lambda: read_trajectory_csv(path))
            path.unlink()
    return cells


def _time_regression(shapes: list[tuple[int, int]]) -> dict:
    from hybridsis import (
        Trajectory,
        UpdateSchedule,
        build_regression,
        check_identifiability,
        estimate,
    )

    rng = np.random.default_rng(17)
    cells = {}
    for m, n in shapes:
        steps = tuple(n * (j + 1) // (m + 1) for j in range(m))
        sched = UpdateSchedule(update_steps=steps, final_step=n, step_size=1.0)
        traj = Trajectory(values=rng.uniform(0.05, 0.95, n + 1), step_size=1.0)

        def call():
            system = build_regression(traj, sched)
            check_identifiability(system)
            estimate(system)

        cells[f"regression,m={m},n={n}"] = _measure(call, max(1, 200_000 // n))
    return cells


class _Discard:
    """A stdout that keeps nothing, so a JSON timing holds no copy of the text."""

    def write(self, text: str) -> int:
        return len(text)


def _spec(rng, m: int, n: int, h: float):
    """m releases evenly spaced over n steps: R0 in [1.5, 3] and releases
    within 10%, so every share from 0.05 stays below 0.75."""
    from hybridsis import HybridModelSpec, IntervalParams, UpdateSchedule

    steps = tuple(n * (j + 1) // (m + 1) for j in range(m))
    intervals = []
    for i in range(m + 1):
        beta = rng.uniform(0.3, 1.0)
        alpha = None if i == 0 else rng.uniform(-0.1, 0.1)
        intervals.append(IntervalParams(beta, beta / rng.uniform(1.5, 3.0), alpha))
    return HybridModelSpec(UpdateSchedule(steps, n, h), tuple(intervals))


def _time_json() -> dict:
    from hybridsis import (
        AlignedDataset,
        build_regression,
        check_identifiability,
        error_metrics,
        estimate,
        run_realdata_study,
        simulate_dt,
    )
    from hybridsis.cli import _print_json

    rng = np.random.default_rng(22)
    truth = _spec(rng, 300, 100_000, 0.01)
    system = build_regression(simulate_dt(truth, 0.05), truth.schedule)
    report = check_identifiability(system)
    result = estimate(system)
    fitted = result.to_dict()
    fitted["identifiability"] = report.to_dict()
    fitted["errors"] = error_metrics(result, truth)

    catalog = _spec(rng, 47, 1_460, 1.0)
    dataset = AlignedDataset(
        simulate_dt(catalog, 0.05), catalog.schedule, 1_000_003, datetime.date(2020, 1, 1)
    )
    fit = run_realdata_study(dataset).to_dict()

    cells = {}
    with contextlib.redirect_stdout(_Discard()):
        for name, d, batch in (("estimate,m=300", fitted, 10), ("fit,m=47", fit, 100)):
            cells[f"json,{name}"] = _measure(lambda: _print_json(d), batch)
    return cells


def _time_simulate(sizes: list[int]) -> dict:
    from hybridsis import (
        add_observation_noise,
        forecast,
        simulate_ct,
        simulate_dt,
        simulate_sde,
    )

    rng = np.random.default_rng(23)
    cells = {}
    for n in sizes:
        for m in _RELEASES:
            spec = _spec(rng, m, n - 1, 0.01)
            path = simulate_dt(spec, 0.05)
            calls = {
                "dt": lambda: simulate_dt(spec, 0.05),
                "ct": lambda: simulate_ct(spec, 0.05),
                "sde": lambda: simulate_sde(spec, 0.05, seed=23, sigma=0.01),
                "observation_noise": lambda: add_observation_noise(path, 0.01, seed=23),
                "forecast": lambda: forecast(spec, 0.05, n - 1),
            }
            for name, call in calls.items():
                call()  # a warm-up: no timing holds a first call's one-off costs
                cells[f"simulate,{name},m={m},n={n}"] = _measure(call, max(1, 1_000_000 // n))
    return cells


def _time_align(sizes: list[int]) -> dict:
    from hybridsis import RawSeries, align

    rng = np.random.default_rng(24)
    start = datetime.date(2000, 1, 1)
    cells = {}
    for n in sizes:
        series = RawSeries(start, rng.integers(0, 1_000_004, n))
        for m in _RELEASES:
            dates = [start + datetime.timedelta(days=n * (j + 1) // (m + 1)) for j in range(m)]
            for name, smooth7 in (("", False), ("smooth7,", True)):
                def call():
                    align(series, dates, 1_000_003, smooth7=smooth7)

                call()  # a warm-up, as for simulate
                cells[f"align,{name}m={m},n={n}"] = _measure(call, max(1, 1_000_000 // n))
    return cells


def _shape(text: str) -> tuple[int, int]:
    m, _, n = text.partition(":")
    return int(m), int(float(n))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    p.add_argument("--layers", type=lambda s: s.split(","), default=list(_LAYERS))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--sizes", type=lambda s: [int(float(n)) for n in s.split(",")],
                   default=[10_000, 100_000, 1_000_000])
    p.add_argument("--shapes", type=lambda s: [_shape(t) for t in s.split(",")],
                   default=[(2, 150), (2, 7_500), (47, 1_461), (300, 100_000)])
    p.add_argument("--out", type=Path)
    p.add_argument("--here", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    unknown = set(args.layers) - set(_LAYERS)
    if unknown:
        p.error(f"unknown layers {sorted(unknown)}; choose from {sorted(_LAYERS)}")
    if args.here:  # a child: import hybridsis from the one SRC_DIR given
        sys.path.insert(0, args.trees[0])
        cells = {}
        if "csv" in args.layers:
            cells.update(_time_csv(args.sizes))
        if "regression" in args.layers:
            cells.update(_time_regression(args.shapes))
        if "json" in args.layers:
            cells.update(_time_json())
        if "simulate" in args.layers:
            cells.update(_time_simulate(args.sizes))
        if "align" in args.layers:
            cells.update(_time_align(args.sizes))
        print(json.dumps(cells))
        return 0
    timings: dict[str, dict[str, list[float]]] = {}
    peaks: dict[str, dict[str, float]] = {}
    # no bytecode cache is left in a timed tree: one there moves perfbench's numbers
    env = dict(os.environ, PYTHONPATH="", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    for rep in range(args.reps):
        for tree in args.trees if rep % 2 == 0 else args.trees[::-1]:
            label, _, src = tree.partition("=")
            argv = [sys.executable, __file__, "--here", "--layers", ",".join(args.layers),
                    "--sizes", ",".join(map(str, args.sizes)),
                    "--shapes", ",".join(f"{m}:{n}" for m, n in args.shapes),
                    str(Path(src).resolve())]
            result = subprocess.run(argv, check=True, capture_output=True, text=True, env=env)
            for name, (seconds, peak) in json.loads(result.stdout).items():
                timings.setdefault(name, {}).setdefault(label, []).append(seconds)
                peaks.setdefault(name, {})[label] = round(peak, 3)
    cells = {
        name: {label: round(statistics.median(runs), 7) for label, runs in by_label.items()}
        for name, by_label in timings.items()
    }
    report = {
        "layer": ", ".join(_LAYERS[layer] for layer in args.layers),
        "unit": "s",
        "statistic": f"median of {args.reps} rounds",
        "cells": cells,
        "peak_mib": peaks,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "machine": platform.machine()},
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
