"""Time layers of the pipeline in one or more source trees.

    python3 bench/layers.py [--layers csv,regression] [--reps R] [--sizes N,N,...]
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

Prints, or writes to FILE, one JSON object: {"layer": "csv io, regression",
"unit": "s", "statistic": ..., "cells": {cell: {LABEL: seconds}},
"peak_mib": {cell: {LABEL: MiB}}, "env": {...}}.
"""

from __future__ import annotations

import argparse
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

_LAYERS = {"csv": "csv io", "regression": "regression"}


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
        print(json.dumps(cells))
        return 0
    timings: dict[str, dict[str, list[float]]] = {}
    peaks: dict[str, dict[str, float]] = {}
    env = dict(os.environ, PYTHONPATH="", OPENBLAS_NUM_THREADS="1")
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
