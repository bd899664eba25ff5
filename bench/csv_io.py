"""Time the trajectory CSV writer and reader of one or more source trees.

    python3 bench/csv_io.py [--reps R] [--sizes N,N,...] [--out FILE] LABEL=SRC_DIR ...

Each LABEL=SRC_DIR names a checkout's src/ directory; it is timed in a fresh
interpreter that imports hybridsis from there.  Every cell is the median of
R calls on a seeded trajectory of n samples with h = 0.01, to or from a file
in a temporary directory, followed by one more call under tracemalloc for
its heap peak.  Shares are drawn uniformly from [0, 1), without ("bare") and
with ("count") a population of 1,000,003.

  write,n=N,CASE  write_trajectory_csv, for CASE bare and count, and for two
                  slow paths: an all-zero path ("count,zeros") and the shares
                  times 1e-4, whose digits the writer leaves to "%.17g"
                  ("count,below_1e-4");
  read,n=N,CASE   read_trajectory_csv of the bare and count files.

Prints, or writes to FILE, one JSON object: {"layer": "csv io", "unit": "s",
"statistic": ..., "cells": {cell: {LABEL: seconds}}, "peak_mib": {cell:
{LABEL: MiB}}, "env": {...}}.
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


def _cases(sizes: list[int]):
    rng = np.random.default_rng(15)
    for n in sizes:
        shares = rng.random(n)
        yield f"n={n},bare", shares, None
        yield f"n={n},count", shares, 1_000_003
        yield f"n={n},count,zeros", np.zeros(n), 1_000_003
        yield f"n={n},count,below_1e-4", shares * 1e-4, 1_000_003


def _measure(call, reps: int) -> tuple[float, float]:
    """(median seconds of reps calls, heap peak in MiB of one more call)."""
    seconds = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak / 2**20


def _time_here(sizes: list[int], reps: int) -> dict:
    from hybridsis import Trajectory, read_trajectory_csv, write_trajectory_csv

    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, values, population in _cases(sizes):
            traj = Trajectory(values=values, step_size=0.01, population=population)
            path = Path(tmp) / f"{name}.csv"
            cells[f"write,{name}"] = _measure(lambda: write_trajectory_csv(traj, path), reps)
            if name.endswith(("bare", "count")):
                cells[f"read,{name}"] = _measure(lambda: read_trajectory_csv(path), reps)
            path.unlink()
    return cells


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--sizes", type=lambda s: [int(float(n)) for n in s.split(",")],
                   default=[10_000, 100_000, 1_000_000])
    p.add_argument("--out", type=Path)
    p.add_argument("--here", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.here:  # a child: import hybridsis from the one SRC_DIR given
        sys.path.insert(0, args.trees[0])
        print(json.dumps(_time_here(args.sizes, args.reps)))
        return 0
    cells: dict[str, dict[str, float]] = {}
    peaks: dict[str, dict[str, float]] = {}
    for tree in args.trees:
        label, _, src = tree.partition("=")
        argv = [sys.executable, __file__, "--here", "--reps", str(args.reps),
                "--sizes", ",".join(map(str, args.sizes)), str(Path(src).resolve())]
        env = dict(os.environ, PYTHONPATH="", OPENBLAS_NUM_THREADS="1")
        result = subprocess.run(argv, check=True, capture_output=True, text=True, env=env)
        for name, (seconds, peak) in json.loads(result.stdout).items():
            cells.setdefault(name, {})[label] = round(seconds, 5)
            peaks.setdefault(name, {})[label] = round(peak, 3)
    report = {
        "layer": "csv io",
        "unit": "s",
        "statistic": f"median of {args.reps}",
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
