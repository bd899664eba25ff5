"""Spans and counters around the public hybridsis functions.

The wrappers are installed from the benchmark, without editing the package:
every module attribute of hybridsis that is one of the functions in LAYERS is
swapped for a wrapper while a traced pass runs, so calls made through
hybridsis.cli and hybridsis.experiments are recorded, nested calls included.
Spans stay in memory; run.py writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

# layer (package module) -> wrapped public functions
LAYERS = {
    "simulate": (
        "simulate_dt",
        "simulate_ct",
        "simulate_sde",
        "add_observation_noise",
        "write_trajectory_csv",
        "read_trajectory_csv",
    ),
    "estimate": ("build_regression", "check_identifiability", "estimate", "forecast"),
    "ingest": ("load_series", "load_update_dates", "align"),
    "experiments": ("run_noise_study", "run_realdata_study"),
    "model": ("load_scenario", "load_schedule"),
    "cli": ("main",),
}

# counters read off arguments and results; each repeats exactly for equal
# inputs.  psi_mb is computed from array sizes, not measured.
COUNTERS = {
    "simulate.steps": "count",
    "simulate.clamps": "count",
    "estimate.psi_mb": "computed_MiB",
    "estimate.blocks": "count",
    "estimate.rank_deficient_blocks": "count",
    "estimate.identifiable_ratio": "ratio",
    "ingest.rows": "count",
    "experiments.failed_cells": "count",
}

_SIMULATORS = ("simulate.simulate_dt", "simulate.simulate_ct", "simulate.simulate_sde")


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None at a CLI call
    trace: int  # index of the root span: one identifier per CLI call
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, index if parent is None else self.spans[parent].trace,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name in _SIMULATORS:
            config = kwargs.get("config", args[2] if len(args) > 2 else None)
            substeps = 1 if name == "simulate.simulate_dt" or config is None else config.fine_substeps
            c["simulate.steps"] += (len(result) - 1) * substeps
        if name.startswith("simulate.") and hasattr(result, "clamp_count"):
            c["simulate.clamps"] += result.clamp_count
        elif name == "estimate.build_regression":
            c["psi_bytes"] += result.psi.nbytes
        elif name == "estimate.check_identifiability":
            c["reports"] += 1
            c["identifiable_reports"] += bool(result.overall)
            c["estimate.blocks"] += len(result.intervals)
            c["estimate.rank_deficient_blocks"] += sum(
                iv.rank < iv.required_rank for iv in result.intervals
            )
        elif name == "ingest.load_series":
            c["ingest.rows"] += len(result)
        elif name == "experiments.run_noise_study":
            c["experiments.failed_cells"] += sum(cell.failed for cell in result.cells)

    def self_times(self) -> Counter:
        """Seconds per function: each span's duration minus its children's."""
        inner = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                inner[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, covered in zip(self.spans, inner):
            out[s.name] += (s.end - s.start) - covered
        return out

    def counters(self) -> dict[str, float]:
        c = self.counts
        out = {name: c[name] for name in COUNTERS}
        out["estimate.psi_mb"] = c["psi_bytes"] / 2**20
        out["estimate.identifiable_ratio"] = (
            c["identifiable_reports"] / c["reports"] if c["reports"] else 0.0
        )
        return out

    def span_records(self, origin: float) -> list[dict]:
        records = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= origin
            d["end"] -= origin
            records.append(d)
        return records


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every hybridsis reference to a LAYERS function through tracer
    for the duration of the block."""
    wrapped = {}
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"hybridsis.{layer}")
        for fn_name in names:
            fn = getattr(home, fn_name)
            wrapped[id(fn)] = (fn, _wrapper(tracer, f"{layer}.{fn_name}", fn))
    modules = [m for key, m in list(sys.modules.items())
               if key == "hybridsis" or key.startswith("hybridsis.")]
    swapped = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                swapped.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in swapped:
            setattr(module, attr, value)

