"""Trajectory generators for the jump-augmented SIS demand model.

Every generator shares one convention for release steps: the output step
that lands on a release index T_i carries the jump and nothing else,

    x[T_i] = (1 + alpha_i) * x[T_i - 1],

so the sampled output of every generator obeys the same release rule as the
identification model.  The share is a fraction, so a release that maps it
outside [0, 1] leaves the model, and every generator raises ValueError on
one; only replays of raw estimates (forecast, the real-data refits) run the
rule unchecked, since the recursion is defined outside [0, 1] too.  Between
releases:

  simulate_dt   the sampled recursion x + h * (beta (1 - x) x - gamma x),
                one step per sample.
  simulate_ct   the continuous SIS flow.  With fixed rates it is logistic,
                so it evaluates the closed form at every sample.
  simulate_sde  the Euler recursion, fine_substeps steps of size
                h / fine_substeps per sample, plus multiplicative demand
                noise sigma * x * sqrt(dt) * z per sub-step, floored at zero.

The recursion is written once, in _recurse; simulate_dt, simulate_sde,
estimate.forecast and the real-data refits are all calls to it.
simulate_sde with sigma=0 is the noiseless Euler recursion at any sub-step
count bit for bit, and at one sub-step it reproduces simulate_dt sample for
sample.  All stochastic draws come from numpy's PCG64 generator seeded
explicitly; normals are drawn in one batch, consumed in simulation order, so
equal seeds give equal paths on any platform with the same numpy series.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import HybridModelSpec, IntervalParams, Trajectory, UpdateSchedule

__all__ = [
    "SimulationConfig",
    "StabilityWarning",
    "simulate_dt",
    "simulate_ct",
    "simulate_sde",
    "add_observation_noise",
    "write_trajectory_csv",
    "read_trajectory_csv",
]


class StabilityWarning(UserWarning):
    """Step size large enough that the sampled recursion can oscillate."""


@dataclass(frozen=True)
class SimulationConfig:
    """The seed, noise scale and sub-step count of simulate_sde."""

    seed: int = 0
    sigma: float = 0.0
    fine_substeps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "fine_substeps", int(self.fine_substeps))
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.fine_substeps < 1:
            raise ValueError(f"fine_substeps must be >= 1, got {self.fine_substeps}")


def _check_start(x0: float) -> float:
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    return x0


def _warn_stability(spec: HybridModelSpec) -> None:
    h = spec.schedule.step_size
    for i, p in enumerate(spec.intervals):
        if h * (p.beta + p.gamma) >= 2.0:
            warnings.warn(
                f"interval {i}: h * (beta + gamma) = {h * (p.beta + p.gamma):.3g} >= 2; "
                "the sampled recursion may oscillate or diverge at this step size",
                StabilityWarning,
                stacklevel=3,
            )


def _apply_jump(x_pre: float, alpha: float, interval: int, check: bool) -> float:
    """The release rule (1 + alpha) * x_pre.  With check, a result outside
    [0, 1] raises; raw estimates replay it unchecked."""
    x_new = (1.0 + alpha) * x_pre
    if check and not 0.0 <= x_new <= 1.0:
        raise ValueError(
            f"release opening interval {interval} maps share {x_pre:.6g} to "
            f"{x_new:.6g}, outside [0, 1]"
        )
    return x_new


def _recurse(
    schedule: UpdateSchedule,
    intervals: Sequence[IntervalParams],
    x0: float,
    *,
    substeps: int = 1,
    sigma: float = 0.0,
    noise: Sequence[float] | None = None,
    check: bool = True,
) -> tuple[np.ndarray, int]:
    """The sampled recursion over a schedule; returns (values, clamps).

    A release sample applies the jump rule alone, through _apply_jump with
    `check` (False for raw estimates).  Each interval's ordinary samples are
    one flat run of len(sis_index_range(i)) * substeps steps x <- x + dt *
    (beta (1 - x) x - gamma x), dt = h / substeps, at the interval's rates.
    With `noise`, the run consumes the interval's slice of draws in order:
    each step also adds sigma * x * sqrt(dt) * z (pre-step x, its draw z)
    and floors the result at zero, counting each floor in clamps.

    The run yields every state, and x0 and each release state are yielded
    `substeps` times, so every sample is `substeps` consecutive states; the
    islice keeps the last of each, and np.fromiter writes it straight into
    the output array.
    """
    clamps = 0

    def states():
        nonlocal clamps
        dt = schedule.step_size / substeps
        sqrt_dt = math.sqrt(dt)
        draws = None if noise is None else iter(noise)
        x = float(x0)
        yield from repeat(x, substeps)
        for i, p in enumerate(intervals):
            if i > 0:
                x = _apply_jump(x, p.alpha, i, check)
                yield from repeat(x, substeps)
            b, g = p.beta, p.gamma
            n = len(schedule.sis_index_range(i)) * substeps
            for z in repeat(None, n) if draws is None else islice(draws, n):
                x_flow = x + dt * (b * (1.0 - x) * x - g * x)
                if z is None:
                    x = x_flow
                else:
                    x = x_flow + sigma * x * sqrt_dt * z
                    if x < 0.0:
                        x = 0.0
                        clamps += 1
                yield x

    kept = islice(states(), substeps - 1, None, substeps)
    values = np.fromiter(kept, float, schedule.n_samples)
    return values, clamps


def _logistic_flow(x0: float, beta: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Exact SIS flow from x0 after times t (fixed rates: a logistic curve).

    For r = beta - gamma > 0 numerator and denominator are divided by e^{rt},
    so long intervals neither overflow nor cancel.
    """
    r = beta - gamma
    if x0 == 0.0:
        return np.zeros_like(t)
    if r == 0.0:
        return x0 / (1.0 + beta * x0 * t)
    if r < 0.0:
        e = np.expm1(r * t)
        return r * x0 * (1.0 + e) / (r + beta * x0 * e)
    return r * x0 / (r * np.exp(-r * t) - beta * x0 * np.expm1(-r * t))


def simulate_dt(spec: HybridModelSpec, x0: float) -> Trajectory:
    """Run the sampled model exactly as the estimator assumes it.

    Ordinary steps apply x + h * (beta (1 - x) x - gamma x) with the active
    interval's rates; a step landing on a release index applies the jump rule
    alone.  A release pushing the share outside [0, 1] raises ValueError.
    """
    x = _check_start(x0)
    _warn_stability(spec)
    xs, _ = _recurse(spec.schedule, spec.intervals, x)
    return Trajectory(values=xs, step_size=spec.schedule.step_size)


def simulate_ct(spec: HybridModelSpec, x0: float) -> Trajectory:
    """The continuous SIS flow, sampled every step_size.

    Evaluates the closed-form logistic solution

        x(t) = r x0 e^{rt} / (r + beta x0 (e^{rt} - 1)),   r = beta - gamma,

    (x0 / (1 + beta x0 t) when r = 0) at every sample, with t measured from
    the interval's opening sample.  Release steps apply the jump rule to the
    previous sample and skip the flow, keeping the sampled release
    convention identical across all generators.
    """
    x = _check_start(x0)
    sched = spec.schedule
    xs = np.empty(sched.n_samples, dtype=float)
    xs[0] = x
    for i, p in enumerate(spec.intervals):
        if i > 0:
            x = _apply_jump(x, p.alpha, i, check=True)
            xs[sched.jump_step(i)] = x
        ks = sched.sis_index_range(i)
        t = sched.step_size * np.arange(1, len(ks) + 1)
        xs[ks.start + 1 : ks.stop + 1] = _logistic_flow(x, p.beta, p.gamma, t)
        x = float(xs[ks.stop])
    return Trajectory(values=xs, step_size=sched.step_size)


def simulate_sde(
    spec: HybridModelSpec,
    x0: float,
    config: SimulationConfig | None = None,
) -> Trajectory:
    """Euler-Maruyama path of the SIS flow with multiplicative demand noise.

    Each sub-step applies

        x <- x + dt * (beta (1 - x) x - gamma x) + sigma * x * sqrt(dt) * z

    with z standard normal.  Zero is absorbing for the noiseless flow, so any
    excursion below zero is clamped back to zero and counted in the returned
    trajectory's clamp_count.  With sigma = 0 the noise term vanishes and the
    output is the noiseless Euler recursion bit for bit, which at one
    sub-step equals simulate_dt.
    """
    if config is None:
        config = SimulationConfig()
    x = _check_start(x0)
    sched = spec.schedule
    sub = config.fine_substeps
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # one batch, consumed in simulation order; every step but a release flows
    noise = memoryview(rng.standard_normal((sched.final_step - sched.n_updates) * sub))
    xs, clamps = _recurse(sched, spec.intervals, x, substeps=sub, sigma=config.sigma, noise=noise)
    return Trajectory(values=xs, step_size=sched.step_size, clamp_count=clamps)


def add_observation_noise(traj: Trajectory, sigma: float, seed: int) -> Trajectory:
    """Independent N(0, sigma^2) measurement noise on every sample.

    Results are clamped to [0, 1]; the number of clamped samples is recorded
    on the returned trajectory.  Equal seeds give equal noise.
    """
    sigma = float(sigma)
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = traj.values + sigma * rng.standard_normal(len(traj))
    clipped = np.clip(noisy, 0.0, 1.0)
    clamps = int(np.count_nonzero(clipped != noisy))
    return Trajectory(
        values=clipped,
        step_size=traj.step_size,
        population=traj.population,
        clamp_count=clamps,
    )


_WRITE_CHUNK = 8192  # rows per fh.write: bounds the transient strings


def _write_trajectory_rows(traj: Trajectory, fh) -> None:
    counts = traj.to_counts() if traj.population is not None else None
    head, row = "step,time,x", "{},{:.17g},{:.17g}"
    if counts is not None:
        head, row = head + ",count", row + ",{}"
    fh.write(head + "\n")
    fmt = (row + "\n").format
    n = len(traj)
    for a in range(0, n, _WRITE_CHUNK):
        b = min(a + _WRITE_CHUNK, n)
        # int64 * float64 is the same IEEE product as Python's k * h
        cols = [range(a, b), (np.arange(a, b) * traj.step_size).tolist(), traj.values[a:b].tolist()]
        if counts is not None:
            cols.append(counts[a:b].tolist())
        fh.write("".join(map(fmt, *cols)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write step,time,x rows, plus a count column when a population is set.

    path may be a filesystem path or an open text stream.  Every row is
    "{k},{k*h:.17g},{x:.17g}": 17 significant digits round-trip a double
    exactly.  Rows are formatted a chunk at a time.
    """
    if hasattr(path, "write"):
        _write_trajectory_rows(traj, path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_trajectory_rows(traj, fh)


def _csv_may_differ(path) -> bool:
    """Whether the csv module may reject what numpy parsed: NUL (before Python 3.11),
    ASCII 0x1C-0x1F around a number, a field over 128 KiB (in 64 KiB with no line end)."""
    with open(path, "rb") as raw:
        for c in iter(partial(raw.read, 1 << 16), b""):
            if not (b"\n" in c or b"\r" in c) or any(map(c.__contains__, b"\0\x1c\x1d\x1e\x1f")):
                return True
    return False


def _grid_step(path, times: Sequence[float], linenos: Sequence[int]) -> float:
    """times[1] - times[0], once every time is within a relative 1e-9 of k*h."""
    if len(times) < 2:
        raise ValueError(f"{path}: a trajectory needs at least 2 samples")
    h = times[1] - times[0]
    if h <= 0.0:
        raise ValueError(f"{path}: non-positive step size {h}")
    t = np.asarray(times)
    grid = np.arange(t.size) * h
    # written as "not within" so that a NaN time is off the grid too
    off = ~(np.abs(t - grid) <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(t), np.abs(grid))))
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(
            f"{path}:{linenos[k]}: time {times[k]!r} is off the even grid "
            f"k*h = {float(grid[k])!r} (h = {h!r} from the first two rows)"
        )
    return h


def _read_csv(path, check_header, dtype, parse, row_loop, usecols=None):
    """Parse a CSV body in C, explain a rejected one in Python.

    check_header(first row or None) raises on a bad header.  np.loadtxt then
    parses the body as `dtype` (warnings as errors) and parse(rows) returns
    the result, or None, or raises ValueError to reject it.  A rejected body,
    a file the csv module may read differently, or a stream that cannot seek
    (a pipe is read once) goes to row_loop(reader), which names the bad line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        check_header(next(reader, None))
        if fh.seekable():
            try:  # any error or warning here ("input contained no data" too) re-reads below
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, dtype, comments=None, delimiter=",",
                                      quotechar='"', usecols=usecols, ndmin=1)
                    result = parse(rows)
                if result is not None and not _csv_may_differ(path):
                    return result
            except (ValueError, Warning):
                pass
            fh.seek(0)  # rejected: re-read line by line, to name the bad line
            next(reader)
        return row_loop(reader)


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    The step size h is recovered from the first two times, and every time
    must equal k * h to a relative 1e-9; any count column is ignored (the
    population scale is not stored in the file).  The body is parsed in C,
    and a rejected file is re-read line by line to name the bad line.
    """

    def check_header(header):
        if header is None or [c.strip() for c in header[:3]] != ["step", "time", "x"]:
            raise ValueError(f"{path}: expected header step,time,x[,count]")

    def parse(rows):
        steps, t, x = (rows[name] for name in rows.dtype.names)
        if np.array_equal(steps, np.arange(t.size)):  # Trajectory rejects NaN and inf
            return Trajectory(values=x, step_size=_grid_step(path, t, linenos=steps))
        return None

    def row_loop(reader):
        values, times, linenos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno}: expected at least 3 columns")
            try:
                step = int(row[0])
                t = float(row[1])
                x = float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if not math.isfinite(x):
                raise ValueError(f"{path}:{lineno}: share {row[2].strip()!r} is not finite")
            if step != len(values):
                raise ValueError(f"{path}:{lineno}: step {step} out of order")
            values.append(x)
            times.append(t)
            linenos.append(lineno)
        return Trajectory(values=np.asarray(values), step_size=_grid_step(path, times, linenos))

    return _read_csv(path, check_header, np.dtype("i8,f8,f8"), parse, row_loop, usecols=(0, 1, 2))
