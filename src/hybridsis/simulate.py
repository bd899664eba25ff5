"""Trajectory generators for the jump-augmented SIS demand model.

Three generators share one convention for release steps: the output step that
lands on a release index T_i carries the jump and nothing else,

    x[T_i] = (1 + alpha_i) * x[T_i - 1],

so the sampled output of every generator obeys the same release rule as the
identification model.  Between releases:

  simulate_dt   applies the sampled update rule itself (forward Euler form),
                one step per sample.
  simulate_ct   integrates the continuous SIS vector field with a classical
                fourth-order one-step method (or plain Euler on request),
                fine_substeps sub-steps per output sample.
  simulate_sde  adds multiplicative demand noise sigma * x * dW to the drift
                and integrates by the Euler-Maruyama rule.

With method="euler" and fine_substeps=1, simulate_ct reproduces simulate_dt
sample for sample, and simulate_sde with sigma=0 reproduces that same output
bit for bit.  All stochastic draws come from numpy's PCG64 generator seeded
explicitly; normals are drawn in one batch, consumed in simulation order, so
equal seeds give equal paths on any platform with the same numpy series.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import HybridModelSpec, Trajectory

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
    """Knobs shared by the continuous and stochastic generators."""

    x0: float = 0.0
    seed: int = 0
    sigma: float = 0.0
    fine_substeps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "fine_substeps", int(self.fine_substeps))
        if not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"x0 must lie in [0, 1], got {self.x0}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.fine_substeps < 1:
            raise ValueError(f"fine_substeps must be >= 1, got {self.fine_substeps}")


def _sis_rate(x: float, beta: float, gamma: float) -> float:
    return beta * (1.0 - x) * x - gamma * x


def _rk4_step(x: float, beta: float, gamma: float, dt: float) -> float:
    k1 = _sis_rate(x, beta, gamma)
    k2 = _sis_rate(x + 0.5 * dt * k1, beta, gamma)
    k3 = _sis_rate(x + 0.5 * dt * k2, beta, gamma)
    k4 = _sis_rate(x + dt * k3, beta, gamma)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_x0(x0: float) -> float:
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


def _apply_jump(
    x_pre: float, alpha: float, interval: int, on_escape: str
) -> tuple[float, int]:
    """Release rule with range policy.  Returns (new value, clamped flag)."""
    x_new = (1.0 + alpha) * x_pre
    if 0.0 <= x_new <= 1.0:
        return x_new, 0
    if on_escape == "error":
        raise ValueError(
            f"release opening interval {interval} maps share {x_pre:.6g} to "
            f"{x_new:.6g}, outside [0, 1]"
        )
    if on_escape == "clamp":
        clamped = min(1.0, max(0.0, x_new))
        warnings.warn(
            f"release opening interval {interval} left [0, 1] "
            f"({x_new:.6g}); clamped to {clamped:.6g}",
            UserWarning,
            stacklevel=4,
        )
        return clamped, 1
    raise ValueError(f"unknown jump escape policy {on_escape!r}")


def simulate_dt(
    spec: HybridModelSpec, x0: float, *, on_jump_escape: str = "error"
) -> Trajectory:
    """Run the sampled model exactly as the estimator assumes it.

    Ordinary steps apply x + h * (beta (1 - x) x - gamma x) with the active
    interval's rates; a step landing on a release index applies the jump rule
    alone.  A release pushing the share outside [0, 1] raises by default;
    on_jump_escape="clamp" clamps and warns instead.
    """
    x = _check_x0(x0)
    _warn_stability(spec)
    sched = spec.schedule
    h = sched.step_size
    xs = np.empty(sched.n_samples, dtype=float)
    xs[0] = x
    clamps = 0
    for i, p in enumerate(spec.intervals):
        if i > 0:
            t = sched.jump_step(i)
            x, c = _apply_jump(x, p.alpha, i, on_jump_escape)
            clamps += c
            xs[t] = x
        for k in sched.sis_index_range(i):
            x = x + h * _sis_rate(x, p.beta, p.gamma)
            xs[k + 1] = x
    return Trajectory(values=xs, step_size=h, clamp_count=clamps)


def simulate_ct(
    spec: HybridModelSpec,
    x0: float | None = None,
    config: SimulationConfig | None = None,
    *,
    method: str = "rk4",
    on_jump_escape: str = "error",
) -> Trajectory:
    """Integrate the continuous SIS flow, sampled every step_size.

    Each output step is covered by config.fine_substeps equal sub-steps of the
    chosen one-step method ("rk4" default, "euler" for the order-one variant
    that matches simulate_dt at one sub-step).  Release steps apply the jump
    rule to the previous sample and skip integration, keeping the sampled
    release convention identical across all generators.
    """
    if config is None:
        config = SimulationConfig()
    x = _check_x0(config.x0 if x0 is None else x0)
    if method not in ("rk4", "euler"):
        raise ValueError(f"unknown integration method {method!r}")
    sched = spec.schedule
    sub = config.fine_substeps
    dt = sched.step_size / sub
    xs = np.empty(sched.n_samples, dtype=float)
    xs[0] = x
    clamps = 0
    for i, p in enumerate(spec.intervals):
        if i > 0:
            t = sched.jump_step(i)
            x, c = _apply_jump(x, p.alpha, i, on_jump_escape)
            clamps += c
            xs[t] = x
        b, g = p.beta, p.gamma
        if method == "rk4":
            for k in sched.sis_index_range(i):
                for _ in range(sub):
                    x = _rk4_step(x, b, g, dt)
                xs[k + 1] = x
        else:
            for k in sched.sis_index_range(i):
                for _ in range(sub):
                    x = x + dt * _sis_rate(x, b, g)
                xs[k + 1] = x
    return Trajectory(values=xs, step_size=sched.step_size, clamp_count=clamps)


def simulate_sde(
    spec: HybridModelSpec,
    x0: float | None = None,
    config: SimulationConfig | None = None,
    *,
    on_jump_escape: str = "error",
) -> Trajectory:
    """Euler-Maruyama path of the SIS flow with multiplicative demand noise.

    Each sub-step applies

        x <- x + dt * (beta (1 - x) x - gamma x) + sigma * x * sqrt(dt) * z

    with z standard normal.  Zero is absorbing for the noiseless flow, so any
    excursion below zero is clamped back to zero and counted in the returned
    trajectory's clamp_count.  With sigma = 0 the noise term vanishes and the
    output equals simulate_ct with method="euler" exactly.
    """
    if config is None:
        config = SimulationConfig()
    x = _check_x0(config.x0 if x0 is None else x0)
    sched = spec.schedule
    sub = config.fine_substeps
    dt = sched.step_size / sub
    sqrt_dt = math.sqrt(dt)
    sigma = config.sigma

    n_sis_steps = sum(len(sched.sis_index_range(i)) for i in range(sched.n_intervals))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # one batch, consumed in simulation order
    noise = rng.standard_normal(n_sis_steps * sub).tolist()

    xs = np.empty(sched.n_samples, dtype=float)
    xs[0] = x
    clamps = 0
    pos = 0
    for i, p in enumerate(spec.intervals):
        if i > 0:
            t = sched.jump_step(i)
            x, c = _apply_jump(x, p.alpha, i, on_jump_escape)
            clamps += c
            xs[t] = x
        b, g = p.beta, p.gamma
        for k in sched.sis_index_range(i):
            for _ in range(sub):
                x = x + dt * _sis_rate(x, b, g) + sigma * x * sqrt_dt * noise[pos]
                pos += 1
                if x < 0.0:
                    x = 0.0
                    clamps += 1
            xs[k + 1] = x
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


def _fmt(x: float, digits: int) -> str:
    return format(x, f".{digits}g")


def _write_trajectory_rows(traj: Trajectory, fh, digits: int) -> None:
    counts = traj.to_counts() if traj.population is not None else None
    writer = csv.writer(fh, lineterminator="\n")
    if counts is None:
        writer.writerow(["step", "time", "x"])
        for k, x in enumerate(traj.values):
            writer.writerow([k, _fmt(k * traj.step_size, digits), _fmt(x, digits)])
    else:
        writer.writerow(["step", "time", "x", "count"])
        for k, x in enumerate(traj.values):
            writer.writerow(
                [k, _fmt(k * traj.step_size, digits), _fmt(x, digits), int(counts[k])]
            )


def write_trajectory_csv(traj: Trajectory, path, *, digits: int = 17) -> None:
    """Write step,time,x rows, plus a count column when a population is set.

    path may be a filesystem path or an open text stream.  The default 17
    significant digits round-trip a double exactly.
    """
    if hasattr(path, "write"):
        _write_trajectory_rows(traj, path, digits)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_trajectory_rows(traj, fh, digits)


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    The step size h is recovered from the first two times, and every time
    must equal k * h to a relative 1e-9; any count column is ignored (the
    population scale is not stored in the file).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["step", "time", "x"]:
            raise ValueError(f"{path}: expected header step,time,x[,count]")
        values: list[float] = []
        times: list[float] = []
        linenos: list[int] = []
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
            if step != len(values):
                raise ValueError(f"{path}:{lineno}: step {step} out of order")
            values.append(x)
            times.append(t)
            linenos.append(lineno)
    if len(values) < 2:
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
            f"k*h = {grid[k]!r} (h = {h!r} from the first two rows)"
        )
    return Trajectory(values=np.asarray(values), step_size=h)
