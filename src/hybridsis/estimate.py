"""Least-squares identification of the jump-augmented SIS model.

The sampled model is linear in its parameters, so a trajectory plus a release
schedule yields a linear system

    y = Psi @ theta,    y[k] = x[k+1] - x[k],   k = 0 .. final_step - 1,

with theta = [beta0, gamma0, alpha1, beta1, gamma1, ...] and Psi block
diagonal, one block per interval.  Every row belongs to exactly one block,
so Psi is stored compactly with three columns:

  ordinary row k = [ 0,  h (1 - x[k]) x[k],  -h x[k] ],
  release row T_i - 1 = [ x[T_i - 1],  0,  0 ].

Block 0 holds interval 0's ordinary rows in the trailing two columns; block
i >= 1 holds interval i's release row and ordinary rows in all three.  The
theta columns of block i are model.theta_slice(i).

Ordinary rows of interval i cover k = T_i .. T_{i+1} - 2, except that the
last interval keeps its tail and runs through final_step - 1 (the range is
produced by UpdateSchedule.sis_index_range, which owns that asymmetry).

A block is uniquely solvable exactly when
  * it has at least 2 ordinary rows (3-column blocks also need their release
    row, which every scheduled release provides),
  * two ordinary rows differ:  x[k1] (1 - x[k2]) x[k2] != x[k2] (1 - x[k1]) x[k1],
    which reduces to x[k1] x[k2] (x[k1] - x[k2]) != 0, so two distinct
    nonzero shares suffice,
  * the release row is nonzero: x[T_i - 1] != 0.
check_identifiability evaluates these condition by condition and also reports
numeric ranks so the two views can be compared.  Psi's rank is the sum of
the block ranks, because the blocks share no rows or columns.

Solving is per block (the blocks share no columns, so this is exactly the
full least-squares solution), one SVD-based LAPACK solve (gelsd) each, which
returns the minimum-norm solution on rank-deficient blocks and the block's
rank under the same RANK_RTOL rule that check_identifiability applies.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    HybridModelSpec,
    IntervalParams,
    Trajectory,
    UpdateSchedule,
    parameter_names,
    theta_slice,
    theta_unpack,
)
from .simulate import _recurse

__all__ = [
    "VARIATION_TOL",
    "RANK_RTOL",
    "BlockSlice",
    "RegressionSystem",
    "build_regression",
    "IntervalConditions",
    "IdentifiabilityReport",
    "check_identifiability",
    "RankDeficiencyWarning",
    "EstimationResult",
    "estimate",
    "MetricEntry",
    "ErrorMetrics",
    "error_metrics",
    "forecast",
]

# a share is treated as zero below this, and two shares as equal when their
# difference is below this relative to max(1, |x1|, |x2|)
VARIATION_TOL = 1e-12
# singular values below RANK_RTOL * sigma_max count as zero in numeric ranks
RANK_RTOL = 1e-10


def _json_float(v: float | None) -> float | None:
    """v, or None (JSON null) where v is NaN or infinite, which strict JSON lacks."""
    return v if v is None or np.isfinite(v) else None


class RankDeficiencyWarning(UserWarning):
    """A regression block was numerically rank deficient."""


@dataclass(frozen=True)
class BlockSlice:
    """Row extent of one interval's diagonal block and the theta columns it
    solves for (both half-open)."""

    interval: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def width(self) -> int:
        return self.col_stop - self.col_start


@dataclass(frozen=True)
class RegressionSystem:
    """y and the compact (final_step, 3) Psi described in the module notes."""

    y: np.ndarray
    psi: np.ndarray
    blocks: tuple[BlockSlice, ...]

    def block_matrix(self, i: int) -> np.ndarray:
        b = self.blocks[i]
        return self.psi[b.row_start : b.row_stop, 3 - b.width :]

    def block_rhs(self, i: int) -> np.ndarray:
        b = self.blocks[i]
        return self.y[b.row_start : b.row_stop]


def _check_step_sizes(traj: Trajectory, schedule: UpdateSchedule) -> None:
    h1, h2 = traj.step_size, schedule.step_size
    if abs(h1 - h2) > 1e-9 * max(1.0, abs(h1), abs(h2)):
        raise ValueError(
            f"trajectory step size {h1!r} does not match schedule step size {h2!r}"
        )


def build_regression(traj: Trajectory, schedule: UpdateSchedule) -> RegressionSystem:
    """Assemble y and the compact block-diagonal Psi for a trajectory and schedule."""
    _check_step_sizes(traj, schedule)
    x = traj.values
    m = schedule.n_updates
    n_rows = schedule.final_step
    # the last interval's ordinary rows run through final_step - 1, so its
    # flow needs the most samples of any interval
    if len(traj) - 1 < n_rows:
        raise ValueError(
            f"interval {m} needs samples through index {n_rows} but the "
            f"trajectory ends at index {len(traj) - 1}"
        )
    h = schedule.step_size

    y = np.diff(x[: n_rows + 1])
    xk = x[:n_rows]
    psi = np.zeros((n_rows, 3), dtype=float)
    psi[:, 1] = h * (1.0 - xk) * xk
    psi[:, 2] = -h * xk
    # release rows hold the pre-release share in column 0 only
    release_rows = [t - 1 for t in schedule.update_steps]
    psi[release_rows, 0] = xk[release_rows]
    psi[release_rows, 1:] = 0.0
    blocks: list[BlockSlice] = []
    for i in range(m + 1):
        cols = theta_slice(i)
        # the ordinary range's stop bounds the block's rows in every case: an
        # empty range leaves interval 0 with no rows and a later interval with
        # just its release row
        blocks.append(
            BlockSlice(
                interval=i,
                row_start=0 if i == 0 else release_rows[i - 1],
                row_stop=schedule.sis_index_range(i).stop,
                col_start=cols.start,
                col_stop=cols.stop,
            )
        )
    return RegressionSystem(y=y, psi=psi, blocks=tuple(blocks))


def _svd_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _has_variation(values: np.ndarray) -> bool:
    """Two usable (nonzero) shares that actually differ, at tolerance.

    The exact condition is x1 x2 (x1 - x2) != 0 for some pair; numerically a
    share counts as nonzero above VARIATION_TOL and a pair as distinct when
    the difference clears VARIATION_TOL relative to max(1, |x1|, |x2|).  The
    extreme pair (min, max) of the usable subset decides, because every other
    pair differs less while facing the same floor.
    """
    usable = values[np.abs(values) > VARIATION_TOL]
    if usable.size < 2:
        return False
    lo = float(usable.min())
    hi = float(usable.max())
    return (hi - lo) > VARIATION_TOL * max(1.0, abs(lo), abs(hi))


@dataclass(frozen=True)
class IntervalConditions:
    interval: int
    length_ok: bool
    variation_ok: bool
    jump_state_ok: bool
    rank: int
    required_rank: int

    @property
    def ok(self) -> bool:
        return self.length_ok and self.variation_ok and self.jump_state_ok

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "length_ok": self.length_ok,
            "variation_ok": self.variation_ok,
            "jump_state_ok": self.jump_state_ok,
            "ok": self.ok,
            "rank": self.rank,
            "required_rank": self.required_rank,
        }


@dataclass(frozen=True)
class IdentifiabilityReport:
    intervals: tuple[IntervalConditions, ...]
    overall: bool
    psi_rank: int
    required_rank: int

    def failed_intervals(self) -> tuple[int, ...]:
        return tuple(c.interval for c in self.intervals if not c.ok)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "psi_rank": self.psi_rank,
            "required_rank": self.required_rank,
            "intervals": [c.to_dict() for c in self.intervals],
        }


def check_identifiability(
    system: RegressionSystem, traj: Trajectory, schedule: UpdateSchedule
) -> IdentifiabilityReport:
    """Evaluate, per interval, the exact conditions for a unique solution.

    length_ok: at least two ordinary rows in the interval's block.
    variation_ok: two distinct nonzero shares among its ordinary-row states.
    jump_state_ok: nonzero share entering the interval's release (intervals
    >= 1; vacuously true for interval 0).

    All three hold for every interval exactly when the full system has a
    unique least-squares solution; the report also carries the numeric rank
    of each block and of Psi (their sum) so the algebraic verdict can be
    cross-checked.
    """
    _check_step_sizes(traj, schedule)
    x = traj.values
    conditions = []
    for i in range(schedule.n_updates + 1):
        ks = schedule.sis_index_range(i)
        states = x[ks.start : ks.stop]
        length_ok = len(ks) >= 2
        variation_ok = _has_variation(states)
        if i == 0:
            jump_ok = True
        else:
            jump_ok = abs(float(x[schedule.jump_step(i) - 1])) > VARIATION_TOL
        conditions.append(
            IntervalConditions(
                interval=i,
                length_ok=length_ok,
                variation_ok=variation_ok,
                jump_state_ok=jump_ok,
                rank=_svd_rank(system.block_matrix(i)),
                required_rank=system.blocks[i].width,
            )
        )
    return IdentifiabilityReport(
        intervals=tuple(conditions),
        overall=all(c.ok for c in conditions),
        psi_rank=sum(c.rank for c in conditions),
        required_rank=sum(c.required_rank for c in conditions),
    )


@dataclass
class EstimationResult:
    theta_hat: np.ndarray
    intervals_hat: tuple[IntervalParams, ...]
    r0_hat: tuple[float, ...]
    residual_norm: float
    block_ranks: tuple[int, ...]
    unique: bool

    def to_dict(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta_hat],
            "intervals": [
                (
                    {"beta": p.beta, "gamma": p.gamma}
                    if p.alpha is None
                    else {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma}
                )
                for p in self.intervals_hat
            ],
            "r0": [_json_float(v) for v in self.r0_hat],
            "residual_norm": float(self.residual_norm),
            "unique": self.unique,
            "block_ranks": list(self.block_ranks),
        }


def estimate(system: RegressionSystem) -> EstimationResult:
    """Solve each diagonal block with one SVD-based least-squares solve.

    Blocks decouple, so per-block solves give the full least-squares answer
    at better conditioning than one stacked solve.  A block whose numeric
    rank falls short gets the minimum-norm solution and the result is flagged
    non-unique (with a RankDeficiencyWarning).
    """
    theta = np.zeros(system.blocks[-1].col_stop, dtype=float)
    ranks: list[int] = []
    unique = True
    residual_sq = 0.0
    for i, b in enumerate(system.blocks):
        a = system.block_matrix(i)
        rhs = system.block_rhs(i)
        # gelsd counts singular values above RANK_RTOL * s_max, the _svd_rank rule
        sol, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=RANK_RTOL)
        rank = int(rank)
        if rank < b.width:
            unique = False
            warnings.warn(
                f"interval {i}: regression block has rank {rank} < {b.width}; "
                "returning the minimum-norm solution",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        theta[b.col_start : b.col_stop] = sol
        ranks.append(rank)
        r = rhs - a @ sol
        residual_sq += float(r @ r)
    intervals = theta_unpack(theta)
    r0 = tuple(
        (p.beta / p.gamma) if p.gamma != 0.0 else float("nan") for p in intervals
    )
    return EstimationResult(
        theta_hat=theta,
        intervals_hat=intervals,
        r0_hat=r0,
        residual_norm=float(np.sqrt(residual_sq)),
        block_ranks=tuple(ranks),
        unique=unique,
    )


@dataclass(frozen=True)
class MetricEntry:
    """One compared quantity.  error is relative when the true value is
    nonzero, absolute otherwise (relative=False marks that case)."""

    name: str
    true: float
    estimate: float
    error: float
    relative: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "true": _json_float(self.true),
            "estimate": _json_float(self.estimate),
            "error": _json_float(self.error),
            "relative": self.relative,
        }


def _entry(name: str, true: float, est: float) -> MetricEntry:
    if true != 0.0 and np.isfinite(true):
        return MetricEntry(name, true, est, abs(est - true) / abs(true), True)
    return MetricEntry(name, true, est, abs(est - true), False)


@dataclass(frozen=True)
class ErrorMetrics:
    params: tuple[MetricEntry, ...]
    r0: tuple[MetricEntry, ...]

    @property
    def max_param_error(self) -> float:
        return max(e.error for e in self.params)

    @property
    def max_r0_error(self) -> float:
        return max(e.error for e in self.r0)

    def to_dict(self) -> dict:
        return {
            "params": [e.to_dict() for e in self.params],
            "r0": [e.to_dict() for e in self.r0],
        }


def error_metrics(result: EstimationResult, truth: HybridModelSpec) -> ErrorMetrics:
    """Per-parameter and per-interval reproduction-number errors vs truth."""
    theta_true = truth.theta
    if theta_true.size != result.theta_hat.size:
        raise ValueError(
            f"truth has {theta_true.size} parameters, estimate has {result.theta_hat.size}"
        )
    names = parameter_names(truth.schedule.n_updates)
    params = tuple(
        _entry(n, float(t), float(e))
        for n, t, e in zip(names, theta_true, result.theta_hat)
    )
    r0_entries = []
    for i, p in enumerate(truth.intervals):
        r0_true = p.beta / p.gamma if p.gamma != 0.0 else float("nan")
        r0_entries.append(_entry(f"r0_{i}", r0_true, float(result.r0_hat[i])))
    return ErrorMetrics(params=params, r0=tuple(r0_entries))


def forecast(
    spec: HybridModelSpec,
    x_start: float,
    horizon: int,
    *,
    start_step: int = 0,
    beyond: str = "extend",
) -> Trajectory:
    """Run the sampled model forward from x_start at sample index start_step.

    Scheduled releases inside the horizon apply their alpha; no release is
    ever invented past the schedule.  Beyond final_step the last interval's
    rates continue when beyond="extend" (default); beyond="stop" truncates
    the forecast at the schedule's end instead.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if start_step < 0:
        raise ValueError(f"start_step must be >= 0, got {start_step}")
    if not 0.0 <= x_start <= 1.0:
        raise ValueError(f"x_start must lie in [0, 1], got {x_start}")
    if beyond not in ("extend", "stop"):
        raise ValueError(f"unknown beyond-schedule policy {beyond!r}")
    sched = spec.schedule
    h = sched.step_size
    if beyond == "stop":
        horizon = min(horizon, max(0, sched.final_step - start_step))
        if horizon < 1:
            raise ValueError(
                f"nothing to forecast: the schedule ends at step {sched.final_step} "
                f"and the start step is {start_step}"
            )
    # the recursion on the window shifted to start_step; the extra sample
    # keeps a release on the last forecast sample a valid schedule
    first = bisect.bisect_right(sched.update_steps, start_step)
    last = bisect.bisect_right(sched.update_steps, start_step + horizon)
    window = UpdateSchedule(
        update_steps=tuple(t - start_step for t in sched.update_steps[first:last]),
        final_step=horizon + 1,
        step_size=h,
    )
    values, _ = _recurse(
        window, spec.intervals[first : last + 1], x_start, on_jump_escape=None
    )
    return Trajectory(values=values[:-1], step_size=h)
