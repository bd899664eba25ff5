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
full least-squares solution).  Each block is factored once: a batched QR of
[block | rhs] over zero-padded stacks of blocks (zero rows change neither
factor), then an SVD of the block's 3 x 3 triangular factor, which has the
block's singular values.  That gives its RANK_RTOL rank, condition number,
minimum-norm solution and residual to check_identifiability and estimate.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    HybridModelSpec,
    IntervalParams,
    Trajectory,
    UpdateSchedule,
    _interval_to_dict,
    parameter_names,
    reproduction_number,
    theta_slice,
    theta_unpack,
)
from .simulate import _recurse

__all__ = [
    "VARIATION_TOL",
    "RANK_RTOL",
    "RegressionSystem",
    "BlockSolution",
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
# padded rows per batched QR call (a longer block gets a call of its own):
# bounds the stacks' memory by this or the longest block, not by n
_STACK_ROWS = 8192


def _json_float(v: float | None) -> float | None:
    """v, or None (JSON null) where v is NaN or infinite, which strict JSON lacks."""
    return v if v is None or np.isfinite(v) else None


class RankDeficiencyWarning(UserWarning):
    """A regression block was numerically rank deficient."""


def _width(i: int) -> int:
    """Theta columns of interval i's block, and so the rank it needs."""
    cols = theta_slice(i)
    return cols.stop - cols.start


@dataclass(frozen=True)
class RegressionSystem:
    """y and the compact (final_step, 3) Psi described in the module notes,
    with the shares x and the schedule they were built from."""

    x: np.ndarray
    schedule: UpdateSchedule
    y: np.ndarray
    psi: np.ndarray

    def block_rows(self, i: int) -> range:
        """Rows of interval i's block: its release row (i >= 1), then its
        ordinary rows, which may be none."""
        ks = self.schedule.sis_index_range(i)
        return range(ks.start - 1 if i else 0, ks.stop)

    def block_matrix(self, i: int) -> np.ndarray:
        rows = self.block_rows(i)
        # the last width columns: interval 0 has no release column
        return self.psi[rows.start : rows.stop, -_width(i) :]

    def block_rhs(self, i: int) -> np.ndarray:
        rows = self.block_rows(i)
        return self.y[rows.start : rows.stop]

    @cached_property
    def solution(self) -> "BlockSolution":
        """Every block factored once, shared by check_identifiability and estimate.

        Blocks are taken shortest first, as many per batched QR call as fit
        _STACK_ROWS when zero-padded to the longest of them (a longer block
        goes alone), so few calls serve many short blocks and no call holds
        more than the budget or one block.  Zero-row blocks are not
        factored: rank 0, zero solution."""
        n = self.schedule.n_intervals
        rows = [self.block_rows(i) for i in range(n)]
        lengths = [len(r) for r in rows]
        widths = np.array([_width(i) for i in range(n)])
        # singular values, zero-padded: a zero-row block has none
        sv, solutions, residuals_sq = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n)
        # interval 0's release column is zero: its factor gains a zero column
        # and a zero singular value, which the RANK_RTOL rule does not count
        order = [i for i in sorted(range(n), key=lengths.__getitem__) if lengths[i]]
        while order:
            # the shortest blocks left, as many as fit the budget padded to the longest
            k = 1
            while k < len(order) and (k + 1) * lengths[order[k]] <= _STACK_ROWS:
                k += 1
            idx, order = order[:k], order[k:]
            ay = np.zeros((k, max(4, lengths[idx[-1]]), 4))  # at least 4 rows: R is 4 x 4
            for j, i in enumerate(idx):
                ay[j, : lengths[i], :3] = self.psi[rows[i].start : rows[i].stop]
                ay[j, : lengths[i], 3] = self.y[rows[i].start : rows[i].stop]
            # with A = QR: R[:3, :3] is R, R[:3, 3] is Q^T y, and |R[3, 3]| is
            # the norm of the part of y outside the span of A
            r = np.linalg.qr(ay, mode="r")
            u, s, vt = np.linalg.svd(r[:, :3, :3])
            z = (r[:, None, :3, 3] @ u)[:, 0]
            keep = s > RANK_RTOL * s[:, :1]
            sol = (np.divide(z, s, out=np.zeros_like(s), where=keep)[:, None] @ vt)[:, 0]
            sv[idx], solutions[idx] = s, sol
            residuals_sq[idx] = r[:, 3, 3] ** 2 + (np.where(keep, 0.0, z) ** 2).sum(axis=1)
        ranks = np.count_nonzero(sv > RANK_RTOL * sv[:, :1], axis=1)
        s_min = sv[np.arange(n), widths - 1]
        conditions = np.divide(sv[:, 0], s_min, out=np.full(n, np.nan), where=ranks == widths)
        return BlockSolution(solutions, ranks, conditions, residuals_sq)


@dataclass(frozen=True)
class BlockSolution:
    """Per block: minimum-norm solution (zero-padded to 3 columns on the
    left), numeric rank, condition number s_max / s_min (NaN when rank
    deficient) and squared residual norm."""

    solutions: np.ndarray
    ranks: np.ndarray
    conditions: np.ndarray
    residuals_sq: np.ndarray


def build_regression(traj: Trajectory, schedule: UpdateSchedule) -> RegressionSystem:
    """Assemble y and the compact block-diagonal Psi for a trajectory and schedule."""
    h1, h2 = traj.step_size, schedule.step_size
    if abs(h1 - h2) > 1e-9 * max(1.0, abs(h1), abs(h2)):
        raise ValueError(
            f"trajectory step size {h1!r} does not match schedule step size {h2!r}"
        )
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
    return RegressionSystem(x=x, schedule=schedule, y=y, psi=psi)


def _has_variation(x: np.ndarray, ranges: list[range]) -> np.ndarray:
    """Per range of x: two usable (nonzero) shares that actually differ, at tolerance.

    The exact condition is x1 x2 (x1 - x2) != 0 for some pair; numerically a
    share counts as nonzero above VARIATION_TOL and a pair as distinct when
    the difference clears VARIATION_TOL relative to max(1, |x1|, |x2|).  The
    extreme pair (min, max) of the usable subset decides, because every other
    pair differs less while facing the same floor.
    """
    bounds = np.array([(ks.start, ks.stop) for ks in ranges]).ravel()[:-1]
    x = x[: ranges[-1].stop]  # the last range runs to the end of the array
    usable = np.abs(x) > VARIATION_TOL
    # reduceat over start_0, stop_0, start_1, ...: the even entries reduce the
    # ranges (the odd ones the release rows between them); an empty range
    # yields its start element alone, which is fewer than 2 usable shares
    n_usable = np.add.reduceat(usable, bounds, dtype=np.intp)[::2]
    xu = np.where(usable, x, np.nan)  # fmin and fmax skip NaN
    lo, hi = np.fmin.reduceat(xu, bounds)[::2], np.fmax.reduceat(xu, bounds)[::2]
    floor = VARIATION_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return (n_usable >= 2) & (hi - lo > floor)


@dataclass(frozen=True)
class IntervalConditions:
    interval: int
    length_ok: bool
    variation_ok: bool
    jump_state_ok: bool
    rank: int
    required_rank: int
    # s_max / s_min of the block; NaN (JSON null) when it is rank deficient
    condition: float

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
            "condition": _json_float(self.condition),
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


def check_identifiability(system: RegressionSystem) -> IdentifiabilityReport:
    """Evaluate, per interval, the exact conditions for a unique solution.

    length_ok: at least two ordinary rows in the interval's block.
    variation_ok: two distinct nonzero shares among its ordinary-row states.
    jump_state_ok: nonzero share entering the interval's release (intervals
    >= 1; vacuously true for interval 0).

    All three hold for every interval exactly when the full system has a
    unique least-squares solution; the report also carries the numeric rank
    of each block and of Psi (their sum) so the algebraic verdict can be
    cross-checked, and each block's condition number, which the verdict
    does not use.
    """
    x, schedule = system.x, system.schedule
    ranges = [schedule.sis_index_range(i) for i in range(schedule.n_intervals)]
    variation_ok = _has_variation(x, ranges)
    pre_release = np.array(schedule.update_steps, dtype=int) - 1
    jump_ok = np.concatenate(([True], np.abs(x[pre_release]) > VARIATION_TOL))
    sol = system.solution
    conditions = tuple(
        IntervalConditions(
            interval=i,
            length_ok=len(ks) >= 2,
            variation_ok=bool(variation_ok[i]),
            jump_state_ok=bool(jump_ok[i]),
            rank=int(sol.ranks[i]),
            required_rank=_width(i),
            condition=float(sol.conditions[i]),
        )
        for i, ks in enumerate(ranges)
    )
    return IdentifiabilityReport(
        intervals=conditions,
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
            "intervals": [_interval_to_dict(p) for p in self.intervals_hat],
            "r0": [_json_float(v) for v in self.r0_hat],
            "residual_norm": float(self.residual_norm),
            "unique": self.unique,
            "block_ranks": list(self.block_ranks),
        }


def estimate(system: RegressionSystem) -> EstimationResult:
    """Least-squares theta, block by block, from the system's shared factorization.

    Blocks decouple, so per-block solves give the full least-squares answer
    at better conditioning than one stacked solve.  A block whose numeric
    rank falls short gets the minimum-norm solution and the result is flagged
    non-unique (with a RankDeficiencyWarning).
    """
    sol = system.solution
    m = system.schedule.n_updates
    theta = np.zeros(theta_slice(m).stop, dtype=float)
    unique = True
    for i in range(m + 1):
        rank, width = int(sol.ranks[i]), _width(i)
        if rank < width:
            unique = False
            warnings.warn(
                f"interval {i}: regression block has rank {rank} < {width}; "
                "returning the minimum-norm solution",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        theta[theta_slice(i)] = sol.solutions[i, -width:]
    intervals = theta_unpack(theta)
    return EstimationResult(
        theta_hat=theta,
        intervals_hat=intervals,
        r0_hat=tuple(reproduction_number(p) for p in intervals),
        residual_norm=float(np.sqrt(sol.residuals_sq.sum())),
        block_ranks=tuple(sol.ranks.tolist()),
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
    r0 = tuple(
        _entry(f"r0_{i}", reproduction_number(p), float(result.r0_hat[i]))
        for i, p in enumerate(truth.intervals)
    )
    return ErrorMetrics(params=params, r0=r0)


def forecast(
    spec: HybridModelSpec,
    x_start: float,
    horizon: int,
    *,
    start_step: int = 0,
) -> Trajectory:
    """Run the sampled model forward from x_start at sample index start_step.

    Scheduled releases inside the horizon apply their alpha; no release is
    ever invented past the schedule.  Beyond final_step the last interval's
    rates continue; a caller that wants to stop at the schedule's end passes
    a shorter horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if start_step < 0:
        raise ValueError(f"start_step must be >= 0, got {start_step}")
    if not 0.0 <= x_start <= 1.0:
        raise ValueError(f"x_start must lie in [0, 1], got {x_start}")
    sched = spec.schedule
    h = sched.step_size
    # the recursion on the window shifted to start_step; the extra sample
    # keeps a release on the last forecast sample a valid schedule
    first = bisect.bisect_right(sched.update_steps, start_step)
    last = bisect.bisect_right(sched.update_steps, start_step + horizon)
    window = UpdateSchedule(
        update_steps=tuple(t - start_step for t in sched.update_steps[first:last]),
        final_step=horizon + 1,
        step_size=h,
    )
    values, _ = _recurse(window, spec.intervals[first : last + 1], x_start, check=False)
    return Trajectory(values=values[:-1], step_size=h)
