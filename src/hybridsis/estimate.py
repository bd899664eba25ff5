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

The ordinary rows of interval i are k in [start, stop), row i of
UpdateSchedule.bounds, which owns the asymmetry: k = T_i .. T_{i+1} - 2,
except that the last interval keeps its tail through final_step - 1.
Block i is its release row start - 1 (i >= 1), then its ordinary rows.

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
    _check_count,
    _check_start,
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


@dataclass(frozen=True)
class RegressionSystem:
    """y and the compact (final_step, 3) Psi described in the module notes,
    with the shares x and the schedule they were built from."""

    x: np.ndarray
    schedule: UpdateSchedule
    y: np.ndarray
    psi: np.ndarray

    @cached_property
    def solution(self) -> "BlockSolution":
        """Every block factored once, shared by check_identifiability and estimate."""
        starts, stops = self.schedule.bounds.T.tolist()
        # block i >= 1 opens with its release row, one before its ordinary rows
        return _solve_blocks(self.psi, self.y, starts[:1] + [t - 1 for t in starts[1:]], stops)


def _solve_blocks(psi, y, starts: list[int], stops: list[int]) -> "BlockSolution":
    """Interval i's block, rows starts[i]:stops[i] of psi and y, factored once for every i.

    Blocks are taken shortest first, as many per batched QR call as fit
    _STACK_ROWS when zero-padded to the longest of them (a longer block
    goes alone), so few calls serve many short blocks and no call holds
    more than the budget or one block.  Zero-row blocks are not
    factored: rank 0, zero solution."""
    n = len(starts)
    lengths = [b - a for a, b in zip(starts, stops)]
    widths = np.array([cols.stop - cols.start for cols in map(theta_slice, range(n))])
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
            ay[j, : lengths[i], :3] = psi[starts[i] : stops[i]]
            ay[j, : lengths[i], 3] = y[starts[i] : stops[i]]
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
    return BlockSolution(solutions, ranks, widths, conditions, residuals_sq)


@dataclass(frozen=True)
class BlockSolution:
    """Per block: minimum-norm solution (zero-padded to 3 columns on the
    left), numeric rank, width (the rank it needs), condition number
    s_max / s_min (NaN when rank deficient) and squared residual norm."""

    solutions: np.ndarray
    ranks: np.ndarray
    widths: np.ndarray
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
    # in place, the products of h * (1 - xk) * xk and -h * xk in their order
    flow = psi[:, 1]
    np.subtract(1.0, xk, out=flow)
    flow *= h
    flow *= xk
    np.multiply(-h, xk, out=psi[:, 2])
    # release rows T_i - 1 hold the pre-release share in column 0 only
    release_rows = schedule.bounds[1:, 0] - 1
    psi[release_rows, 0] = xk[release_rows]
    psi[release_rows, 1:] = 0.0
    return RegressionSystem(x=x, schedule=schedule, y=y, psi=psi)


def _has_variation(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per row [start, stop) of bounds: two usable (nonzero) shares in
    x[start:stop] that actually differ, at tolerance.

    The exact condition is x1 x2 (x1 - x2) != 0 for some pair; numerically a
    share counts as nonzero above VARIATION_TOL and a pair as distinct when
    the difference clears VARIATION_TOL relative to max(1, |x1|, |x2|).  The
    extreme pair (min, max) of the usable subset decides, because every other
    pair differs less while facing the same floor.
    """
    edges = bounds.ravel()[:-1]
    x = x[: bounds[-1, 1]]  # the last range runs to the end of the array
    usable = np.abs(x) > VARIATION_TOL
    # reduceat over start_0, stop_0, start_1, ...: the even entries reduce the
    # ranges (the odd ones the release rows between them); an empty range
    # yields its start element alone, which is fewer than 2 usable shares
    n_usable = np.add.reduceat(usable, edges, dtype=np.intp)[::2]
    xu = np.where(usable, x, np.nan)  # fmin and fmax skip NaN
    lo, hi = np.fmin.reduceat(xu, edges)[::2], np.fmax.reduceat(xu, edges)[::2]
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
    x, bounds, sol = system.x, system.schedule.bounds, system.solution
    # the share entering each release, on its release row T_i - 1
    jump_ok = np.concatenate(([True], np.abs(x[bounds[1:, 0] - 1]) > VARIATION_TOL))
    per_interval = zip(
        bounds.tolist(), _has_variation(x, bounds).tolist(), jump_ok.tolist(),
        sol.ranks.tolist(), sol.widths.tolist(), sol.conditions.tolist(),
    )
    conditions = tuple(
        IntervalConditions(i, stop - start >= 2, variation, jump, rank, width, condition)
        for i, ((start, stop), variation, jump, rank, width, condition) in enumerate(per_interval)
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
    theta = np.zeros(theta_slice(system.schedule.n_updates).stop, dtype=float)
    unique = True
    for i, (rank, width) in enumerate(zip(sol.ranks.tolist(), sol.widths.tolist())):
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


def _rel_errors(true: np.ndarray, hats: np.ndarray) -> np.ndarray:
    """The one error against a truth (error_metrics, the study tables): for every row of
    hats (trials x k, or k), |hat - true| / |true|, or |hat - true| where true is zero."""
    err = np.abs(hats - true)
    return np.divide(err, np.abs(true), out=err, where=true != 0.0)


def error_metrics(result: EstimationResult, truth: HybridModelSpec) -> dict:
    """Per-parameter and per-interval reproduction-number errors vs truth, as
    the JSON-ready {"params": [...], "r0": [...]} that `estimate --truth`
    prints.  Each entry holds name, true, estimate, error (from _rel_errors)
    and relative, which is true where the true value is finite and nonzero;
    a NaN or infinite value is None."""
    theta_true = truth.theta
    if theta_true.size != result.theta_hat.size:
        raise ValueError(
            f"truth has {theta_true.size} parameters, estimate has {result.theta_hat.size}"
        )
    r0_true = np.array([reproduction_number(p) for p in truth.intervals])
    tables = (
        ("params", parameter_names(truth.schedule.n_updates), theta_true, result.theta_hat),
        ("r0", [f"r0_{i}" for i in range(r0_true.size)], r0_true, np.array(result.r0_hat)),
    )
    out = {}
    for key, names, true, hats in tables:
        rows = zip(names, true.tolist(), hats.tolist(), _rel_errors(true, hats).tolist())
        out[key] = [
            {"name": name, "true": _json_float(t), "estimate": _json_float(e),
             "error": _json_float(err), "relative": bool(t != 0.0 and np.isfinite(t))}
            for name, t, e, err in rows
        ]
    return out


def forecast(spec: HybridModelSpec, x_start: float, horizon: int) -> Trajectory:
    """Run the sampled model forward from x_start at sample 0 of its schedule.

    Scheduled releases inside the horizon apply their alpha; no release is
    ever invented past the schedule.  Beyond final_step the last interval's
    rates continue; a caller that wants to stop at the schedule's end passes
    a shorter horizon.
    """
    horizon = _check_count(horizon, "horizon")
    x = _check_start(x_start)
    sched = spec.schedule
    # the recursion on the first horizon + 1 steps; the extra sample keeps a
    # release on the last forecast sample a valid schedule
    last = bisect.bisect_right(sched.update_steps, horizon)
    window = UpdateSchedule(
        update_steps=sched.update_steps[:last], final_step=horizon + 1, step_size=sched.step_size
    )
    values, _ = _recurse(window, spec.intervals[: last + 1], x, check=False)
    return Trajectory(values=values[:-1], step_size=sched.step_size)
