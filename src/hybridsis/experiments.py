"""Study harnesses: step-size/noise sweeps and real-data fitting.

The sweep harness compares estimates against known truth across sampling
step sizes under three data regimes:

  noiseless    the continuous flow, sampled at h;
  observation  the same samples plus i.i.d. measurement noise;
  process      one stochastic demand path per trial, sampled at h.

Truth data is generated once per regime (and per trial for the stochastic
regime) on a fine master grid and subsampled to every coarser h, so all step
sizes see the same underlying path.  That matters for the process regime,
where re-simulating per h would change the realization, and it reproduces how
a single recorded history would be thinned in practice.  The master step is
min(h) / fine_substeps; every swept h and every release time must land
exactly on the master grid, which is validated up front.

All randomness flows from one base seed.  Per-cell generator seeds are the
first 8 bytes of sha256("<seed>:<regime>:[<h>:]<trial>"), so any cell can be
reproduced in isolation and results are independent of iteration order.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimate import (
    EstimationResult,
    IdentifiabilityReport,
    _json_float,
    _rel_errors,
    build_regression,
    check_identifiability,
    estimate,
)
from .ingest import AlignedDataset
from .model import (
    HybridModelSpec,
    Scenario,
    Trajectory,
    UpdateSchedule,
    _check_count,
    _check_sigma,
    _check_step,
    _dump_json,
    _fields,
    _list,
    _load_json,
    _number,
    parameter_names,
    reproduction_number,
    scenario_from_dict,
    scenario_to_dict,
    theta_unpack,
)
from .simulate import _recurse, add_observation_noise, simulate_ct, simulate_sde

__all__ = [
    "REGIMES",
    "ExperimentPlan",
    "load_plan",
    "derive_seed",
    "StudyCell",
    "NoiseStudyResult",
    "run_noise_study",
    "FitReport",
    "HoldoutResult",
    "run_realdata_study",
]

REGIMES = ("noiseless", "observation", "process")


def derive_seed(base: int, *parts) -> int:
    """Stable per-cell seed: first 8 bytes of sha256 over seed and coordinates."""
    key = ":".join([str(_number(base, "seed", int, finite=False))] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def _g17(x: float) -> str:
    return format(x, ".17g")


def _near_int(x: float, what: str) -> int:
    r = round(x)
    if abs(x - r) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"{what}: {x!r} is not an integer")
    return int(r)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep.  Defaults mirror the bundled two-release study."""

    scenario: Scenario
    regimes: tuple[str, ...] = REGIMES
    h_values: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02)
    sigma: float = 0.02
    trials: int = 32
    seed: int = 0
    fine_substeps: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "regimes", tuple(self.regimes))
        entry = "an entry of field 'h_values'"
        h_values = tuple(_check_step(_number(h, entry)) for h in self.h_values)
        object.__setattr__(self, "h_values", h_values)
        for key, convert in (("sigma", float), ("trials", int), ("seed", int), ("fine_substeps", int)):
            object.__setattr__(self, key, _number(getattr(self, key), f"field '{key}'", convert))
        for r in self.regimes:
            if r not in REGIMES:
                raise ValueError(f"unknown regime {r!r}; expected one of {REGIMES}")
        for values, what in ((self.regimes, "regime"), (self.h_values, "step size")):
            if not values:
                raise ValueError(f"at least one {what} is required")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {what}s in plan")
        _check_count(self.trials, "trials")
        _check_sigma(self.sigma)
        _check_count(self.fine_substeps, "fine_substeps")
        _grid(self)  # validate alignment eagerly


def _grid(plan: ExperimentPlan):
    """Master schedule and, per swept h, (schedule at h, subsample stride).

    Validates that release times and the final time land on the master grid,
    that every h is an integer multiple of the master step, and that each
    h's stride divides every master release step and the final step.
    """
    sched0 = plan.scenario.spec.schedule
    h0 = sched0.step_size
    h_master = min(plan.h_values) / plan.fine_substeps
    t_final = sched0.final_step * h0
    master = UpdateSchedule(
        update_steps=tuple(
            _near_int(t * h0 / h_master, f"release time {t * h0} over master step {h_master}")
            for t in sched0.update_steps
        ),
        final_step=_near_int(t_final / h_master, f"final time {t_final} over master step"),
        step_size=h_master,
    )

    per_h: dict[float, tuple[UpdateSchedule, int]] = {}
    for h in plan.h_values:
        stride = _near_int(h / h_master, f"step {h} over master step {h_master}")
        for s in (*master.update_steps, master.final_step):
            if s % stride:
                raise ValueError(f"master step {s} misses the grid of step {h} (stride {stride})")
        sched_h = UpdateSchedule(
            update_steps=tuple(s // stride for s in master.update_steps),
            final_step=master.final_step // stride,
            step_size=h,
        )
        per_h[h] = (sched_h, stride)
    return master, per_h


def load_plan(path: str | Path) -> ExperimentPlan:
    """Read a study plan JSON: a 'scenario' object plus optional overrides
    for regimes, h_values, sigma, trials, seed and fine_substeps."""

    def build(d: dict) -> ExperimentPlan:
        allowed = ("scenario", "regimes", "h_values", "sigma", "trials", "seed", "fine_substeps")
        _fields(d, ("scenario",), allowed)
        if not isinstance(d["scenario"], dict):
            raise ValueError(f"field 'scenario' must be a JSON object, got {d['scenario']!r}")
        overrides = {k: v for k, v in d.items() if k != "scenario"}
        for key in ("regimes", "h_values"):
            if key in overrides:
                _list(overrides[key], f"field '{key}'")
        return ExperimentPlan(scenario=scenario_from_dict(d["scenario"]), **overrides)

    return _load_json(path, build)


def _median_max(errs: np.ndarray, labels) -> dict:
    """Per-column median and max of a trials x k error matrix; a non-finite
    one (an interval whose true R0 is infinite) is None, JSON null."""
    return {
        label: {"median": _json_float(float(med)), "max": _json_float(float(mx))}
        for label, med, mx in zip(labels, np.median(errs, axis=0), errs.max(axis=0))
    }


@dataclass
class StudyCell:
    """All trials of one (regime, step size) combination."""

    regime: str
    h: float
    theta_true: np.ndarray
    r0_true: np.ndarray
    theta_hats: list[np.ndarray] = field(default_factory=list)
    failure: IdentifiabilityReport | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def n_trials(self) -> int:
        return len(self.theta_hats)

    @property
    def n_intervals(self) -> int:
        return self.r0_true.size

    def r0_matrix(self) -> np.ndarray:
        """Per-trial reproduction numbers, one column per interval."""
        return np.array([[reproduction_number(p) for p in theta_unpack(t)] for t in self.theta_hats])

    def param_rel_errors(self) -> np.ndarray:
        return _rel_errors(self.theta_true, np.array(self.theta_hats))

    def r0_rel_errors(self) -> np.ndarray:
        return _rel_errors(self.r0_true, self.r0_matrix())


@dataclass
class NoiseStudyResult:
    plan: ExperimentPlan
    cells: list[StudyCell]

    def param_rows(self):
        """Rows regime,h,trial,param,true,estimate,rel_error."""
        names = parameter_names(self.plan.scenario.spec.schedule.n_updates)
        for c in self.cells:
            if c.failed:
                continue
            for trial, (hat, errs) in enumerate(zip(c.theta_hats, c.param_rel_errors())):
                for name, t, e, r in zip(names, c.theta_true, hat, errs):
                    yield (c.regime, c.h, trial, name, float(t), float(e), float(r))

    def r0_rows(self):
        """Rows regime,h,interval,r0_true,r0_est,rel_error (one per trial)."""
        for c in self.cells:
            if c.failed:
                continue
            r0s = c.r0_matrix()
            for row, errs in zip(r0s, _rel_errors(c.r0_true, r0s)):
                for i, (t, e, r) in enumerate(zip(c.r0_true, row, errs)):
                    yield (c.regime, c.h, i, float(t), float(e), float(r))

    def summary(self) -> dict:
        names = parameter_names(self.plan.scenario.spec.schedule.n_updates)
        cells = []
        for c in self.cells:
            cell = {"regime": c.regime, "h": c.h, "failed": c.failed}
            if c.failed:
                cell["identifiability"] = c.failure.to_dict()
            else:
                cell["trials"] = c.n_trials
                cell["param_rel_error"] = _median_max(c.param_rel_errors(), names)
                cell["r0_rel_error"] = _median_max(
                    c.r0_rel_errors(), (f"interval_{i}" for i in range(c.n_intervals))
                )
            cells.append(cell)
        return {
            "seed": self.plan.seed,
            "sigma": self.plan.sigma,
            "trials": self.plan.trials,
            "fine_substeps": self.plan.fine_substeps,
            "regimes": list(self.plan.regimes),
            "h_values": list(self.plan.h_values),
            "cells": cells,
        }

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write params.csv, r0.csv and summary.json; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tables = (
            ("params.csv", ("regime", "h", "trial", "param", "true", "estimate", "rel_error"),
             self.param_rows()),
            ("r0.csv", ("regime", "h", "interval", "r0_true", "r0_est", "rel_error"),
             self.r0_rows()),
        )
        paths = []
        for name, header, rows in tables:
            p = out / name
            with open(p, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(header)
                for row in rows:
                    w.writerow([_g17(v) if isinstance(v, float) else v for v in row])
            paths.append(p)

        p = out / "summary.json"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(_dump_json(self.summary()) + "\n")
        paths.append(p)
        return paths


def _fit(
    traj: Trajectory, schedule: UpdateSchedule
) -> tuple[IdentifiabilityReport, EstimationResult | None]:
    """The identifiability report of traj's regression on schedule, and its
    estimate only when the report holds (None otherwise).  Reads samples
    0..schedule.final_step of traj, so a longer trajectory fits a prefix."""
    system = build_regression(traj, schedule)
    report = check_identifiability(system)
    return report, estimate(system) if report.overall else None


def run_noise_study(plan: ExperimentPlan) -> NoiseStudyResult:
    """Run every (regime, h, trial) cell of the plan.  Deterministic for a
    given plan; failed cells carry their identifiability report and do not
    stop the sweep."""
    master_sched, per_h = _grid(plan)
    spec0 = plan.scenario.spec
    master_spec = HybridModelSpec(schedule=master_sched, intervals=spec0.intervals)
    x0 = plan.scenario.x0
    theta_true = spec0.theta
    r0_true = np.array([reproduction_number(p) for p in spec0.intervals])

    clean_master: Trajectory | None = None
    if "noiseless" in plan.regimes or "observation" in plan.regimes:
        clean_master = simulate_ct(master_spec, x0)

    cells: list[StudyCell] = []
    for regime in plan.regimes:
        regime_cells = [
            StudyCell(regime=regime, h=h, theta_true=theta_true, r0_true=r0_true)
            for h in plan.h_values
        ]
        for trial in range(1 if regime == "noiseless" else plan.trials):
            master = clean_master
            if regime == "process":  # one stochastic path per trial, shared by every h
                seed = derive_seed(plan.seed, "process", trial)
                master = simulate_sde(master_spec, x0, seed=seed, sigma=plan.sigma)
            for cell in regime_cells:
                if cell.failed:  # its first failure ends the cell; seeds are per cell
                    continue
                sched_h, stride = per_h[cell.h]
                traj = master.subsample(stride, cell.h)
                if regime == "observation":
                    seed = derive_seed(plan.seed, "observation", _g17(cell.h), trial)
                    traj = add_observation_noise(traj, plan.sigma, seed)
                report, result = _fit(traj, sched_h)
                if result is None:
                    cell.failure = report
                    cell.theta_hats.clear()
                else:
                    cell.theta_hats.append(result.theta_hat)
        cells.extend(regime_cells)
    return NoiseStudyResult(plan=plan, cells=cells)


# --- real-data fitting ------------------------------------------------------


@dataclass
class HoldoutResult:
    cut_step: int
    horizon: int
    ok: bool
    identifiability: IdentifiabilityReport
    estimation: EstimationResult | None
    forecast_rmse_counts: float | None

    def to_dict(self) -> dict:
        return {
            "cut_step": self.cut_step,
            "horizon": self.horizon,
            "ok": self.ok,
            "identifiability": self.identifiability.to_dict(),
            "estimation": self.estimation.to_dict() if self.estimation else None,
            "forecast_rmse_counts": _json_float(self.forecast_rmse_counts),
        }


@dataclass
class FitReport:
    dataset: AlignedDataset
    ok: bool
    identifiability: IdentifiabilityReport
    estimation: EstimationResult | None = None
    rmse_counts: float | None = None
    per_interval_rmse_counts: tuple[float, ...] | None = None
    fitted: Scenario | None = None
    holdout: HoldoutResult | None = None

    def to_dict(self) -> dict:
        d = {
            "ok": self.ok,
            "population": self.dataset.population,
            "start_date": self.dataset.start_date.isoformat(),
            "h": self.dataset.schedule.step_size,
            "update_steps": list(self.dataset.schedule.update_steps),
            "final_step": self.dataset.schedule.final_step,
            "smoothed": self.dataset.smoothed,
            "identifiability": self.identifiability.to_dict(),
            "estimation": self.estimation.to_dict() if self.estimation else None,
            "rmse_counts": _json_float(self.rmse_counts),
            "per_interval_rmse_counts": (
                [_json_float(v) for v in self.per_interval_rmse_counts]
                if self.per_interval_rmse_counts is not None
                else None
            ),
            "fitted_scenario": scenario_to_dict(self.fitted) if self.fitted else None,
        }
        if self.holdout is not None:
            d["holdout"] = self.holdout.to_dict()
        return d


def run_realdata_study(dataset: AlignedDataset, holdout: int | None = None) -> FitReport:
    """Fit all intervals of an aligned dataset at once and score the fit.

    The fit quality score re-runs the sampled recursion from the first data
    point using only the estimated parameters, and reports root-mean-square
    deviation in user-count units, overall and per interval.

    With holdout = n, the same samples are fitted again against the prefix
    schedule that ends n steps early (releases falling inside the held-out
    tail are dropped, never invented), which reads only the samples up to
    the cut.  The held-out tail is forecast by continuing the last fitted
    interval's rates from the cut, and the tail RMSE is reported.  The
    prefix must itself pass the identifiability conditions or the holdout
    result is marked not ok.  holdout is checked before any fit.
    """
    traj = dataset.trajectory
    sched = dataset.schedule
    n = dataset.population
    if holdout is not None:
        holdout = _check_count(holdout, "holdout")
        cut = sched.final_step - holdout
        if cut < 2:
            raise ValueError(f"holdout {holdout} leaves no usable prefix (cut at step {cut})")
    report, result = _fit(traj, sched)
    if result is None:
        return FitReport(dataset=dataset, ok=False, identifiability=report)

    # the sampled recursion on the raw estimates: least-squares values may
    # leave the generative ranges, and the recursion is still defined there
    sim, _ = _recurse(sched, result.intervals_hat, traj.values[0], check=False)
    diff = (sim - traj.values) * n
    # interval i owns samples start..stop of its bounds row: a release sample opens it
    owner = np.repeat(np.arange(sched.n_intervals), sched.bounds[:, 1] - sched.bounds[:, 0] + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged refit scores inf or nan
        sq = diff**2
        rmse = float(np.sqrt(np.mean(sq)))
        # every interval owns at least its opening sample, so no count is zero
        per_interval = tuple(
            np.sqrt(np.bincount(owner, sq) / np.bincount(owner)).tolist()
        )
    fitted = None
    try:
        fitted = Scenario(
            spec=HybridModelSpec(schedule=sched, intervals=result.intervals_hat),
            x0=float(traj.values[0]),
            population=n,
        )
    except ValueError:
        pass  # estimates outside the generative ranges; raw theta still reported

    holdout_result = None
    if holdout is not None:
        prefix = UpdateSchedule(
            tuple(t for t in sched.update_steps if t < cut), cut, sched.step_size
        )
        prefix_report, prefix_result = _fit(traj, prefix)
        fc_rmse = None
        if prefix_result is not None:
            fc_arr, _ = _recurse(
                UpdateSchedule((), holdout, sched.step_size),
                prefix_result.intervals_hat[-1:],
                traj.values[cut],
                check=False,
            )
            tail = traj.values[cut : sched.final_step + 1]
            fc_rmse = float(np.sqrt(np.mean(((fc_arr[1:] - tail[1:]) * n) ** 2)))
        holdout_result = HoldoutResult(
            cut_step=cut,
            horizon=holdout,
            ok=prefix_result is not None,
            identifiability=prefix_report,
            estimation=prefix_result,
            forecast_rmse_counts=fc_rmse,
        )

    return FitReport(
        dataset=dataset,
        ok=True,
        identifiability=report,
        estimation=result,
        rmse_counts=rmse,
        per_interval_rmse_counts=per_interval,
        fitted=fitted,
        holdout=holdout_result,
    )
