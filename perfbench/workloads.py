"""Workload inputs and passes for the hybridsis benchmark.

Inputs are generated here, from the benchmark seed, with numpy and the
standard library only: the program under test receives nothing but the
files written by make_inputs.  A pass drives hybridsis.cli.main(argv)
in-process, checks every output, and returns one Op per CLI call.

Workloads (sizes are the full ones; toy=True shrinks every size so a test can
run each workload end to end in a second or two):

  study          hybridsis study on the bundled two-release scenario with the
                 default plan: 3 regimes x 6 step sizes x 32 trials.
  fit_catalog    hybridsis fit on 100 synthetic 4-year daily series,
                 N = 1e6, a release about every 30 days.
  fit_smooth7    the same catalog, every series fitted with --smooth7.
  many_releases  simulate --mode dt -> estimate --truth -> forecast,
                 n = 1e5 samples, m = 300 releases, h = 0.01.

fit_smooth7 is not one of BENCHMARK.json's workloads: fit --smooth7 exits 0
with ok true but prints a bare NaN for rmse_counts on most series (72 to 82 of
the 100 on each of seeds 1 to 8), and its fail ratio counts that.  A long-horizon
pipeline (n = 5e5, m = 2, horizon 5e5) is not a workload either: on a shared
2-vCPU host its median pass time spread by 0.29 of its median over ten 45 s
runs, more than the largest bound allowed.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("study", "fit_catalog", "fit_smooth7", "many_releases")

# scenarios/two_updates.json, kept here so that editing the repo's example
# scenario does not change the benchmark's input
TWO_UPDATES = {
    "h": 1.0,
    "update_steps": [30, 90],
    "final_step": 150,
    "intervals": [
        {"beta": 0.5, "gamma": 0.2},
        {"alpha": 0.5, "beta": 0.19, "gamma": 0.15},
        {"alpha": -0.3, "beta": 0.25, "gamma": 0.15},
    ],
    "x0": 0.05,
}

POPULATION = 1_000_000
# acceptance criterion 1: exact recovery from noiseless sampled data
MAX_REL_ERROR = 1e-8

# (samples, releases, step size, forecast horizon) of many_releases
PIPELINE_SIZE = (100_000, 300, 0.01, 100_000)
TOY_PIPELINE_SIZE = (2_000, 20, 0.01, 2_000)
# (series, days per series, mean days between releases)
CATALOG_SIZE = (100, 1461, 30)
TOY_CATALOG_SIZE = (4, 240, 30)


@dataclass
class Op:
    """One CLI call: its arguments, wall time, and the first check it failed
    (None when every check passed)."""

    argv: list[str]
    seconds: float
    error: str | None = None


class CheckFailed(Exception):
    pass


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = hashlib.sha256(f"{int(seed)}:{workload}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(key[:8], "big")))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _logistic(x0: float, beta: float, gamma: float, t: float) -> float:
    """Share after time t under the continuous SIS flow, for beta > gamma
    (exact solution, written so that large t cannot overflow)."""
    k = 1.0 - gamma / beta
    return k * x0 / (x0 + (k - x0) * math.exp(-(beta - gamma) * t))


def _jump_alpha(rng: np.random.Generator, x_pre: float) -> float:
    """A release effect drawn from U(-0.4, 0.6), pulled in where it would
    push the share outside [0.03, 0.85]."""
    target = min(0.85, max(0.03, (1.0 + rng.uniform(-0.4, 0.6)) * x_pre))
    return target / x_pre - 1.0


def _scenario(rng: np.random.Generator, samples: int, releases: int, h: float) -> dict:
    """A random scenario with evenly spread, jittered releases.  Release
    effects are chosen against the continuous flow, which the sampled model
    tracks to O(h), with enough margin that no release leaves [0, 1]."""
    final = samples - 1
    gap = final / (releases + 1)
    jitter = int(gap // 4)
    steps = [
        int(round(gap * (i + 1))) + int(rng.integers(-jitter, jitter + 1))
        for i in range(releases)
    ]
    x0 = float(rng.uniform(0.02, 0.1))
    intervals = []
    x = x0
    bounds = [0] + steps + [final]
    for i in range(releases + 1):
        beta = float(rng.uniform(0.3, 1.0))
        gamma = beta / float(rng.uniform(1.5, 4.0))
        if i == 0:
            intervals.append({"beta": beta, "gamma": gamma})
        else:
            alpha = _jump_alpha(rng, x)
            x *= 1.0 + alpha
            intervals.append({"alpha": alpha, "beta": beta, "gamma": gamma})
        x = _logistic(x, beta, gamma, h * (bounds[i + 1] - bounds[i] - 1))
    return {"h": h, "update_steps": steps, "final_step": final, "intervals": intervals, "x0": x0}


def _daily_series(rng: np.random.Generator, days: int, release_gap: int):
    """One synthetic player-count history: the continuous flow sampled once a
    day, with release jumps, rounded to whole players."""
    releases = []
    day = release_gap + int(rng.integers(-5, 6))
    while day < days - release_gap:
        releases.append(day)
        day += release_gap + int(rng.integers(-5, 6))
    x = float(rng.uniform(0.02, 0.2))
    beta = float(rng.uniform(0.1, 0.5))
    gamma = beta / float(rng.uniform(1.3, 3.0))
    shares = np.empty(days)
    shares[0] = x
    next_release = dict.fromkeys(releases)
    for k in range(1, days):
        if k in next_release:
            x *= 1.0 + _jump_alpha(rng, x)
            beta = float(rng.uniform(0.1, 0.5))
            gamma = beta / float(rng.uniform(1.3, 3.0))
        else:
            x = _logistic(x, beta, gamma, 1.0)
        shares[k] = x
    return np.rint(shares * POPULATION).astype(np.int64), releases


def make_inputs(workload: str, seed: int, work: Path, toy: bool = False) -> dict:
    """Write the workload's input files under work and return what a pass
    needs to drive and check them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # both fit workloads read the same catalog
    rng = _rng(seed, "fit_catalog" if workload == "fit_smooth7" else workload)
    work.mkdir(parents=True, exist_ok=True)

    if workload == "study":
        plan = {"scenario": TWO_UPDATES, "seed": int(rng.integers(0, 2**31))}
        if toy:
            plan.update(trials=2, h_values=[1.0, 0.5])
        _write_json(work / "plan.json", plan)
        return {"plan": work / "plan.json", "out": work / "study_out"}

    if workload in ("fit_catalog", "fit_smooth7"):
        n_series, days, release_gap = TOY_CATALOG_SIZE if toy else CATALOG_SIZE
        start = dt.date(2016, 1, 1) + dt.timedelta(days=int(rng.integers(0, 365)))
        dates = [(start + dt.timedelta(days=k)).isoformat() for k in range(days)]
        series = []
        for j in range(n_series):
            counts, releases = _daily_series(rng, days, release_gap)
            data = work / f"series_{j:03d}.csv"
            data.write_text(
                "date,peak_players\n"
                + "".join(f"{d},{c}\n" for d, c in zip(dates, counts.tolist())),
                encoding="utf-8",
            )
            release_dates = [dates[k] for k in releases]
            # both release-file formats that load_update_dates reads
            if j % 2:
                updates = work / f"releases_{j:03d}.json"
                updates.write_text(json.dumps(release_dates) + "\n", encoding="utf-8")
            else:
                updates = work / f"releases_{j:03d}.txt"
                updates.write_text("\n".join(release_dates) + "\n", encoding="utf-8")
            series.append((data, updates))
        return {"series": series, "smooth7": workload == "fit_smooth7"}

    samples, releases, h, horizon = TOY_PIPELINE_SIZE if toy else PIPELINE_SIZE
    scenario = _scenario(rng, samples, releases, h)
    _write_json(work / "scenario.json", scenario)
    return {
        "scenario": work / "scenario.json",
        "x0": scenario["x0"],
        "horizon": horizon,
        "traj": work / "traj.csv",
        "params": work / "fitted.json",
    }


# --- passes -----------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which strict JSON forbids."""
    return json.loads(text, parse_constant=_reject_constant)


def _op(ops: list[Op], main, argv: list[str], check=None):
    """Run one CLI call and its output check, recording the outcome in ops.
    Returns the check's value (True without a check), or None when the call
    or its check failed."""
    op = Op(argv=argv, seconds=0.0)
    ops.append(op)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash inside the program is a failed operation
        op.seconds = time.perf_counter() - t0
        op.error = f"raised {type(exc).__name__}: {exc}"
        return None
    op.seconds = time.perf_counter() - t0
    try:
        _check(code == 0, f"exit code {code}: {err.getvalue().strip()[-200:]}")
        return check(out.getvalue()) if check else True
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
        return None


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _study_outputs(out: Path) -> str:
    digest = hashlib.sha256()
    for name in ("params.csv", "r0.csv", "summary.json"):
        digest.update((out / name).read_bytes())
    summary = strict_json((out / "summary.json").read_text(encoding="utf-8"))
    failed = [c for c in summary["cells"] if c["failed"]]
    _check(not failed, f"{len(failed)} failed study cells")
    return digest.hexdigest()


def _fit_check(stdout: str) -> None:
    report = strict_json(stdout)
    _check(report["ok"] is True, "fit reported ok = false")
    rmse = report["rmse_counts"]
    _check(isinstance(rmse, (int, float)) and math.isfinite(rmse), f"rmse_counts {rmse!r}")


def _estimate_check(stdout: str) -> dict:
    out = strict_json(stdout)
    errors = [e["error"] for e in out["errors"]["params"]]
    _check(all(e is not None for e in errors), "parameter error is not finite")
    worst = max(errors)
    _check(worst <= MAX_REL_ERROR, f"max parameter error {worst:.3g} > {MAX_REL_ERROR}")
    return out


def _forecast_check(horizon: int):
    def check(stdout: str) -> None:
        rows = stdout.count("\n") - 1  # minus the header
        _check(rows == horizon + 1, f"forecast has {rows} rows, expected {horizon + 1}")

    return check


def run_pass(workload: str, inputs: dict, main, state: dict) -> list[Op]:
    """One full pass of the workload's CLI calls.  state carries what later
    passes of the same run are checked against."""
    ops: list[Op] = []

    if workload == "study":
        out = inputs["out"]
        argv = ["study", "--plan", str(inputs["plan"]), "--out-dir", str(out)]
        digest = _op(ops, main, argv, lambda _: _study_outputs(out))
        if digest is not None:
            first = state.setdefault("study_digest", digest)
            if digest != first:
                ops[-1].error = "study outputs differ from the first pass"
        return ops

    if workload in ("fit_catalog", "fit_smooth7"):
        for data, updates in inputs["series"]:
            argv = ["fit", "--data", str(data), "--updates", str(updates),
                    "--population", str(POPULATION)]
            if inputs["smooth7"]:
                argv.append("--smooth7")
            _op(ops, main, argv, _fit_check)
        return ops

    scenario, traj, params = inputs["scenario"], inputs["traj"], inputs["params"]
    argv = ["simulate", "--scenario", str(scenario), "--mode", "dt", "--out", str(traj)]
    if _op(ops, main, argv) is None:
        return ops
    argv = ["estimate", "--traj", str(traj), "--schedule", str(scenario), "--truth", str(scenario)]
    fitted = _op(ops, main, argv, _estimate_check)
    if fitted is None:
        return ops
    sched = strict_json(Path(scenario).read_text(encoding="utf-8"))
    sched.update(intervals=fitted["intervals"])
    _write_json(params, sched)
    argv = ["forecast", "--params", str(params), "--x0", repr(inputs["x0"]),
            "--horizon", str(inputs["horizon"])]
    _op(ops, main, argv, _forecast_check(inputs["horizon"]))
    return ops
