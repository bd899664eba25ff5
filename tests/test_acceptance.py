"""Acceptance gate.

One test per shipped guarantee.  Each test measures the quantity it
guarantees, prints a single PASS/FAIL line with the measured value against
the pinned tolerance, and then asserts.  The lines are echoed again in the
terminal summary (see conftest) so a plain pytest run shows every verdict.
"""

import datetime as dt
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np

from hybridsis import (
    AlignedDataset,
    ExperimentPlan,
    HybridModelSpec,
    IntervalParams,
    SimulationConfig,
    Trajectory,
    UpdateSchedule,
    align,
    build_regression,
    check_identifiability,
    estimate,
    load_series,
    run_noise_study,
    run_realdata_study,
    simulate_dt,
    simulate_sde,
)
from hybridsis.simulate import _recurse

from conftest import ACCEPTANCE_LINES


def report(ok: bool, text: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {text}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def random_identifiable_scenarios(seed: int, count: int):
    """Random jump-SIS scenarios whose sampled data determine the parameters.

    Draws are rejected when the jump leaves the unit interval, when the
    solvability conditions fail, or when the numeric rank of the regression
    falls short of full (possible in the tolerance gap between the exact
    conditions and floating-point rank for near-degenerate draws).
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        m = int(rng.integers(0, 4))
        h = float(rng.choice((0.1, 0.5, 1.0)))
        seg_lens = [int(v) for v in rng.integers(4, 21, size=m + 1)]
        update_steps = []
        acc = 0
        for seg in seg_lens[:-1]:
            acc += seg
            update_steps.append(acc)
        final = acc + seg_lens[-1]
        intervals = [
            IntervalParams(beta=float(rng.uniform(0.05, 1.0)),
                           gamma=float(rng.uniform(0.05, 1.0)))
        ]
        for _ in range(m):
            intervals.append(
                IntervalParams(alpha=float(rng.uniform(-0.5, 1.0)),
                               beta=float(rng.uniform(0.05, 1.0)),
                               gamma=float(rng.uniform(0.05, 1.0)))
            )
        spec = HybridModelSpec(
            UpdateSchedule(tuple(update_steps), final, h), tuple(intervals)
        )
        x0 = float(rng.uniform(0.01, 0.9))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                traj = simulate_dt(spec, x0)
        except ValueError:
            continue  # a jump left the unit interval
        system = build_regression(traj, spec.schedule)
        rep = check_identifiability(system)
        if not rep.overall or rep.psi_rank != rep.required_rank:
            continue
        yield spec, system
        made += 1


def test_exact_recovery_on_random_scenarios():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_res = 0.0
    for spec, system in random_identifiable_scenarios(20260818, 50):
        est = estimate(system)
        rel = float(np.max(np.abs(est.theta_hat - spec.theta) / np.abs(spec.theta)))
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, float(est.residual_norm))
    wall = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_res <= 1e-10 and wall < 5.0
    report(ok, "criterion 1 (exact recovery on 50 random scenarios): "
               f"max param rel err {worst_rel:.2e} (tol 1e-08), "
               f"max residual {worst_res:.2e} (tol 1e-10), {wall:.2f}s (budget 5s)")
    assert ok


def test_noiseless_bias_shrinks_with_step_size(demo_scenario):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        scenario=demo_scenario,
        regimes=("noiseless",),
        h_values=(1.0, 0.5, 0.2, 0.1, 0.05),
        fine_substeps=10,
    )
    result = run_noise_study(plan)
    worst = [
        float(result.cell("noiseless", h).r0_rel_errors().max())
        for h in plan.h_values
    ]
    wall = time.perf_counter() - t0
    shrinks = all(worst[i + 1] <= worst[i] + 1e-12 for i in range(len(worst) - 1))
    ok = worst[0] <= 0.0175 and shrinks and wall < 10.0
    seq = ", ".join(f"{w:.4f}" for w in worst)
    report(ok, "criterion 2 (sampling bias): worst-interval R0 err per h "
               f"[{seq}] with {worst[0]:.4f} at h=1 (tol 0.0175), "
               f"non-increasing={shrinks}, {wall:.1f}s (budget 10s)")
    assert ok


def test_observation_noise_medians(demo_scenario):
    t0 = time.perf_counter()
    plan = ExperimentPlan(scenario=demo_scenario, regimes=("observation",))
    result = run_noise_study(plan)
    med = {h: float(np.median(result.cell("observation", h).r0_rel_errors()))
           for h in plan.h_values}
    mx = {h: float(np.max(result.cell("observation", h).r0_rel_errors()))
          for h in plan.h_values}
    wall = time.perf_counter() - t0
    worst_h = max(med, key=med.get)
    ok = med[worst_h] < 0.08 and wall < 60.0
    report(ok, "criterion 3 (observation noise, sigma=0.02, 32 trials): "
               f"pooled median R0 err {med[worst_h]:.4f} at h={worst_h} "
               f"(tol 0.08 at every h in {list(plan.h_values)}), "
               f"{wall:.1f}s (budget 60s)")
    flagged = [h for h in plan.h_values if mx[h] > 0.16]
    if flagged:
        line = (f"NOTE criterion 3: single-trial max R0 err exceeds 0.16 at "
                f"h={flagged} (overall max {max(mx.values()):.3f}); medians in bound")
        print(line)
        ACCEPTANCE_LINES.append(line)
    assert ok


def test_process_noise_medians(demo_scenario):
    t0 = time.perf_counter()
    plan = ExperimentPlan(scenario=demo_scenario, regimes=("process",))
    result = run_noise_study(plan)
    param_med = {h: float(np.median(result.cell("process", h).param_rel_errors()))
                 for h in plan.h_values}
    r0_med = {h: float(np.median(result.cell("process", h).r0_rel_errors()))
              for h in plan.h_values}
    wall = time.perf_counter() - t0
    worst_p = max(param_med, key=param_med.get)
    worst_r = max(r0_med, key=r0_med.get)
    ok = param_med[worst_p] <= 0.5 and r0_med[worst_r] <= 0.04 and wall < 60.0
    report(ok, "criterion 4 (demand noise, sigma=0.02, 32 trials): pooled median "
               f"param err {param_med[worst_p]:.4f} at h={worst_p} (tol 0.5), "
               f"pooled median R0 err {r0_med[worst_r]:.4f} at h={worst_r} (tol 0.04), "
               f"{wall:.1f}s (budget 60s)")
    assert ok


def test_condition_check_matches_numeric_rank():
    rng = np.random.default_rng(97)
    kinds: Counter = Counter()
    verdicts: Counter = Counter()
    agreements = 0
    cases = 200
    for _ in range(cases):
        m = int(rng.integers(0, 4))
        seg_lens = [int(v) for v in rng.integers(2, 9, size=m + 1)]
        update_steps = []
        acc = 0
        for seg in seg_lens[:-1]:
            acc += seg
            update_steps.append(acc)
        sched = UpdateSchedule(tuple(update_steps), acc + seg_lens[-1], 1.0)
        x = rng.uniform(0.05, 0.95, size=sched.n_samples)
        kind = "clean"
        for i in range(1, m + 1):
            r = rng.random()
            if r < 0.2:
                x[sched.jump_step(i) - 1] = 0.0  # dead state entering a release
                kind = "zero_jump"
            elif r < 0.4:
                ks = sched.sis_index_range(i)
                x[ks.start : ks.stop] = 0.37  # no variation inside the interval
                kind = "const_seg"
        if kind == "clean" and any(
            len(sched.sis_index_range(i)) < 2 for i in range(m + 1)
        ):
            kind = "short"
        traj = Trajectory(values=x, step_size=1.0)
        rep = check_identifiability(build_regression(traj, sched))
        numeric_full = rep.psi_rank == rep.required_rank
        agreements += rep.overall == numeric_full
        kinds[kind] += 1
        verdicts[rep.overall] += 1
    ok = (
        agreements == cases
        and kinds["zero_jump"] >= 10
        and kinds["const_seg"] >= 10
        and kinds["short"] >= 5
        and verdicts[True] > 0
        and verdicts[False] > 0
    )
    report(ok, f"criterion 5 (solvability conditions vs numeric rank): "
               f"{agreements}/{cases} agree, case mix {dict(kinds)}, "
               f"verdicts {dict(verdicts)}")
    assert ok


def test_two_sample_rank_law_exact():
    # with exactly two ordinary rows the regression block for an interval is
    # 2x2 and its determinant factors as h^2 * x1 * x2 * (x1 - x2)
    h = Fraction(1)
    sched = UpdateSchedule((), 2, 1.0)
    grid = 50
    identity_failures = 0
    verdict_failures = 0
    for i in range(grid):
        for j in range(grid):
            x1 = Fraction(i, grid - 1)
            x2 = Fraction(j, grid - 1)
            det = (h * (1 - x1) * x1) * (-h * x2) - (-h * x1) * (h * (1 - x2) * x2)
            if det != h * h * x1 * x2 * (x1 - x2):
                identity_failures += 1
                continue
            traj = Trajectory(
                values=np.array([i / (grid - 1), j / (grid - 1), 0.5]),
                step_size=1.0,
            )
            rep = check_identifiability(build_regression(traj, sched))
            solvable = det != 0
            if not (
                rep.intervals[0].variation_ok == solvable
                and (rep.intervals[0].rank == 2) == solvable
                and rep.overall == solvable
            ):
                verdict_failures += 1
    ok = identity_failures == 0 and verdict_failures == 0
    report(ok, f"criterion 6 (two-sample determinant law): det = h^2*x1*x2*(x1-x2) "
               f"on all {grid * grid} exact grid points "
               f"({identity_failures} identity / {verdict_failures} verdict failures)")
    assert ok


def test_zero_noise_path_equals_euler_path(demo_scenario):
    spec = demo_scenario.spec
    x0 = demo_scenario.x0
    same = True
    for sub in (1, 5):
        noisy_cfg = SimulationConfig(seed=123, sigma=0.0, fine_substeps=sub)
        a = simulate_sde(spec, x0, noisy_cfg)
        b, _ = _recurse(spec.schedule, spec.intervals, x0, substeps=sub)
        same = same and bool(np.array_equal(a.values, b))
    report(same, "criterion 7 (zero-noise collapse): sigma=0 stochastic path is "
                 "bitwise equal to the Euler path at substeps 1 and 5")
    assert same


def count_pipeline_spec():
    sched = UpdateSchedule((30, 70), 120, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.5, gamma=0.2),
            IntervalParams(alpha=0.5, beta=0.19, gamma=0.15),
            IntervalParams(alpha=-0.3, beta=0.25, gamma=0.15),
        ),
    )
    return sched, spec


def test_count_pipeline_fit_and_forecast(tmp_path):
    sched, spec = count_pipeline_spec()
    n = 1_000_000
    values = simulate_dt(spec, 0.05).values
    start = dt.date(2024, 1, 1)

    dataset = AlignedDataset(
        trajectory=Trajectory(values=values, step_size=1.0, population=n),
        schedule=sched,
        population=n,
        start_date=start,
    )
    rep = run_realdata_study(dataset, holdout=20)
    float_ok = (
        rep.ok
        and rep.rmse_counts <= 1e-3
        and rep.holdout is not None
        and rep.holdout.ok
        and rep.holdout.forecast_rmse_counts <= 1e-3
    )

    # same data quantized to whole players, through the CSV loaders
    counts = np.rint(values * n).astype(int)
    data = tmp_path / "players.csv"
    data.write_text(
        "date,peak_players\n"
        + "".join(
            f"{start + dt.timedelta(days=i)},{c}\n" for i, c in enumerate(counts)
        )
    )
    series = load_series(data)
    update_dates = [start + dt.timedelta(days=30), start + dt.timedelta(days=70)]
    rep2 = run_realdata_study(align(series, update_dates, n))
    csv_ok = rep2.ok and np.isfinite(rep2.rmse_counts) and rep2.rmse_counts < 5.0

    ok = float_ok and csv_ok
    report(ok, "criterion 8 (count-data pipeline): exact-share fit RMSE "
               f"{rep.rmse_counts:.2e} counts (tol 1e-3), holdout forecast RMSE "
               f"{rep.holdout.forecast_rmse_counts:.2e} (tol 1e-3); rounded-CSV "
               f"fit RMSE {rep2.rmse_counts:.3f} counts (must be finite)")
    assert ok
