import bisect
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridsis import (
    EstimationResult,
    HybridModelSpec,
    IntervalParams,
    RankDeficiencyWarning,
    Trajectory,
    UpdateSchedule,
    build_regression,
    check_identifiability,
    error_metrics,
    estimate,
    forecast,
    simulate_dt,
)
from hybridsis.estimate import _STACK_ROWS, RANK_RTOL
from hybridsis.model import theta_slice

from conftest import ROOT


def block(system, i):
    """Interval i's block of psi, in its last width columns (interval 0 has
    no release column), and its right-hand side: the release row start - 1
    (i >= 1), then the ordinary rows [start, stop) of schedule.bounds[i]."""
    start, stop = system.schedule.bounds[i].tolist()
    start -= i > 0
    cols = theta_slice(i)
    return system.psi[start:stop, -(cols.stop - cols.start) :], system.y[start:stop]


def test_regression_small_system_by_hand():
    # m=1, release at step 3, final step 5, h=0.5: rows 0-1 are interval-0
    # flow rows, row 2 is the release row, rows 3-4 are interval-1 flow rows
    sched = UpdateSchedule((3,), 5, 0.5)
    x = np.array([0.20, 0.30, 0.35, 0.50, 0.45, 0.40])
    traj = Trajectory(values=x, step_size=0.5)
    system = build_regression(traj, sched)
    # the system keeps the shares and schedule it was built from
    assert system.x is traj.values and system.schedule is sched

    np.testing.assert_array_equal(system.y, np.diff(x))
    # compact layout: row k = [release entry, h (1 - x) x, -h x]
    assert system.psi.shape == (5, 3)
    h = 0.5
    expected = np.zeros((5, 3))
    for k in (0, 1, 3, 4):
        expected[k, 1] = h * (1.0 - x[k]) * x[k]
        expected[k, 2] = -h * x[k]
    expected[2, 0] = x[2]
    np.testing.assert_array_equal(system.psi, expected)

    assert system.schedule.bounds.tolist() == [[0, 2], [3, 5]]  # blocks: rows 0-1, 2-4
    assert [theta_slice(i) for i in range(2)] == [slice(0, 2), slice(2, 5)]
    (a0, rhs0), (a1, rhs1) = block(system, 0), block(system, 1)
    np.testing.assert_array_equal(a0, expected[0:2, 1:3])
    np.testing.assert_array_equal(a1, expected[2:5, 0:3])
    np.testing.assert_array_equal(rhs0, system.y[0:2])
    np.testing.assert_array_equal(rhs1, system.y[2:5])


def test_regression_demo_shape(demo_scenario):
    spec = demo_scenario.spec
    traj = simulate_dt(spec, demo_scenario.x0)
    system = build_regression(traj, spec.schedule)
    assert system.y.shape == (150,)
    assert system.psi.shape == (150, 3)
    # blocks: rows 0-28, then 29-88 and 89-149, each opening with its release row
    assert system.schedule.bounds.tolist() == [[0, 29], [30, 89], [90, 150]]
    assert [theta_slice(i) for i in range(3)] == [slice(0, 2), slice(2, 5), slice(5, 8)]
    # release rows hold the pre-release share in the release column only
    for row in (29, 89):
        assert system.psi[row, 0] == traj.values[row]
        assert np.count_nonzero(system.psi[row]) == 1
    # and every other row leaves the release column empty
    assert np.count_nonzero(system.psi[:, 0]) == 2
    a2, rhs2 = block(system, 2)
    np.testing.assert_array_equal(a2, system.psi[89:150, 0:3])
    np.testing.assert_array_equal(rhs2, system.y[89:150])


def test_regression_no_updates():
    sched = UpdateSchedule((), 4, 1.0)
    x = np.array([0.2, 0.3, 0.4, 0.45, 0.5])
    system = build_regression(Trajectory(values=x, step_size=1.0), sched)
    assert system.psi.shape == (4, 3)
    assert not system.psi[:, 0].any()
    assert system.schedule.n_intervals == 1
    assert system.schedule.bounds.tolist() == [[0, 4]]
    assert block(system, 0)[0].shape == (4, 2)


def test_regression_is_compact_for_many_releases():
    # m=300 releases: Psi stays 3 columns wide instead of 2 + 3m
    sched = UpdateSchedule(tuple(range(10, 3010, 10)), 3010, 0.1)
    traj = Trajectory(values=np.linspace(0.1, 0.5, 3011), step_size=0.1)
    system = build_regression(traj, sched)
    assert system.psi.shape == (3010, 3)
    assert theta_slice(300).stop == 2 + 3 * 300
    assert system.schedule.bounds[300].tolist() == [3000, 3010]  # block: rows 2999-3009
    assert block(system, 300)[0].shape == (11, 3)


def test_regression_rejects_short_trajectory(demo_scenario):
    traj = Trajectory(values=np.linspace(0.1, 0.5, 100), step_size=1.0)
    with pytest.raises(ValueError, match="interval"):
        build_regression(traj, demo_scenario.spec.schedule)


def test_regression_rejects_step_size_mismatch(demo_scenario):
    traj = Trajectory(values=np.linspace(0.1, 0.5, 151), step_size=0.5)
    with pytest.raises(ValueError, match="step size"):
        build_regression(traj, demo_scenario.spec.schedule)


def test_estimate_recovers_dt_parameters(demo_scenario):
    spec = demo_scenario.spec
    traj = simulate_dt(spec, demo_scenario.x0)
    system = build_regression(traj, spec.schedule)
    result = estimate(system)
    rel = np.abs(result.theta_hat - spec.theta) / np.abs(spec.theta)
    assert rel.max() < 1e-10
    assert result.residual_norm < 1e-12
    assert result.unique
    assert result.block_ranks == (2, 3, 3)
    assert result.r0_hat[0] == pytest.approx(2.5, rel=1e-10)
    assert result.r0_hat[1] == pytest.approx(0.19 / 0.15, rel=1e-10)
    assert result.r0_hat[2] == pytest.approx(0.25 / 0.15, rel=1e-10)
    assert result.intervals_hat[1].alpha == pytest.approx(0.5, rel=1e-10)


def test_estimate_no_updates():
    spec = HybridModelSpec(
        UpdateSchedule((), 12, 1.0), (IntervalParams(beta=0.6, gamma=0.25),)
    )
    traj = simulate_dt(spec, 0.1)
    result = estimate(build_regression(traj, spec.schedule))
    np.testing.assert_allclose(result.theta_hat, [0.6, 0.25], rtol=1e-11)


def test_estimate_interval_without_rows_is_flagged():
    # release at step 1 leaves interval 0 with no flow rows at all
    sched = UpdateSchedule((1,), 5, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.5, gamma=0.2),
            IntervalParams(alpha=0.5, beta=0.3, gamma=0.1),
        ),
    )
    traj = simulate_dt(spec, 0.2)
    system = build_regression(traj, sched)
    with pytest.warns(RankDeficiencyWarning, match="interval 0"):
        result = estimate(system)
    assert not result.unique
    assert result.block_ranks[0] == 0
    np.testing.assert_array_equal(result.theta_hat[:2], [0.0, 0.0])
    # the identifiable block is still solved exactly
    np.testing.assert_allclose(result.theta_hat[2:], [0.5, 0.3, 0.1], rtol=1e-10)


def test_estimate_min_norm_on_degenerate_interval():
    sched = UpdateSchedule((), 4, 1.0)
    flat = Trajectory(values=np.full(5, 0.25), step_size=1.0)
    system = build_regression(flat, sched)
    with pytest.warns(RankDeficiencyWarning):
        result = estimate(system)
    assert not result.unique
    assert result.block_ranks == (1,)
    assert np.all(np.isfinite(result.theta_hat))


def test_shared_solve_matches_per_block_lstsq():
    # block lengths: interval 0 empty (release at step 1), a block that is only
    # its release row, many short blocks, one long block, one block longer than
    # the rows of one batched QR call; rank-deficient blocks come from a zero
    # pre-release share, a constant run and a single-flow-row interval
    rng = np.random.default_rng(3)
    gaps = [1, 1, *rng.integers(3, 9, size=60), 2, 1500, *rng.integers(3, 9, size=20)]
    steps = np.cumsum(gaps)
    final = int(steps[-1]) + _STACK_ROWS + 100
    sched = UpdateSchedule(tuple(int(t) for t in steps), final, 0.5)
    spec = HybridModelSpec(sched, (IntervalParams(beta=0.6, gamma=0.2),) + tuple(
        IntervalParams(alpha=a, beta=b, gamma=g)
        for a, b, g in zip(rng.uniform(-0.2, 0.2, sched.n_updates),
                           rng.uniform(0.2, 0.8, sched.n_updates),
                           rng.uniform(0.1, 0.5, sched.n_updates))
    ))
    x = simulate_dt(spec, 0.2).values.copy()
    x += rng.normal(0.0, 1e-3, x.size)  # an inconsistent system: nonzero residuals
    x[steps[10] - 1] = 0.0  # zero share entering release 11
    x[steps[20] : steps[21] - 1] = 0.3  # interval 21 constant
    traj = Trajectory(values=x, step_size=0.5)
    system = build_regression(traj, sched)

    blocks = range(sched.n_intervals)
    lengths = [len(block(system, i)[1]) for i in blocks]
    assert lengths[0] == 0 and lengths[1] == 1 and max(lengths) > _STACK_ROWS
    ref_theta = np.zeros(theta_slice(sched.n_updates).stop)
    ref_ranks, ref_sq = [], 0.0
    for i in blocks:
        a, rhs = block(system, i)
        sol, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=RANK_RTOL)
        ref_theta[theta_slice(i)] = sol
        ref_ranks.append(int(rank))
        ref_sq += float((rhs - a @ sol) @ (rhs - a @ sol))
    assert ref_ranks[0] == 0 and ref_ranks[11] < 3 and ref_ranks[21] < 3

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        result = estimate(system)
    assert result.block_ranks == tuple(ref_ranks)
    for i in blocks:
        want = ref_theta[theta_slice(i)]
        got = result.theta_hat[theta_slice(i)]
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
    assert result.residual_norm == pytest.approx(np.sqrt(ref_sq), rel=1e-12)
    report = check_identifiability(system)
    assert [c.rank for c in report.intervals] == ref_ranks


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 4),
    h=st.sampled_from([0.1, 0.5, 1.0]),
    x0=st.floats(0.01, 0.9),
)
def test_estimate_recovers_theta_property(seed, m, h, x0):
    # noiseless sampled data determine theta: each full-rank block recovers
    # its parameters to within rounding amplified by its condition number
    rng = np.random.default_rng(seed)
    seg = rng.integers(4, 21, size=m + 1)
    sched = UpdateSchedule(tuple(int(t) for t in np.cumsum(seg[:-1])), int(seg.sum()), h)
    rates = rng.uniform(0.05, 1.0, size=(m + 1, 2))
    intervals = [IntervalParams(beta=rates[0, 0], gamma=rates[0, 1])] + [
        IntervalParams(alpha=a, beta=b, gamma=g)
        for a, (b, g) in zip(rng.uniform(-0.5, 1.0, m), rates[1:])
    ]
    spec = HybridModelSpec(sched, tuple(intervals))
    try:
        traj = simulate_dt(spec, x0)
    except ValueError:
        assume(False)  # a release left [0, 1]
    system = build_regression(traj, sched)
    report = check_identifiability(system)
    assume(report.overall and report.psi_rank == report.required_rank)
    theta = estimate(system).theta_hat
    for i, c in enumerate(report.intervals):
        want = spec.theta[theta_slice(i)]
        err = np.abs(theta[theta_slice(i)] - want).max() / np.abs(want).max()
        assert err <= 1e-12 * c.condition


def test_identifiability_reports_conditioning():
    sched = UpdateSchedule((3,), 7, 1.0)
    x = np.array([0.2, 0.3, 0.35, 0.4, 0.4, 0.4, 0.4, 0.4])  # interval 1 constant
    traj = Trajectory(values=x, step_size=1.0)
    system = build_regression(traj, sched)
    report = check_identifiability(system)
    c0, c1 = report.intervals
    assert c0.condition == pytest.approx(np.linalg.cond(block(system, 0)[0]), rel=1e-12)
    assert np.isnan(c1.condition)  # rank deficient
    d = report.to_dict()["intervals"]
    assert d[0]["condition"] == c0.condition and d[1]["condition"] is None


def test_identifiability_demo_all_ok(demo_scenario):
    spec = demo_scenario.spec
    traj = simulate_dt(spec, demo_scenario.x0)
    system = build_regression(traj, spec.schedule)
    report = check_identifiability(system)
    assert report.overall
    assert report.psi_rank == 8 == report.required_rank
    assert report.failed_intervals() == ()
    for cond, want_rank in zip(report.intervals, (2, 3, 3)):
        assert cond.ok and cond.rank == want_rank
    d = report.to_dict()
    assert d["overall"] is True
    assert [c["interval"] for c in d["intervals"]] == [0, 1, 2]


def test_identifiability_zero_release_state():
    sched = UpdateSchedule((3,), 6, 1.0)
    x = np.array([0.2, 0.3, 0.0, 0.5, 0.45, 0.4, 0.35])  # share hits 0 at step 2
    traj = Trajectory(values=x, step_size=1.0)
    system = build_regression(traj, sched)
    report = check_identifiability(system)
    cond = report.intervals[1]
    assert not cond.jump_state_ok
    assert not report.overall
    assert report.psi_rank < report.required_rank
    assert report.failed_intervals() == (1,)


def test_identifiability_constant_segment():
    sched = UpdateSchedule((3,), 7, 1.0)
    x = np.array([0.2, 0.3, 0.35, 0.4, 0.4, 0.4, 0.4, 0.4])
    traj = Trajectory(values=x, step_size=1.0)
    system = build_regression(traj, sched)
    report = check_identifiability(system)
    cond = report.intervals[1]
    assert cond.length_ok and cond.jump_state_ok
    assert not cond.variation_ok
    assert report.psi_rank < report.required_rank


def test_identifiability_short_interval():
    # release gap of 2 leaves interval 1 a single flow row
    sched = UpdateSchedule((3, 5), 9, 1.0)
    x = np.linspace(0.2, 0.6, 10)
    traj = Trajectory(values=x, step_size=1.0)
    system = build_regression(traj, sched)
    report = check_identifiability(system)
    assert not report.intervals[1].length_ok
    assert report.intervals[0].ok and report.intervals[2].ok
    assert report.psi_rank < report.required_rank


def test_identifiability_two_states_must_be_nonzero_and_distinct():
    sched = UpdateSchedule((), 2, 1.0)

    def verdict(x0, x1):
        traj = Trajectory(values=np.array([x0, x1, 0.5]), step_size=1.0)
        system = build_regression(traj, sched)
        return check_identifiability(system).intervals[0].variation_ok

    assert verdict(0.2, 0.4)
    assert not verdict(0.3, 0.3)
    assert not verdict(0.0, 0.4)  # only one usable share


def test_estimation_is_blockwise_local(demo_scenario):
    spec = demo_scenario.spec
    base = simulate_dt(spec, demo_scenario.x0)
    bumped_intervals = (
        spec.intervals[0],
        spec.intervals[1],
        IntervalParams(alpha=-0.1, beta=0.4, gamma=0.05),
    )
    bumped = simulate_dt(
        HybridModelSpec(spec.schedule, bumped_intervals), demo_scenario.x0
    )
    assert np.array_equal(base.values[:90], bumped.values[:90])

    ta = estimate(build_regression(base, spec.schedule)).theta_hat
    tb = estimate(build_regression(bumped, spec.schedule)).theta_hat
    np.testing.assert_array_equal(ta[:5], tb[:5])  # blocks 0 and 1 untouched
    assert not np.allclose(ta[5:], tb[5:])


def test_estimate_scales_with_step_size(demo_scenario):
    # relabeling the same samples with a doubled step halves the rate
    # estimates and leaves the release scale alone
    spec = demo_scenario.spec
    traj = simulate_dt(spec, demo_scenario.x0)
    sched2 = UpdateSchedule((30, 90), 150, 2.0)
    traj2 = Trajectory(values=traj.values, step_size=2.0)
    theta1 = estimate(build_regression(traj, spec.schedule)).theta_hat
    theta2 = estimate(build_regression(traj2, sched2)).theta_hat
    scale = np.array([2, 2, 1, 2, 2, 1, 2, 2], dtype=float)
    np.testing.assert_allclose(theta2 * scale, theta1, rtol=1e-9)


def test_error_metrics_examples():
    truth = HybridModelSpec(
        UpdateSchedule((), 5, 1.0), (IntervalParams(beta=0.5, gamma=0.2),)
    )
    result = EstimationResult(
        theta_hat=np.array([0.55, 0.22267]),
        intervals_hat=(IntervalParams(beta=0.55, gamma=0.22267),),
        r0_hat=(0.55 / 0.22267,),
        residual_norm=0.0,
        block_ranks=(2,),
        unique=True,
    )
    metrics = error_metrics(result, truth)
    by_name = {e["name"]: e for e in metrics["params"]}
    assert by_name["beta0"]["error"] == pytest.approx(0.1)
    assert by_name["beta0"]["relative"] is True
    assert metrics["r0"][0]["name"] == "r0_0"
    assert metrics["r0"][0]["error"] == pytest.approx(abs(0.55 / 0.22267 - 2.5) / 2.5)

    with pytest.raises(ValueError, match="parameters"):
        error_metrics(result, HybridModelSpec(
            UpdateSchedule((2,), 5, 1.0),
            (
                IntervalParams(beta=0.5, gamma=0.2),
                IntervalParams(alpha=0.1, beta=0.3, gamma=0.1),
            ),
        ))


def test_error_metrics_zero_truth_is_absolute():
    truth = HybridModelSpec(
        UpdateSchedule((), 5, 1.0), (IntervalParams(beta=0.5, gamma=0.0),)
    )
    result = EstimationResult(
        theta_hat=np.array([0.5, 0.01]),
        intervals_hat=(IntervalParams(beta=0.5, gamma=0.01),),
        r0_hat=(50.0,),
        residual_norm=0.0,
        block_ranks=(2,),
        unique=True,
    )
    metrics = error_metrics(result, truth)
    gamma_entry = [e for e in metrics["params"] if e["name"] == "gamma0"][0]
    assert gamma_entry["relative"] is False
    assert gamma_entry["error"] == pytest.approx(0.01)
    # true r0 is undefined at gamma=0; the entry degrades to absolute-vs-nan,
    # which is null in JSON
    assert metrics["r0"][0]["relative"] is False
    assert metrics["r0"][0]["true"] is None and metrics["r0"][0]["error"] is None


def test_forecast_single_step():
    spec = HybridModelSpec(
        UpdateSchedule((), 5, 1.0), (IntervalParams(beta=0.5, gamma=0.2),)
    )
    traj = forecast(spec, 0.5, 1)
    assert len(traj) == 2
    assert traj.values[1] == pytest.approx(0.525, rel=1e-14)


def test_forecast_reproduces_dt_run(demo_scenario):
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    fc = forecast(spec, demo_scenario.x0, spec.schedule.final_step)
    assert np.array_equal(fc.values, dt_traj.values)


@pytest.mark.parametrize(
    "horizon",
    [
        5,
        30,  # the release at 30 lands on the last forecast sample
        31,  # one flow step after it
        89,
        90,  # the release at 90 on the last sample, the one at 30 inside
    ],
)
def test_forecast_is_a_prefix_of_the_dt_run(demo_scenario, horizon):
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    fc = forecast(spec, demo_scenario.x0, horizon)
    assert np.array_equal(fc.values, dt_traj.values[: horizon + 1])


def _from_sample(spec, start):
    """spec renumbered so that sample `start` is sample 0: the releases after
    it and the intervals from the one open at it, whose release (if any) has
    already happened and so carries no alpha."""
    sched = spec.schedule
    first = bisect.bisect_right(sched.update_steps, start)
    shifted = UpdateSchedule(
        tuple(t - start for t in sched.update_steps[first:]),
        sched.final_step - start,
        sched.step_size,
    )
    opening = IntervalParams(beta=spec.intervals[first].beta, gamma=spec.intervals[first].gamma)
    return HybridModelSpec(shifted, (opening, *spec.intervals[first + 1 :]))


@pytest.mark.parametrize(
    "start_step, horizon",
    [
        (0, 150),
        (29, 5),
        (80, 10),  # the release at 90 lands on the last forecast sample
        (90, 7),  # starts on the release sample
        (50, 40),
    ],
)
def test_forecast_mid_schedule_start(demo_scenario, start_step, horizon):
    # a forecast from a later sample runs on the schedule renumbered from it
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    tail = _from_sample(spec, start_step)
    fc = forecast(tail, float(dt_traj.values[start_step]), horizon)
    assert np.array_equal(fc.values, dt_traj.values[start_step : start_step + horizon + 1])


def test_forecast_beyond_schedule():
    spec = HybridModelSpec(
        UpdateSchedule((), 5, 1.0), (IntervalParams(beta=0.5, gamma=0.2),)
    )
    extended = forecast(spec, 0.5, 10)
    assert len(extended) == 11  # keeps flowing with the last interval's rates


def test_forecast_validation(demo_scenario):
    spec = demo_scenario.spec
    with pytest.raises(ValueError):
        forecast(spec, 0.5, 0)
    with pytest.raises(ValueError):
        forecast(spec, 1.5, 3)


def test_regression_bench_runs_at_toy_size(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--layers", "regression",
                    "--reps", "1", "--shapes", "2:2000,5:4000", "--out", str(out),
                    f"here={ROOT / 'src'}"], check=True)
    report = json.loads(out.read_text())
    want = ["regression,m=2,n=2000", "regression,m=5,n=4000"]
    assert sorted(report["cells"]) == sorted(report["peak_mib"]) == want
    assert all(set(cell) == {"here"} and cell["here"] > 0 for cell in report["cells"].values())
    assert all(set(cell) == {"here"} and cell["here"] > 0 for cell in report["peak_mib"].values())
    assert report["layer"] == "regression"
    assert set(report) == {"layer", "unit", "statistic", "cells", "peak_mib", "env"}
