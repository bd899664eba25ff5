import csv
import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

import hybridsis.experiments as experiments
from hybridsis import (
    AlignedDataset,
    ExperimentPlan,
    HybridModelSpec,
    IntervalParams,
    Scenario,
    Trajectory,
    UpdateSchedule,
    derive_seed,
    load_plan,
    run_noise_study,
    run_realdata_study,
    simulate_dt,
)

from conftest import SCENARIO_PATH, study_cell


def small_plan(scenario, **kw):
    defaults = dict(
        regimes=("noiseless", "observation"),
        h_values=(1.0, 0.5),
        trials=4,
        fine_substeps=2,
    )
    defaults.update(kw)
    return ExperimentPlan(scenario=scenario, **defaults)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(0, "observation", "1", 3)
    assert a == derive_seed(0, "observation", "1", 3)
    assert a != derive_seed(0, "observation", "1", 4)
    assert a != derive_seed(1, "observation", "1", 3)
    assert 0 <= a < 2**64


def test_plan_validation(demo_scenario):
    with pytest.raises(ValueError, match="regime"):
        ExperimentPlan(scenario=demo_scenario, regimes=("bogus",))
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentPlan(scenario=demo_scenario, h_values=(1.0, 1.0))
    with pytest.raises(ValueError, match="trials"):
        ExperimentPlan(scenario=demo_scenario, trials=0)
    with pytest.raises(ValueError, match="at least one regime"):
        ExperimentPlan(scenario=demo_scenario, regimes=())
    with pytest.raises(ValueError, match="duplicate regimes"):
        ExperimentPlan(scenario=demo_scenario, regimes=("noiseless", "noiseless"))
    with pytest.raises(ValueError, match="at least one step size"):
        ExperimentPlan(scenario=demo_scenario, h_values=())
    with pytest.raises(ValueError, match=r"^step size must be positive and finite, got 0\.0$"):
        ExperimentPlan(scenario=demo_scenario, h_values=(1.0, 0.0))
    with pytest.raises(ValueError, match=r"^sigma must be finite and non-negative, got -0\.01$"):
        ExperimentPlan(scenario=demo_scenario, sigma=-0.01)
    with pytest.raises(ValueError, match="fine_substeps must be >= 1"):
        ExperimentPlan(scenario=demo_scenario, fine_substeps=0)
    with pytest.raises(ValueError, match="master grid|not close to an integer|integer"):
        ExperimentPlan(scenario=demo_scenario, h_values=(0.7,))
    # a release at t = 30.5 lies on the grid of h = 0.5 but not on that of h = 1
    odd = Scenario(
        spec=HybridModelSpec(UpdateSchedule((61, 181), 300, 0.5), demo_scenario.spec.intervals),
        x0=demo_scenario.x0,
    )
    assert ExperimentPlan(scenario=odd, h_values=(0.5,), fine_substeps=1)
    with pytest.raises(ValueError, match=r"master step 61 misses the grid of step 1\.0"):
        ExperimentPlan(scenario=odd, h_values=(1.0, 0.5), fine_substeps=1)


def test_plan_json_roundtrip(tmp_path):
    scen = json.loads(SCENARIO_PATH.read_text())
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "scenario": scen,
                "regimes": ["noiseless"],
                "h_values": [1.0, 0.5],
                "trials": 2,
                "seed": 9,
                "fine_substeps": 2,
            }
        )
    )
    plan = load_plan(plan_path)
    assert plan.regimes == ("noiseless",)
    assert plan.h_values == (1.0, 0.5)
    assert plan.seed == 9
    assert plan.scenario.x0 == 0.05

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": scen, "x": 1}))
    with pytest.raises(ValueError, match="unknown fields"):
        load_plan(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"trials": 3}))
    with pytest.raises(ValueError, match="scenario"):
        load_plan(missing)


def test_noiseless_cells_recover_r0(demo_scenario):
    plan = ExperimentPlan(
        scenario=demo_scenario, regimes=("noiseless",), h_values=(1.0,), fine_substeps=5
    )
    result = run_noise_study(plan)
    cell = study_cell(result, "noiseless", 1.0)
    assert cell.n_trials == 1  # noiseless needs no repetition
    assert not cell.failed
    errs = cell.r0_rel_errors()
    assert errs.shape == (1, 3)
    assert errs.max() < 0.02  # discretization only


def test_study_is_deterministic(demo_scenario):
    plan = small_plan(demo_scenario)
    first = run_noise_study(plan)
    second = run_noise_study(plan)
    for a, b in zip(first.cells, second.cells):
        assert np.array_equal(np.vstack(a.theta_hats), np.vstack(b.theta_hats))


def test_observation_noise_hurts(demo_scenario):
    result = run_noise_study(small_plan(demo_scenario))
    clean = np.median(study_cell(result, "noiseless", 1.0).r0_rel_errors())
    noisy = np.median(study_cell(result, "observation", 1.0).r0_rel_errors())
    assert noisy > clean


def test_failed_cells_do_not_stop_the_sweep(demo_scenario):
    # starting exactly at interval 0's endemic equilibrium makes interval 0
    # constant, which is not identifiable; the sweep must still finish
    stuck = Scenario(spec=demo_scenario.spec, x0=0.6)
    plan = ExperimentPlan(
        scenario=stuck, regimes=("noiseless",), h_values=(1.0, 0.5), fine_substeps=2
    )
    result = run_noise_study(plan)
    for h in (1.0, 0.5):
        cell = study_cell(result, "noiseless", h)
        assert cell.failed
        assert cell.failure is not None and not cell.failure.overall
        assert 0 in cell.failure.failed_intervals()
        assert cell.theta_hats == []
    summary = result.summary()
    assert all(c["failed"] for c in summary["cells"])
    assert summary["cells"][0]["identifiability"]["overall"] is False


def test_a_cell_estimates_no_trial_after_its_first_failure(demo_scenario, monkeypatch):
    # at sigma = 0 every observation trial is the noiseless path from interval
    # 0's equilibrium, so each cell's first trial fails and the rest are
    # skipped before their data are drawn
    build, built = experiments.build_regression, []
    noise, noised = experiments.add_observation_noise, []

    def counting_build(traj, schedule):
        built.append(schedule.step_size)
        return build(traj, schedule)

    def counting_noise(traj, sigma, seed):
        noised.append(traj.step_size)
        return noise(traj, sigma, seed)

    monkeypatch.setattr(experiments, "build_regression", counting_build)
    monkeypatch.setattr(experiments, "add_observation_noise", counting_noise)
    plan = ExperimentPlan(
        scenario=Scenario(spec=demo_scenario.spec, x0=0.6), regimes=("observation",),
        h_values=(1.0, 0.5), sigma=0.0, trials=3, fine_substeps=2,
    )
    result = run_noise_study(plan)
    assert built == [1.0, 0.5]
    assert noised == [1.0, 0.5]
    assert all(c.failed and c.theta_hats == [] for c in result.cells)


def test_result_tables_and_summary(tmp_path, demo_scenario):
    plan = small_plan(demo_scenario, regimes=("observation",), trials=3)
    result = run_noise_study(plan)

    rows = list(result.param_rows())
    assert len(rows) == 2 * 3 * 8  # h values x trials x parameters
    r0_rows = list(result.r0_rows())
    assert len(r0_rows) == 2 * 3 * 3  # h values x trials x intervals

    summary = result.summary()
    assert summary["trials"] == 3
    assert summary["sigma"] == 0.02
    assert len(summary["cells"]) == 2
    for cell_summary in summary["cells"]:
        assert not cell_summary["failed"]
        assert "beta0" in cell_summary["param_rel_error"]
        assert "interval_0" in cell_summary["r0_rel_error"]

    paths = result.write(tmp_path)
    by_name = {p.name: p for p in paths}
    assert set(by_name) == {"params.csv", "r0.csv", "summary.json"}
    with open(by_name["params.csv"]) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["regime", "h", "trial", "param", "true", "estimate", "rel_error"]
        assert len(list(reader)) == len(rows)
    with open(by_name["r0.csv"]) as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["regime", "h", "interval", "r0_true", "r0_est", "rel_error"]
        assert len(list(reader)) == len(r0_rows)
    loaded = json.loads(by_name["summary.json"].read_text())
    assert loaded["seed"] == plan.seed


def test_summary_json_is_strict_when_a_true_r0_is_infinite(tmp_path, demo_scenario):
    # gamma = 0 is a valid rate, so interval 1's true R0 is infinite and its
    # relative R0 error is NaN: summary.json writes null, never a bare NaN
    intervals = list(demo_scenario.spec.intervals)
    intervals[1] = dataclasses.replace(intervals[1], gamma=0.0)
    scenario = Scenario(spec=HybridModelSpec(demo_scenario.spec.schedule, tuple(intervals)),
                        x0=demo_scenario.x0)
    plan = small_plan(scenario, regimes=("noiseless",), trials=2)
    paths = run_noise_study(plan).write(tmp_path)

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert tmp_path / "summary.json" in paths
    for cell in summary["cells"]:
        assert cell["r0_rel_error"]["interval_1"] == {"median": None, "max": None}
        assert all(isinstance(e["max"], float) for key, e in cell["r0_rel_error"].items()
                   if key != "interval_1")


def synthetic_dataset(population=1_000_000):
    sched = UpdateSchedule((30, 70), 120, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.5, gamma=0.2),
            IntervalParams(alpha=0.5, beta=0.19, gamma=0.15),
            IntervalParams(alpha=-0.3, beta=0.25, gamma=0.15),
        ),
    )
    truth = simulate_dt(spec, 0.05)
    traj = Trajectory(values=truth.values, step_size=1.0, population=population)
    return AlignedDataset(
        trajectory=traj,
        schedule=sched,
        population=population,
        start_date=dt.date(2024, 1, 1),
    ), spec


def test_realdata_study_exact_fit():
    dataset, spec = synthetic_dataset()
    report = run_realdata_study(dataset)
    assert report.ok
    assert report.rmse_counts < 1e-3
    assert len(report.per_interval_rmse_counts) == 3
    assert all(v < 1e-3 for v in report.per_interval_rmse_counts)
    assert report.fitted is not None
    np.testing.assert_allclose(report.fitted.spec.theta, spec.theta, rtol=1e-9)
    d = report.to_dict()
    assert d["ok"] and d["fitted_scenario"] is not None
    assert d["update_steps"] == [30, 70]


def test_realdata_study_per_interval_rmse_matches_masked_means():
    dataset, _ = synthetic_dataset()
    rng = np.random.default_rng(0)
    noisy = np.clip(dataset.trajectory.values + rng.normal(0, 1e-3, 121), 0.0, 1.0)
    traj = Trajectory(values=noisy, step_size=1.0, population=dataset.population)
    report = run_realdata_study(dataclasses.replace(dataset, trajectory=traj))
    fitted = simulate_dt(report.fitted.spec, noisy[0]).values
    diff = (fitted - noisy) * dataset.population
    # a release sample belongs to the interval it opens
    owner = np.searchsorted(dataset.schedule.update_steps, np.arange(121), side="right")
    want = [np.sqrt(np.mean(diff[owner == i] ** 2)) for i in range(3)]
    np.testing.assert_allclose(report.per_interval_rmse_counts, want, rtol=1e-12)
    assert report.rmse_counts == pytest.approx(np.sqrt(np.mean(diff**2)), rel=1e-12)


def test_realdata_study_holdout():
    dataset, _ = synthetic_dataset()
    report = run_realdata_study(dataset, holdout=20)
    hold = report.holdout
    assert hold is not None and hold.ok
    assert hold.cut_step == 100
    assert hold.horizon == 20
    assert hold.forecast_rmse_counts < 1e-3  # exact data, exact tail forecast
    assert report.to_dict()["holdout"]["ok"] is True
    assert report.to_dict()["holdout"]["estimation"] == hold.estimation.to_dict()
    # a diverged tail forecast is written as null, which strict JSON allows
    hold.forecast_rmse_counts = float("inf")
    assert report.to_dict()["holdout"]["forecast_rmse_counts"] is None


@pytest.mark.parametrize("holdout", [20, 70])
def test_realdata_study_holdout_is_the_fit_of_the_prefix(holdout):
    # the holdout refit equals run_realdata_study on the prefix built by hand
    dataset, _ = synthetic_dataset()
    cut = dataset.schedule.final_step - holdout
    prefix = dataclasses.replace(
        dataset,
        trajectory=Trajectory(
            values=dataset.trajectory.values[: cut + 1], step_size=1.0,
            population=dataset.population,
        ),
        schedule=UpdateSchedule(
            tuple(t for t in dataset.schedule.update_steps if t < cut), cut, 1.0
        ),
    )
    want = run_realdata_study(prefix)
    hold = run_realdata_study(dataset, holdout=holdout).holdout
    assert hold.ok == want.ok
    assert hold.identifiability.to_dict() == want.identifiability.to_dict()
    assert hold.estimation.theta_hat.tobytes() == want.estimation.theta_hat.tobytes()


def test_realdata_study_holdout_drops_tail_releases():
    dataset, _ = synthetic_dataset()
    # cutting at step 50 discards the release at 70; the prefix keeps one
    report = run_realdata_study(dataset, holdout=70)
    assert report.holdout.ok
    assert report.holdout.estimation.theta_hat.shape == (5,)


def test_realdata_study_holdout_whose_prefix_fails_the_conditions():
    dataset, _ = synthetic_dataset()
    # a cut one step after the release at 70 leaves interval 2 its release row
    # and one ordinary row: two rows for three parameters
    report = run_realdata_study(dataset, holdout=49)
    assert report.ok and report.holdout.cut_step == 71
    assert not report.holdout.ok
    assert list(report.holdout.identifiability.failed_intervals()) == [2]
    hold = report.to_dict()["holdout"]
    assert hold["ok"] is False
    assert hold["estimation"] is None and hold["forecast_rmse_counts"] is None


def test_realdata_study_holdout_validation():
    dataset, _ = synthetic_dataset()
    with pytest.raises(ValueError, match="holdout"):
        run_realdata_study(dataset, holdout=119)
    with pytest.raises(ValueError, match="holdout"):
        run_realdata_study(dataset, holdout=0)


@pytest.mark.parametrize("holdout", [0, -3, 2.5, "x", 500, 11])
def test_realdata_study_checks_the_holdout_before_the_fit(holdout):
    # an unidentifiable dataset never reaches its holdout, which is checked first
    with pytest.raises(ValueError, match="holdout"):
        run_realdata_study(unidentifiable_dataset(), holdout=holdout)


def test_realdata_study_holdout_replays_twice_and_fits_the_same_samples(monkeypatch):
    # one replay of the fit and one of the tail; the prefix is fitted on the
    # dataset's own samples, with no second study
    dataset, _ = synthetic_dataset()
    recurse, replays = experiments._recurse, []
    build, built = experiments.build_regression, []
    study, studies = experiments.run_realdata_study, []

    def counting_recurse(schedule, *args, **kw):
        replays.append(schedule.final_step)
        return recurse(schedule, *args, **kw)

    def counting_build(traj, schedule):
        built.append((traj, schedule.final_step))
        return build(traj, schedule)

    def counting_study(*args, **kw):
        studies.append(args)
        return study(*args, **kw)

    monkeypatch.setattr(experiments, "_recurse", counting_recurse)
    monkeypatch.setattr(experiments, "build_regression", counting_build)
    monkeypatch.setattr(experiments, "run_realdata_study", counting_study)
    report = study(dataset, holdout=20)  # a call from inside reaches the counter
    assert report.holdout.ok
    assert replays == [120, 20]
    assert [(t is dataset.trajectory, step) for t, step in built] == [(True, 120), (True, 100)]
    assert studies == []


def unidentifiable_dataset():
    flat = Trajectory(values=np.full(13, 0.4), step_size=1.0, population=1000)
    return AlignedDataset(
        trajectory=flat, schedule=UpdateSchedule((5,), 12, 1.0), population=1000,
        start_date=dt.date(2024, 1, 1),
    )


def test_realdata_study_reports_unidentifiable():
    report = run_realdata_study(unidentifiable_dataset())
    assert not report.ok
    assert report.estimation is None
    assert report.rmse_counts is None
    d = report.to_dict()
    assert d["estimation"] is None
    assert not d["identifiability"]["overall"]
