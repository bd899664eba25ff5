import datetime as dt
import hashlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hybridsis
from hybridsis import (
    HybridModelSpec,
    IntervalParams,
    Trajectory,
    UpdateSchedule,
    load_scenario,
    simulate_dt,
    write_trajectory_csv,
)
from hybridsis.cli import build_parser, main
from hybridsis.estimate import forecast

from conftest import SCENARIO_PATH
from test_simulate import write_rows_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_schedule(path, update_steps, final_step, h=1.0):
    path.write_text(
        json.dumps({"h": h, "update_steps": list(update_steps), "final_step": final_step})
    )
    return path


def write_constant_traj(path, n_samples=13, value=0.4):
    traj = Trajectory(values=np.full(n_samples, value), step_size=1.0)
    write_trajectory_csv(traj, path)
    return path


def test_simulate_dt_matches_library_and_writes_manifest(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--scenario", str(SCENARIO_PATH), "--mode", "dt", "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""

    scenario = load_scenario(SCENARIO_PATH)
    expected = tmp_path / "expected.csv"
    write_trajectory_csv(simulate_dt(scenario.spec, scenario.x0), expected)
    assert out.read_bytes() == expected.read_bytes()

    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["tool"] == "hybridsis"
    assert manifest["subcommand"] == "simulate"
    assert manifest["argv"] == argv
    assert manifest["seed"] is None  # deterministic mode records no seed
    assert manifest["inputs"][str(SCENARIO_PATH)] == sha256(SCENARIO_PATH)
    assert manifest["outputs"][str(out)] == sha256(out)
    assert manifest["numpy"] == np.__version__
    assert manifest["duration_s"] >= 0


def test_cli_runs_without_scipy(tmp_path):
    # no module imports scipy: the CLI runs with the import blocked
    out = tmp_path / "traj.csv"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from hybridsis.cli import main\n"
        f"sys.exit(main(['simulate', '--scenario', {str(SCENARIO_PATH)!r}, "
        f"'--mode', 'dt', '--out', {str(out)!r}]))\n"
    )
    src = str(Path(hybridsis.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert out.exists()
    assert "scipy" not in json.loads((tmp_path / "traj.csv.manifest.json").read_text())


def test_simulate_sde_manifest_replays_byte_identical(tmp_path, capsys):
    out = tmp_path / "noisy.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "sde",
        "--sigma", "0.02", "--seed", "5", "--substeps", "2", "--out", str(out),
    )
    assert code == 0
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "noisy.csv.manifest.json").read_text())
    assert manifest["seed"] == 5

    out.unlink()
    assert main(manifest["argv"]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_identify_reports_ok(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    run_cli(capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "dt",
            "--out", str(traj_path))
    code, out, _ = run_cli(
        capsys, "identify", "--traj", str(traj_path), "--schedule", str(SCENARIO_PATH)
    )
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["psi_rank"] == report["required_rank"] == 8
    assert len(report["intervals"]) == 3


def test_identify_flags_degenerate_data(tmp_path, capsys):
    traj_path = write_constant_traj(tmp_path / "flat.csv")
    sched_path = write_schedule(tmp_path / "sched.json", [5], 12)
    code, out, _ = run_cli(
        capsys, "identify", "--traj", str(traj_path), "--schedule", str(sched_path)
    )
    assert code == 3
    assert json.loads(out)["overall"] is False


def test_estimate_with_truth_recovers_parameters(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    run_cli(capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "dt",
            "--out", str(traj_path))
    code, out, _ = run_cli(
        capsys,
        "estimate", "--traj", str(traj_path), "--schedule", str(SCENARIO_PATH),
        "--truth", str(SCENARIO_PATH),
    )
    assert code == 0
    d = json.loads(out)
    assert len(d["theta"]) == 8
    assert d["unique"] is True
    assert d["identifiability"]["overall"] is True
    assert "warnings" not in d
    worst = max(e["error"] for e in d["errors"]["params"])
    assert worst <= 1e-8
    assert all(e["relative"] for e in d["errors"]["r0"])


def test_estimate_strict_refuses_then_lenient_proceeds(tmp_path, capsys):
    traj_path = write_constant_traj(tmp_path / "flat.csv")
    sched_path = write_schedule(tmp_path / "sched.json", [5], 12)

    code, out, err = run_cli(
        capsys, "estimate", "--traj", str(traj_path), "--schedule", str(sched_path)
    )
    assert code == 3
    assert "--lenient" in err
    assert set(json.loads(out)) == {"identifiability"}

    code, out, _ = run_cli(
        capsys, "estimate", "--traj", str(traj_path), "--schedule", str(sched_path),
        "--lenient",
    )
    assert code == 0
    d = json.loads(out)
    assert d["unique"] is False
    assert d["warnings"]  # rank-deficiency notes carried into the output


def test_estimate_schedule_mismatch_is_validation_error(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    run_cli(capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "dt",
            "--out", str(traj_path))
    sched_path = write_schedule(tmp_path / "sched.json", [30, 90], 150, h=0.5)
    code, _, err = run_cli(
        capsys, "estimate", "--traj", str(traj_path), "--schedule", str(sched_path)
    )
    assert code == 2
    assert err.startswith("error:") and "step size" in err


def test_estimate_rejects_uneven_time_column(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    traj_path.write_text("step,time,x\n0,0,0.1\n1,1,0.2\n2,2,0.3\n3,3.5,0.4\n4,4,0.5\n")
    sched_path = write_schedule(tmp_path / "sched.json", [], 4)
    code, out, err = run_cli(
        capsys, "estimate", "--traj", str(traj_path), "--schedule", str(sched_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {traj_path}:5:") and "3.5" in err


def test_estimate_rejects_non_finite_share(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    traj_path.write_text("step,time,x\n0,0,0.1\n1,1,nan\n2,2,0.3\n3,3,0.4\n4,4,0.5\n")
    sched_path = write_schedule(tmp_path / "sched.json", [], 4)
    code, out, err = run_cli(
        capsys, "estimate", "--traj", str(traj_path), "--schedule", str(sched_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {traj_path}:3:") and "not finite" in err


def test_simulate_substeps_is_for_sde_only(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    for mode in ("dt", "ct"):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", mode,
            "--substeps", "7", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error:") and "--substeps" in err and "sde" in err
        assert not out.exists()
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "ct",
        "--substeps", "1", "--out", str(out),
    )
    assert code == 0 and out.exists()


@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_simulate_sigma_is_for_sde_only(tmp_path, capsys, mode):
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", mode,
        "--sigma", "0.5", "--out", str(out),
    )
    assert code == 2
    assert err == f"error: --sigma applies to --mode sde only, not to --mode {mode}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_simulate_seed_is_for_sde_only(tmp_path, capsys, mode):
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", mode,
        "--seed", "5", "--out", str(out),
    )
    assert code == 2
    assert err == f"error: --seed applies to --mode sde only, not to --mode {mode}\n"
    assert not out.exists()


def test_simulate_sde_seed_defaults_to_zero(tmp_path, capsys):
    for name, seed in (("unset", []), ("zero", ["--seed", "0"])):
        out = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "sde",
            "--sigma", "0.02", *seed, "--out", str(out),
        )
        assert code == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["seed"] == 0
    assert (tmp_path / "unset.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()


def test_usage_and_missing_file_errors(tmp_path, capsys):
    assert run_cli(capsys, "simulate", "--scenario", "/does/not/exist.json",
                   "--mode", "dt", "--out", str(tmp_path / "x.csv"))[0] == 2
    assert run_cli(capsys, "simulate", "--bogus")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_forecast_prints_trajectory(tmp_path, capsys):
    params = tmp_path / "fit.json"
    params.write_text(json.dumps({
        "h": 1.0, "update_steps": [], "final_step": 10,
        "intervals": [{"beta": 0.5, "gamma": 0.2}], "x0": 0.05,
    }))
    code, out, _ = run_cli(
        capsys, "forecast", "--params", str(params), "--x0", "0.5", "--horizon", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,time,x"
    assert len(lines) == 4
    xs = [float(line.split(",")[2]) for line in lines[1:]]
    e1 = 0.5 + 1.0 * (0.5 * (1.0 - 0.5) * 0.5 - 0.2 * 0.5)
    e2 = e1 + 1.0 * (0.5 * (1.0 - e1) * e1 - 0.2 * e1)
    assert xs == [0.5, e1, e2]


def test_forecast_stdout_matches_the_row_loop_past_the_unit_interval(tmp_path, capsys):
    # raw rates that overshoot 1, then swing negative and blow up past 1e16
    params = tmp_path / "raw.json"
    params.write_text(json.dumps({
        "h": 1.0, "update_steps": [3], "final_step": 10, "x0": 0.5,
        "intervals": [{"beta": 3.5, "gamma": 0.1}, {"alpha": -0.5, "beta": 3.5, "gamma": 0.1}],
    }))
    code, out, err = run_cli(
        capsys, "forecast", "--params", str(params), "--x0", "0.5", "--horizon", "9"
    )
    assert code == 0 and err == ""
    traj = forecast(load_scenario(params).spec, 0.5, 9)
    assert traj.values.min() < 0.0 < 1.0 < traj.values.max()
    assert np.abs(traj.values).max() >= 1e16
    expected = io.StringIO()
    write_rows_loop(traj, expected)
    assert out == expected.getvalue()


def fit_fixture(tmp_path, population=1_000_000):
    sched = UpdateSchedule((30, 70), 120, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.5, gamma=0.2),
            IntervalParams(alpha=0.5, beta=0.19, gamma=0.15),
            IntervalParams(alpha=-0.3, beta=0.25, gamma=0.15),
        ),
    )
    counts = np.rint(simulate_dt(spec, 0.05).values * population).astype(int)
    start = dt.date(2024, 1, 1)
    data = tmp_path / "players.csv"
    rows = ["date,peak_players"] + [
        f"{start + dt.timedelta(days=i)},{c}" for i, c in enumerate(counts)
    ]
    data.write_text("\n".join(rows) + "\n")
    updates = tmp_path / "updates.txt"
    updates.write_text(
        f"{start + dt.timedelta(days=30)}\n{start + dt.timedelta(days=70)}\n"
    )
    return data, updates, start


def test_fit_end_to_end(tmp_path, capsys):
    data, updates, _ = fit_fixture(tmp_path)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000",
    )
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["ok"] is True
    assert d["update_steps"] == [30, 70]
    assert d["population"] == 1000000
    assert d["rmse_counts"] < 5  # only count rounding separates data from model
    assert len(d["per_interval_rmse_counts"]) == 3
    assert d["fitted_scenario"] is not None
    assert "holdout" not in d and "start_at_update" not in d


def test_fit_rejects_count_beyond_int64(tmp_path, capsys):
    data, updates, _ = fit_fixture(tmp_path)
    lines = data.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",9223372036854775808"
    data.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000",
    )
    assert code == 2 and out == ""
    assert err == f"error: {data}:6: count 9223372036854775808 exceeds the int64 maximum\n"


@pytest.mark.parametrize("population", [2**53 + 1, 10**29])
def test_fit_rejects_a_population_above_2_53(tmp_path, capsys, population):
    data, updates, _ = fit_fixture(tmp_path)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", str(population),
    )
    assert code == 2 and out == ""
    assert err == f"error: population must be at most 2**53, got {population}\n"


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_sigma(tmp_path, capsys, sigma):
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "sde",
        "--sigma", sigma, "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err == f"error: sigma must be finite and non-negative, got {sigma}\n"


def test_simulate_rejects_zero_substeps_by_their_name(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", str(SCENARIO_PATH), "--mode", "sde",
        "--substeps", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err == "error: substeps must be >= 1, got 0\n"


def test_fit_rejects_a_missing_day_at_its_line(tmp_path, capsys):
    data, updates, start = fit_fixture(tmp_path)
    lines = data.read_text().splitlines()
    del lines[5]  # the row of day 4, on line 6
    data.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000",
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: {data}:6: 1 missing day(s) between {start + dt.timedelta(days=3)} and "
        f"{start + dt.timedelta(days=5)}; the series must list every day\n"
    )


def test_fit_window_and_smoothing(tmp_path, capsys):
    data, updates, start = fit_fixture(tmp_path)
    frm = (start + dt.timedelta(days=10)).isoformat()
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000", "--from", frm,
    )
    assert code == 0
    d = json.loads(out)
    assert d["start_date"] == frm
    assert d["update_steps"] == [20, 60]  # offsets rebased to the window start
    assert d["final_step"] == 110

    code, out, _ = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000", "--smooth7",
    )
    assert code == 0
    assert json.loads(out)["smoothed"] is True


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys):
    data, updates, _ = fit_fixture(tmp_path)
    fit = ["fit", "--data", str(data), "--updates", str(updates), "--population", "1000000"]
    code, out, _ = run_cli(capsys, *fit, "--smooth7")
    assert code == 0 and json.loads(out)["smoothed"] is True
    code, out, _ = run_cli(capsys, *fit)
    assert code == 0 and json.loads(out)["smoothed"] is False

    code, _, err = run_cli(capsys, "fit", "--data", str(data))
    assert code == 2 and "required" in err
    code, out, _ = run_cli(capsys, *fit)
    assert code == 0 and json.loads(out)["ok"] is True
    assert build_parser() is not build_parser()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fit_prints_strict_json_when_the_refit_overflows(tmp_path, capsys):
    # a large release followed by a large drop, smoothed over 7 days: the
    # refit recursion from the estimates overflows, and the RMSE it scores
    # must print as null, not as bare Infinity or NaN
    counts = [
        50000, 63750, 80843, 101828, 127192, 157261, 192073, 231249, 273886,
        318545, 955635, 820345, 725296, 654357, 599177, 554931, 518618, 488260,
        462495, 440353, 176141, 185999, 195950, 205946, 215937, 225873, 235706,
        245387, 254872, 264120, 273092,
    ]
    start = dt.date(2024, 1, 1)
    data = tmp_path / "players.csv"
    rows = ["date,peak_players"] + [
        f"{start + dt.timedelta(days=i)},{c}" for i, c in enumerate(counts)
    ]
    data.write_text("\n".join(rows) + "\n")
    updates = tmp_path / "updates.txt"
    updates.write_text(
        f"{start + dt.timedelta(days=10)}\n{start + dt.timedelta(days=20)}\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(data), "--updates", str(updates),
            "--population", "1000000", "--smooth7",
        )
    assert code == 0
    # the divergence is reported as null on stdout, with no numpy warning
    assert err == ""
    assert [str(w.message) for w in caught] == []
    d = json.loads(out, parse_constant=_reject_constant)
    assert d["ok"] is True
    assert "warnings" not in d
    assert d["rmse_counts"] is None
    assert None in d["per_interval_rmse_counts"]


def test_fit_reports_a_rank_deficient_block_in_its_json(tmp_path, capsys):
    # shares 0.5 and 0.5 + 1e-11 in turn pass the identifiability conditions,
    # but interval 0's block is numerically rank 1
    start = dt.date(2024, 1, 1)
    counts = [500_000_000_000 + 10 * (i % 2) for i in range(30)]
    counts += [600_000_000_000 + 7_000_000_000 * i for i in range(10)]
    data = tmp_path / "players.csv"
    rows = ["date,peak_players"] + [
        f"{start + dt.timedelta(days=i)},{c}" for i, c in enumerate(counts)
    ]
    data.write_text("\n".join(rows) + "\n")
    updates = tmp_path / "updates.txt"
    updates.write_text(f"{start + dt.timedelta(days=30)}\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000000000",
    )
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["ok"] is True and d["estimation"]["unique"] is False
    assert len(d["warnings"]) == 1 and d["warnings"][0].startswith("interval 0:")


def test_fit_degenerate_data_exits_3(tmp_path, capsys):
    start = dt.date(2024, 1, 1)
    data = tmp_path / "players.csv"
    rows = ["date,peak_players"] + [
        f"{start + dt.timedelta(days=i)},400000" for i in range(31)
    ]
    data.write_text("\n".join(rows) + "\n")
    updates = tmp_path / "updates.txt"
    updates.write_text(f"{start + dt.timedelta(days=10)}\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000",
    )
    assert code == 3
    assert "not uniquely identifiable" in err
    assert json.loads(out)["ok"] is False


def write_plan(tmp_path):
    plan = {
        "scenario": json.loads(SCENARIO_PATH.read_text()),
        "regimes": ["noiseless", "observation"],
        "h_values": [1.0, 0.5],
        "trials": 2,
        "seed": 7,
        "fine_substeps": 2,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_study_end_to_end_and_reruns_identically(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out1 = tmp_path / "study1"
    code, out, _ = run_cli(capsys, "study", "--plan", str(plan), "--out-dir", str(out1))
    assert code == 0
    assert "wrote" in out and "failed cells" not in out
    for name in ("params.csv", "r0.csv", "summary.json", "manifest.json"):
        assert (out1 / name).exists()

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["subcommand"] == "study"
    assert manifest["seed"] == 7  # the plan file is the one place that sets it
    assert len(manifest["outputs"]) == 3
    for path_str, digest in manifest["outputs"].items():
        assert sha256(Path(path_str)) == digest

    out2 = tmp_path / "study2"
    assert run_cli(capsys, "study", "--plan", str(plan), "--out-dir", str(out2))[0] == 0
    for name in ("params.csv", "r0.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_study_cli_overrides(tmp_path, capsys):
    # the plan file is the one place that sets a study's trials and seed
    plan = write_plan(tmp_path)
    plan.write_text(json.dumps({**json.loads(plan.read_text()), "trials": 1}))
    for flag, value in (("--trials", "3"), ("--seed", "8")):
        assert run_cli(capsys, "study", "--plan", str(plan), "--out-dir",
                       str(tmp_path / "rejected"), flag, value)[0] == 2
    assert not (tmp_path / "rejected").exists()
    out_dir = tmp_path / "study"
    code, _, _ = run_cli(capsys, "study", "--plan", str(plan), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["trials"] == 1
    assert summary["seed"] == 7
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 7


_SCENARIO = json.loads(SCENARIO_PATH.read_text())
_NO_X0 = {k: v for k, v in _SCENARIO.items() if k != "x0"}


def _with_interval_1_beta(beta):
    return [_SCENARIO["intervals"][0], {"alpha": 0.5, "beta": beta, "gamma": 0.15},
            _SCENARIO["intervals"][2]]


def case(command, field, value, message="", id=None):
    """A file whose field holds value, and the text the message must hold
    after the file name; the id defaults to command-field."""
    return pytest.param(command, field, value, message, id=id or f"{command}-{field}")


WRONGLY_TYPED = [
    case("simulate", "update_steps", 5, "field 'update_steps' must be a list, got 5"),
    case("simulate", "intervals", [5, 6, 7], "interval 0 must be a JSON object, got 5"),
    case("simulate", "x0", None, "field 'x0' must be a number, got None"),
    case("forecast", "h", None, "field 'h' must be a number, got None"),
    case("identify", "update_steps", 5, "field 'update_steps' must be a list, got 5"),
    case("estimate", "final_step", [150], "field 'final_step' must be a number, got [150]"),
    case("study", "h_values", 1, "field 'h_values' must be a list, got 1"),
    case("study", "trials", None, "field 'trials' must be a number, got None"),
    case("forecast", "intervals", _with_interval_1_beta("abc"),
         "interval 1: field 'beta' must be a number, got 'abc'"),
    case("estimate", "update_steps", [90, 30], "update steps must be strictly increasing"),
    case("study", "scenario", _NO_X0, "missing field 'x0'"),
    case("forecast", "x0", "abc", "field 'x0' must be a number, got 'abc'"),
    case("simulate", "h", "abc", "field 'h' must be a number, got 'abc'"),
    case("identify", "final_step", "abc", "field 'final_step' must be a number, got 'abc'"),
    # JSON values that a bare int() or float() would take, but not as the type
    # the field needs: a string is not a list or a number, true is not a
    # number, and an integer field takes no fraction
    case("simulate", "update_steps", "39", "field 'update_steps' must be a list, got '39'",
         id="simulate-update_steps-string"),
    case("identify", "update_steps", [30.5, 90],
         "an entry of field 'update_steps' must be an integer, got 30.5",
         id="identify-update_steps-fraction"),
    case("simulate", "final_step", 150.7, "field 'final_step' must be an integer, got 150.7"),
    case("simulate", "intervals", _with_interval_1_beta(True),
         "interval 1: field 'beta' must be a number, got True", id="simulate-intervals-bool"),
    case("simulate", "population", 2.5, "field 'population' must be an integer, got 2.5"),
    case("study", "trials", 2.9, "field 'trials' must be an integer, got 2.9",
         id="study-trials-fraction"),
    case("study", "seed", "5", "field 'seed' must be a number, got '5'"),
    case("study", "sigma", "0.02", "field 'sigma' must be a number, got '0.02'"),
    case("study", "fine_substeps", True, "field 'fine_substeps' must be a number, got True"),
    case("study", "h_values", "1", "field 'h_values' must be a list, got '1'",
         id="study-h_values-string"),
    case("study", "h_values", ["1"], "an entry of field 'h_values' must be a number, got '1'",
         id="study-h_values-entry"),
    case("study", "regimes", "process", "field 'regimes' must be a list, got 'process'"),
    # json reads NaN and Infinity (and 1e400, as inf), which no field takes
    case("simulate", "h", float("nan"), "field 'h' must be finite, got nan", id="simulate-h-nan"),
    case("simulate", "intervals", _with_interval_1_beta(float("inf")),
         "interval 1: field 'beta' must be finite, got inf", id="simulate-intervals-inf"),
    case("study", "sigma", float("nan"), "field 'sigma' must be finite, got nan",
         id="study-sigma-nan"),
    # a count beyond 2**53 is not exact as a float, nor always within int64
    case("simulate", "population", 1e30,
         "population must be at most 2**53, got 1000000000000000019884624838656",
         id="simulate-population-1e30"),
    case("simulate", "population", 10**400, f"population must be at most 2**53, got {10**400}",
         id="simulate-population-10**400"),
]


@pytest.mark.parametrize("command, field, value, message", WRONGLY_TYPED)
def test_wrongly_typed_json_field_exits_2_naming_the_file(
    tmp_path, capsys, command, field, value, message
):
    if command == "study":
        path = write_plan(tmp_path)
        plan = json.loads(path.read_text())
        plan[field] = value
        path.write_text(json.dumps(plan))
        argv = ["study", "--plan", str(path), "--out-dir", str(tmp_path / "out")]
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**_SCENARIO, field: value}))
        traj = write_constant_traj(tmp_path / "t.csv", n_samples=151)
        argv = {
            "simulate": ["simulate", "--scenario", str(path), "--mode", "dt",
                         "--out", str(tmp_path / "x.csv")],
            "forecast": ["forecast", "--params", str(path), "--x0", "0.1", "--horizon", "5"],
            "identify": ["identify", "--traj", str(traj), "--schedule", str(path)],
            "estimate": ["estimate", "--traj", str(traj), "--schedule", str(path)],
        }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {message}")
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_fit_bad_window_date_names_the_flag(tmp_path, capsys, flag):
    data, updates, _ = fit_fixture(tmp_path)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data), "--updates", str(updates),
        "--population", "1000000", flag, "2024-13-01",
    )
    assert code == 2 and out == ""
    assert f"argument {flag}: invalid fromisoformat value: '2024-13-01'" in err
