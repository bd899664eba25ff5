import datetime as dt
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

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

from conftest import SCENARIO_PATH


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
    assert d["rmse_counts"] is None
    assert None in d["per_interval_rmse_counts"]


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
    assert len(manifest["outputs"]) == 3
    for path_str, digest in manifest["outputs"].items():
        assert sha256(Path(path_str)) == digest

    out2 = tmp_path / "study2"
    assert run_cli(capsys, "study", "--plan", str(plan), "--out-dir", str(out2))[0] == 0
    for name in ("params.csv", "r0.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_study_cli_overrides(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out_dir = tmp_path / "study"
    code, _, _ = run_cli(
        capsys, "study", "--plan", str(plan), "--out-dir", str(out_dir),
        "--trials", "1", "--seed", "7",
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["trials"] == 1
    assert summary["seed"] == 7
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 7
