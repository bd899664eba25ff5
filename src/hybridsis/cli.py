"""Command-line front end.

Subcommands: simulate, identify, estimate, fit, forecast, study.  Exit codes:
0 on success, 2 on any validation problem (bad flags, missing or malformed
files, inconsistent inputs), 3 when the requested estimation is blocked by
the identifiability conditions in strict mode.

Every run that writes files also writes a run manifest JSON next to them
(inputs with content hashes, the exact argument vector, seed, library
versions, timing, output hashes).  Re-running the manifest's argv reproduces
the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import functools
import hashlib
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (
    build_regression,
    check_identifiability,
    error_metrics,
    estimate,
    forecast,
)
from .experiments import load_plan, run_noise_study, run_realdata_study
from .ingest import align, load_series, load_update_dates
from .model import _dump_json, load_scenario, load_schedule
from .simulate import (
    read_trajectory_csv,
    simulate_ct,
    simulate_dt,
    simulate_sde,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_IDENTIFIABLE = 3


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    manifest_path: Path,
    subcommand: str,
    argv: list[str],
    inputs: list[Path],
    outputs: list[Path],
    seed: int | None,
    started: float,
) -> None:
    manifest = {
        "tool": "hybridsis",
        "version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "seed": seed,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "started_utc": dt.datetime.fromtimestamp(started, dt.timezone.utc).isoformat(),
        "duration_s": time.time() - started,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(_dump_json(manifest) + "\n")


def _print_json(d: dict) -> None:
    # strict JSON: a NaN or infinity that reaches here raises ValueError
    print(_dump_json(d))


def _recording_warnings(fn, *args):
    """fn(*args) and the messages of the warnings it raised, which the JSON
    output reports instead of stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _cmd_simulate(args, argv: list[str]) -> int:
    started = time.time()
    for flag, value, default in (
        ("--substeps", args.substeps, 1), ("--sigma", args.sigma, 0.0), ("--seed", args.seed, None)
    ):
        if value != default and args.mode != "sde":
            raise ValueError(f"{flag} applies to --mode sde only, not to --mode {args.mode}")
    seed = (args.seed or 0) if args.mode == "sde" else None
    scenario = load_scenario(args.scenario)
    spec = scenario.spec
    if args.mode == "dt":
        traj = simulate_dt(spec, scenario.x0)
    elif args.mode == "ct":
        traj = simulate_ct(spec, scenario.x0)
    else:
        traj = simulate_sde(spec, scenario.x0, seed=seed, sigma=args.sigma, substeps=args.substeps)
    if scenario.population is not None:
        traj = dataclasses.replace(traj, population=scenario.population)
    out = Path(args.out)
    write_trajectory_csv(traj, out)
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "simulate",
        argv,
        inputs=[Path(args.scenario)],
        outputs=[out],
        seed=seed,
        started=started,
    )
    return EXIT_OK


def _cmd_identify(args, argv: list[str]) -> int:
    traj = read_trajectory_csv(args.traj)
    schedule = load_schedule(args.schedule)
    system = build_regression(traj, schedule)
    report = check_identifiability(system)
    _print_json(report.to_dict())
    return EXIT_OK if report.overall else EXIT_NOT_IDENTIFIABLE


def _cmd_estimate(args, argv: list[str]) -> int:
    traj = read_trajectory_csv(args.traj)
    schedule = load_schedule(args.schedule)
    system = build_regression(traj, schedule)
    report = check_identifiability(system)
    if not report.overall and not args.lenient:
        print(
            "error: parameters are not uniquely identifiable from this trajectory "
            f"(intervals {list(report.failed_intervals())}); pass --lenient for the "
            "minimum-norm solution",
            file=sys.stderr,
        )
        _print_json({"identifiability": report.to_dict()})
        return EXIT_NOT_IDENTIFIABLE

    result, notes = _recording_warnings(estimate, system)
    out = result.to_dict()
    out["identifiability"] = report.to_dict()
    if args.truth is not None:
        truth = load_scenario(args.truth)
        if truth.spec.schedule != schedule:  # release steps, final step or h
            raise ValueError(f"{args.truth}: truth schedule differs from that of {args.schedule}")
        out["errors"] = error_metrics(result, truth.spec)
    if notes:
        out["warnings"] = notes
    _print_json(out)
    return EXIT_OK


def _cmd_fit(args, argv: list[str]) -> int:
    series = load_series(args.data)
    updates = load_update_dates(args.updates)
    window = (args.from_date, args.to_date)  # None for an open end
    dataset = align(series, updates, args.population, window, smooth7=args.smooth7)
    report, notes = _recording_warnings(run_realdata_study, dataset)
    out = report.to_dict()
    if notes:
        out["warnings"] = notes
    _print_json(out)
    if not report.ok:
        print(
            "error: parameters are not uniquely identifiable from this window "
            f"(intervals {list(report.identifiability.failed_intervals())})",
            file=sys.stderr,
        )
        return EXIT_NOT_IDENTIFIABLE
    return EXIT_OK


def _cmd_forecast(args, argv: list[str]) -> int:
    scenario = load_scenario(args.params)
    traj = forecast(scenario.spec, args.x0, args.horizon)
    write_trajectory_csv(traj, sys.stdout)
    return EXIT_OK


def _cmd_study(args, argv: list[str]) -> int:
    started = time.time()
    plan = load_plan(args.plan)
    result = run_noise_study(plan)
    out_dir = Path(args.out_dir)
    paths = result.write(out_dir)
    _write_manifest(
        out_dir / "manifest.json",
        "study",
        argv,
        inputs=[Path(args.plan)],
        outputs=paths,
        seed=plan.seed,
        started=started,
    )
    failed = [(c.regime, c.h) for c in result.cells if c.failed]
    print(f"wrote {', '.join(str(p) for p in paths)}")
    if failed:
        print(f"failed cells: {failed}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsis",
        description="Simulate and identify SIS demand dynamics with release jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trajectory from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--mode", required=True, choices=["ct", "dt", "sde"])
    p.add_argument(
        "--substeps", type=int, default=1, help="Euler-Maruyama sub-steps per sample (sde)"
    )
    p.add_argument("--sigma", type=float, default=0.0, help="demand noise scale (sde)")
    p.add_argument("--seed", type=int, help="noise seed (sde, default 0)")
    p.add_argument("--out", required=True, help="output trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="check unique-solvability conditions")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--schedule", required=True, help="scenario/schedule JSON")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("estimate", help="least-squares parameter estimation")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--schedule", required=True, help="scenario/schedule JSON")
    p.add_argument("--truth", help="scenario JSON with true parameters for error metrics")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="proceed with the minimum-norm solution when conditions fail",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("fit", help="fit a daily player-count CSV")
    p.add_argument("--data", required=True, help="CSV with header date,peak_players")
    p.add_argument("--updates", required=True, help="release dates (text or JSON array)")
    p.add_argument("--population", required=True, type=int, help="population scale N")
    p.add_argument(
        "--from", dest="from_date", type=dt.date.fromisoformat, help="window start date (ISO)"
    )
    p.add_argument(
        "--to", dest="to_date", type=dt.date.fromisoformat, help="window end date (ISO)"
    )
    p.add_argument("--smooth7", action="store_true", help="7-day centered pre-smoothing")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("forecast", help="run the fitted model forward")
    p.add_argument("--params", required=True, help="scenario JSON with fitted parameters")
    p.add_argument("--x0", required=True, type=float, help="starting share")
    p.add_argument("--horizon", required=True, type=int, help="steps to forecast")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("study", help="run a sweep plan and write result tables")
    p.add_argument("--plan", required=True, help="study plan JSON")
    p.add_argument("--out-dir", required=True, help="directory for result tables")
    p.set_defaults(func=_cmd_study)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args keeps no state."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args, list(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
