import contextlib
import datetime as dt
import io
import json
import re
import shlex
import shutil

import numpy as np
from conftest import ROOT

from hybridsis import load_scenario, simulate_dt
from hybridsis.cli import main

README = (ROOT / "README.md").read_text()


def test_readme_python_example_runs(monkeypatch):
    # the README's Python API example, run from the repo root as a reader would
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "interval_0" in out.getvalue()


def write_fit_and_study_inputs(directory):
    """The files the README's fit and study lines read and do not create: the
    demo scenario as a gap-free daily series from 2024-01-01, its release
    dates, and a two-trial plan."""
    source = ROOT / "scenarios" / "two_updates.json"
    scenario = load_scenario(source)
    counts = np.rint(simulate_dt(scenario.spec, scenario.x0).values * 1_000_000).astype(int)
    start = dt.date(2024, 1, 1)
    rows = [f"{start + dt.timedelta(days=j)},{c}\n" for j, c in enumerate(counts)]
    (directory / "players.csv").write_text("date,peak_players\n" + "".join(rows))
    releases = [start + dt.timedelta(days=t) for t in scenario.spec.schedule.update_steps]
    (directory / "release_dates.txt").write_text("".join(f"{d}\n" for d in releases))
    plan = {"scenario": json.loads(source.read_text()), "trials": 2}
    (directory / "plan.json").write_text(json.dumps(plan))


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every documented `hybridsis` line, in order, beside a copy of scenarios/
    # and the input files that fit and study read
    text = "\n".join(re.findall(r"```sh\n(.*?)```", README, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("hybridsis ")]
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    write_fit_and_study_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, f"hybridsis {shlex.join(argv)} exited {code}: {err.getvalue()}"
        ran.append(argv[0])
    assert ran == ["simulate"] * 3 + ["identify", "estimate", "forecast", "fit", "study"]
