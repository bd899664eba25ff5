import contextlib
import io
import re
import shlex
import shutil

from conftest import ROOT

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


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every documented `hybridsis` line, in order, beside a copy of scenarios/;
    # fit and study read input files the README does not create
    text = "\n".join(re.findall(r"```sh\n(.*?)```", README, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("hybridsis ")]
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in commands:
        if argv[0] in ("fit", "study"):
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, f"hybridsis {shlex.join(argv)} exited {code}: {err.getvalue()}"
        ran.append(argv[0])
    assert ran == ["simulate"] * 3 + ["identify", "estimate", "forecast"]
