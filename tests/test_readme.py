import contextlib
import io
import re

from conftest import ROOT


def test_readme_python_example_runs(monkeypatch):
    # the README's Python API example, run from the repo root as a reader would
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "interval_0" in out.getvalue()
