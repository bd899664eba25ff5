"""Find the checks no test pins: a mutation probe over src/hybridsis.

    python3 bench/mutants.py [--modules model,ingest,...]

In a temporary copy of the repository, each mutant turns one raise into pass, or one one-line
if, while or conditional-expression test into True or False.  It is killed when its module's
tests/test_<module>.py -x, then tier-1, fails or times out.  One pytest runs at a time, with no
bytecode files and 2 GiB of address space, so a mutant that loops cannot exhaust memory.
"""

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = "model,ingest,estimate,experiments,cli,simulate"  # simulate's tests are slowest
TIMEOUT = 180.0  # seconds per pytest run


def mutants(source: bytes):
    """(line, operator, mutated source) for every mutant of one module."""
    lines = source.splitlines(keepends=True)
    def splice(node, text: bytes) -> bytes:  # ast offsets count UTF-8 bytes
        start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
        end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
        return source[:start] + text + source[end:]

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            yield node.lineno, "raise", splice(node, b"pass")
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            if node.test.lineno == node.test.end_lineno:
                for const in (b"True", b"False"):
                    if (mutated := splice(node.test, const)) != source:  # not `while True`
                        yield node.lineno, const.decode(), mutated


def passes(work: Path, tests: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return 0 == subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, timeout=TIMEOUT, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
    except subprocess.TimeoutExpired:
        return False


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--modules", default=MODULES, help=f"comma-separated (default {MODULES})")
    args = p.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        skip = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "work", "out")
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(*skip))
        if not passes(work, []):
            sys.exit("tier-1 fails on the unmutated copy")
        for module in args.modules.split(","):
            path = work / "src" / "hybridsis" / f"{module}.py"
            original, run, survived = path.read_bytes(), 0, 0
            for run, (line, operator, mutated) in enumerate(mutants(original), 1):
                path.write_bytes(mutated)
                if all(passes(work, t) for t in ([f"tests/test_{module}.py"], [])):
                    survived += 1
                    text = original.splitlines()[line - 1].decode().strip()
                    print(f"  survivor {module}.py:{line} {operator}: {text}", flush=True)
            path.write_bytes(original)
            print(f"{module}: {run} run, {run - survived} killed, {survived} surviving", flush=True)


if __name__ == "__main__":
    main()
