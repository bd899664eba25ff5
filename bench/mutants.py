"""Find the checks no test pins: a mutation probe over src/hybridsis.

    python3 bench/mutants.py [--modules model,ingest,...]

In a temporary copy of the repository, each mutant turns one raise into pass, one one-line
if, while or conditional-expression test into True or False, or flips one comparison operator
of a comparison (< and <=, > and >=, == and !=; a chain a < b <= c gives one mutant per
operator).  It is killed when its module's tests/test_<module>.py -x, then tier-1, fails or
times out.  Counts are printed per module and per operator.  One pytest runs at a time, with no
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
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


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
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    flipped = FLIPS[type(op)]()
                    ops = [*node.ops[:k], flipped, *node.ops[k + 1:]]
                    # only this comparison is re-rendered; the rest of the file keeps its bytes
                    text = ast.unparse(ast.Compare(node.left, ops, node.comparators))
                    yield node.lineno, f"{SYMBOLS[type(op)]} to {SYMBOLS[type(flipped)]}", \
                        splice(node, text.encode())


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
            original, counts = path.read_bytes(), {}  # operator: [run, surviving]
            for line, operator, mutated in mutants(original):
                path.write_bytes(mutated)
                survived = all(passes(work, t) for t in ([f"tests/test_{module}.py"], []))
                tally = counts.setdefault(operator, [0, 0])
                tally[0] += 1
                tally[1] += survived
                if survived:
                    text = original.splitlines()[line - 1].decode().strip()
                    print(f"  survivor {module}.py:{line} {operator}: {text}", flush=True)
            path.write_bytes(original)
            counts["all"] = [sum(tally[i] for tally in counts.values()) for i in (0, 1)]
            for operator, (run, survived) in sorted(counts.items()):
                print(f"{module} {operator}: {run} run, {run - survived} killed, {survived} surviving",
                      flush=True)


if __name__ == "__main__":
    main()
