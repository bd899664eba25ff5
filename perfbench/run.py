"""Benchmark of the hybridsis command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  Workloads: study,
fit_catalog, fit_smooth7, many_releases (see workloads.py for sizes and
BENCHMARK.json for why each gated one was chosen).

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s   median over SETUP_PROBES fresh interpreters of the time to import
            hybridsis and generate the workload's input files;
  pass_s    median wall time of one full pass of the workload's CLI calls,
            over the passes that fit in --seconds (at least MIN_PASSES);
  peak_mb   peak resident memory of the first pass above the resident size
            just before it; that pass runs in a forked child, whose
            high-water mark starts at the fork, so set-up cannot leak in.
            The figure includes the library code pages the child faults
            back in, about 8 MiB even for toy-size inputs.
There is no untimed warm-up pass: the package does all its set-up at import,
and each real CLI call starts a fresh process anyway.
--trace 1 alternates untraced and traced passes for --seconds and reports the
per-layer metrics of tracing.py: per-pass self time and call count of every
wrapped function, the counters, and the tracing overhead (median traced pass
minus median untraced pass).  Spans are written to perfbench/out/.

Every CLI call is one operation; it fails when it raises, exits non-zero, or
its output fails a check.  The last line of stdout is one JSON object with
correct, attempted, failed and metrics.  BLAS runs on one thread so that the
load is one process with one busy thread.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 5
MIN_PASSES = 2
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one fresh interpreter: import the package, then write the inputs
SETUP_PROBE = """\
import sys, time
from pathlib import Path
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hybridsis.cli
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), sys.argv[6] == "1")
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the harness test")
    return p.parse_args(argv)


def _rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _setup_seconds(args, work: Path) -> list[float]:
    times = []
    for k in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), args.workload,
             str(args.seed), str(work / f"setup_{k}"), "1" if args.toy else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
        shutil.rmtree(work / f"setup_{k}")
    return times


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def _timed_pass(workload, inputs, state, ops):
    import hybridsis.cli
    import workloads

    gc.collect()
    t0 = time.perf_counter()
    done = workloads.run_pass(workload, inputs, hybridsis.cli.main, state)
    seconds = time.perf_counter() - t0
    ops.extend(done)
    return seconds, done


def _another_pass_fits(passes, start, seconds) -> bool:
    """Whether a pass as long as the median one so far would still end within
    seconds of start, so that no run outlasts --seconds by most of a pass."""
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def _first_pass(workload, inputs, state, ops):
    """One timed pass in a forked child.  The kernel starts a child's
    high-water mark at its resident size at the fork, so the peak it reports
    is the pass's own, whatever the parent's set-up touched before.
    Returns the pass's seconds and its peak above the child's starting size."""
    # hand freed heap pages back first, so the child starts from a resident
    # size that does not depend on what set-up freed
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            before = _rss_mib()
            seconds, done = _timed_pass(workload, inputs, state, [])
            peak = _max_rss_mib() - before
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump((seconds, done, state, peak), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        raise RuntimeError(f"the first pass's child process failed with status {status}")
    seconds, done, child_state, peak = pickle.loads(payload)
    state.update(child_state)
    ops.extend(done)
    return seconds, done, peak


def _end_to_end(args, inputs, work, ops, report) -> dict:
    setup = _setup_seconds(args, work)
    state: dict = {}
    start = time.perf_counter()
    seconds, done, peak = _first_pass(args.workload, inputs, state, ops)
    passes = [seconds]
    fit_latencies = [op.seconds for op in done if op.argv[0] == "fit"]
    while len(passes) < MIN_PASSES or _another_pass_fits(passes, start, args.seconds):
        seconds, done = _timed_pass(args.workload, inputs, state, ops)
        passes.append(seconds)
        fit_latencies.extend(op.seconds for op in done if op.argv[0] == "fit")

    report(f"setup_s: median of {len(setup)} probes {[round(s, 4) for s in setup]}")
    report(f"pass_s: median of {len(passes)} passes {[round(s, 4) for s in passes]}")
    if len(fit_latencies) >= 20:
        q = statistics.quantiles(fit_latencies, n=10)
        report(f"fit_s_p50 = {statistics.median(fit_latencies):.6f} s, "
               f"fit_s_p90 = {q[-1]:.6f} s over {len(fit_latencies)} fit calls")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_mb": (peak, "MiB"),
    }


def _per_layer(args, inputs, ops, report) -> dict:
    import tracing

    state: dict = {}
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not (plain and traced) or _another_pass_fits(plain + traced, start, args.seconds):
        if len(plain) <= len(traced):
            plain.append(_timed_pass(args.workload, inputs, state, ops)[0])
            continue
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            origin = time.perf_counter()
            traced.append(_timed_pass(args.workload, inputs, state, ops)[0])
        tracers.append((tracer, origin))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": [t.span_records(origin) for t, origin in tracers]}, fh)
        fh.write("\n")

    self_times = [t.self_times() for t, _ in tracers]
    last = tracers[-1][0]
    calls = Counter(s.name for s in last.spans)
    metrics = {}
    for layer, fns in tracing.LAYERS.items():
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            metrics[f"{name}.self_s"] = (statistics.median(st[name] for st in self_times), "s")
            metrics[f"{name}.calls"] = (calls[name], "count")
    for name, value in last.counters().items():
        metrics[name] = (value, tracing.COUNTERS[name])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    report(f"traced passes {[round(s, 4) for s in traced]}, "
           f"untraced passes {[round(s, 4) for s in plain]}")
    top = sorted(((v, n) for n, (v, u) in metrics.items() if n.endswith(".self_s")), reverse=True)
    report("largest self times: " + ", ".join(f"{n} {v:.4f} s" for v, n in top[:3]))
    report(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hybridsis" / "__init__.py").is_file():
        print(f"error: no hybridsis sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import hybridsis
    import workloads

    if Path(hybridsis.__file__).resolve().parent != SRC / "hybridsis":
        print(f"error: imported hybridsis from {hybridsis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    report(f"environment {json.dumps(_environment())}")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    ops: list = []
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, work / "inputs", args.toy)
        if args.trace:
            metrics = _per_layer(args, inputs, ops, report)
        else:
            metrics = _end_to_end(args, inputs, work, ops, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.error]
    report(f"fail_ratio = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} "
           "operations failed")
    for error in sorted({op.error for op in failed})[:5]:
        report(f"  failure: {error}")
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
