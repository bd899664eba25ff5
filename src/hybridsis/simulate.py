"""Trajectory generators for the jump-augmented SIS demand model.

Every generator shares one convention for release steps: the output step
that lands on a release index T_i carries the jump and nothing else,

    x[T_i] = (1 + alpha_i) * x[T_i - 1],

so the sampled output of every generator obeys the same release rule as the
identification model.  The share is a fraction, so a release that maps it
outside [0, 1] leaves the model, and every generator raises ValueError on
one; only replays of raw estimates (forecast, the real-data refits) run the
rule unchecked, since the recursion is defined outside [0, 1] too.  Between
releases:

  simulate_dt   the sampled recursion x + h * (beta (1 - x) x - gamma x),
                one step per sample.
  simulate_ct   the continuous SIS flow.  With fixed rates it is logistic,
                so it evaluates the closed form at every sample.
  simulate_sde  the Euler recursion, substeps steps of size h / substeps
                per sample, plus multiplicative demand noise
                sigma * x * sqrt(dt) * z per sub-step, floored at zero.

The recursion is written once, in _recurse; simulate_dt, simulate_sde,
estimate.forecast and the real-data refits are all calls to it.  It
evaluates each step factored, x + x * (a - c * x + w) with a = dt (beta -
gamma) and c = dt beta per interval; simulate_sde scales its normals in
place to w = sigma * sqrt(dt) * z, and the noiseless callers add w = 0.0.
simulate_sde with sigma=0 is the noiseless Euler recursion at any sub-step
count bit for bit, and at one sub-step it reproduces simulate_dt sample for
sample.  All stochastic draws come from numpy's PCG64 generator seeded
explicitly; normals are drawn in fixed-size chunks of the one generator's
stream, consumed in simulation order, so equal seeds give equal paths on any
platform with the same numpy series.  Each generator allocates its output once.
Arguments are checked by model's owners: _check_start, _check_sigma, _check_count.
"""

from __future__ import annotations

import csv
import math
import warnings
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import HybridModelSpec, IntervalParams, Trajectory, UpdateSchedule
from .model import _check_count, _check_sigma, _check_start

__all__ = [
    "StabilityWarning",
    "simulate_dt",
    "simulate_ct",
    "simulate_sde",
    "add_observation_noise",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

_CHUNK = 8192  # normals drawn, or flow samples evaluated, at a time: the only other working memory
_WRITE_CHUNK = 2048  # rows formatted and written at a time: bounds the working set


class StabilityWarning(UserWarning):
    """Step size large enough that the sampled recursion can oscillate."""


def _warn_stability(spec: HybridModelSpec) -> None:
    h = spec.schedule.step_size
    for i, p in enumerate(spec.intervals):
        if h * (p.beta + p.gamma) >= 2.0:
            warnings.warn(
                f"interval {i}: h * (beta + gamma) = {h * (p.beta + p.gamma):.3g} >= 2; "
                "the sampled recursion may oscillate or diverge at this step size",
                StabilityWarning,
                stacklevel=3,
            )


def _apply_jump(x_pre: float, alpha: float, interval: int, check: bool) -> float:
    """The release rule (1 + alpha) * x_pre.  With check, a result outside
    [0, 1] raises; raw estimates replay it unchecked."""
    x_new = (1.0 + alpha) * x_pre
    if check and not 0.0 <= x_new <= 1.0:
        raise ValueError(
            f"release opening interval {interval} maps share {x_pre:.6g} to "
            f"{x_new:.6g}, outside [0, 1]"
        )
    return x_new


def _recurse(
    schedule: UpdateSchedule,
    intervals: Sequence[IntervalParams],
    x0: float,
    *,
    substeps: int = 1,
    noise: Iterable[Sequence[float]] | None = None,
    check: bool = True,
) -> tuple[np.ndarray, int]:
    """The sampled recursion over a schedule; returns (values, clamps).

    A release sample applies the jump rule alone, through _apply_jump with
    `check` (False for raw estimates).  Interval i's ordinary samples are
    one flat run of (stop - start) * substeps steps, where [start, stop) is
    schedule.bounds[i]:

        x <- x + x * (a - c * x + w),   a = dt (beta - gamma),  c = dt beta,

    dt = h / substeps, which is x + dt * (beta (1 - x) x - gamma x) + w x
    factored so that a step costs five float operations.  Without `noise`,
    w = 0.0, and adding 0.0 is exact.  `noise` is an iterable of float64
    chunks of the scaled increments w = sigma * sqrt(dt) * z, consumed in
    order, one per step, as memoryview slices; the next chunk is asked for
    only once this one is spent, so a producer may refill one buffer.  With
    noise, each step floors the result at zero, counting each floor in clamps.

    The run yields every state, and x0 and each release state are yielded
    `substeps` times, so every sample is `substeps` consecutive states; the
    islice keeps the last of each, and np.fromiter writes it straight into
    the output array, which is returned frozen.
    """
    clamps = 0
    chunks = None if noise is None else iter(noise)
    chunk, used = memoryview(b""), 0  # the current chunk and how much of it is spent

    def increments(n: int):  # the next n, as slices of the chunks
        nonlocal chunk, used
        while n:
            if used == len(chunk):
                chunk, used = memoryview(next(chunks)), 0
            k = min(n, len(chunk) - used)
            yield chunk[used : used + k]
            used, n = used + k, n - k

    def states():
        nonlocal clamps
        dt = schedule.step_size / substeps
        floor = chunks is not None
        x = float(x0)
        yield from repeat(x, substeps)
        for i, (p, (start, stop)) in enumerate(zip(intervals, schedule.bounds.tolist())):
            if i > 0:
                x = _apply_jump(x, p.alpha, i, check)
                yield from repeat(x, substeps)
            a, c = dt * (p.beta - p.gamma), dt * p.beta
            n = (stop - start) * substeps
            for run in (repeat(0.0, n),) if chunks is None else increments(n):
                for w in run:
                    x = x + x * (a - c * x + w)
                    if x < 0.0 and floor:
                        x = 0.0
                        clamps += 1
                    yield x

    kept = islice(states(), substeps - 1, None, substeps)
    values = np.fromiter(kept, float, schedule.n_samples)
    values.setflags(write=False)
    return values, clamps


def _logistic_flow(x0: float, beta: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Exact SIS flow from x0 after times t (fixed rates: a logistic curve).

    For r = beta - gamma > 0 numerator and denominator are divided by e^{rt},
    so long intervals neither overflow nor cancel.
    """
    r = beta - gamma
    if x0 == 0.0:
        return np.zeros_like(t)
    if r == 0.0:
        return x0 / (1.0 + beta * x0 * t)
    if r < 0.0:
        e = np.expm1(r * t)
        return r * x0 * (1.0 + e) / (r + beta * x0 * e)
    return r * x0 / (r * np.exp(-r * t) - beta * x0 * np.expm1(-r * t))


def simulate_dt(spec: HybridModelSpec, x0: float) -> Trajectory:
    """Run the sampled model exactly as the estimator assumes it.

    Ordinary steps apply x + h * (beta (1 - x) x - gamma x) with the active
    interval's rates; a step landing on a release index applies the jump rule
    alone.  A release pushing the share outside [0, 1] raises ValueError.
    """
    x = _check_start(x0)
    _warn_stability(spec)
    xs, _ = _recurse(spec.schedule, spec.intervals, x)
    return Trajectory(values=xs, step_size=spec.schedule.step_size)


def simulate_ct(spec: HybridModelSpec, x0: float) -> Trajectory:
    """The continuous SIS flow, sampled every step_size.

    Evaluates the closed-form logistic solution

        x(t) = r x0 e^{rt} / (r + beta x0 (e^{rt} - 1)),   r = beta - gamma,

    (x0 / (1 + beta x0 t) when r = 0) at every sample, with t measured from
    the interval's opening sample.  Release steps apply the jump rule to the
    previous sample and skip the flow, keeping the sampled release
    convention identical across all generators.
    """
    x = _check_start(x0)
    sched = spec.schedule
    xs = np.empty(sched.n_samples, dtype=float)
    xs[0] = x
    for i, (p, (start, stop)) in enumerate(zip(spec.intervals, sched.bounds.tolist())):
        if i > 0:  # the release sample T_i opens interval i
            x = _apply_jump(x, p.alpha, i, check=True)
            xs[start] = x
        for a in range(start, stop, _CHUNK):  # the flow _CHUNK samples at a time
            t = sched.step_size * np.arange(a - start + 1, min(a + _CHUNK, stop) - start + 1)
            xs[a + 1 : a + 1 + t.size] = _logistic_flow(x, p.beta, p.gamma, t)
        x = float(xs[stop])
    xs.setflags(write=False)
    return Trajectory(values=xs, step_size=sched.step_size)


def simulate_sde(
    spec: HybridModelSpec,
    x0: float,
    *,
    seed: int = 0,
    sigma: float = 0.0,
    substeps: int = 1,
) -> Trajectory:
    """Euler-Maruyama path of the SIS flow with multiplicative demand noise.

    Each sub-step applies

        x <- x + dt * (beta (1 - x) x - gamma x) + sigma * x * sqrt(dt) * z

    with z standard normal, evaluated as x + x * (a - c * x + w) (see
    _recurse).  The normals are fixed-size chunks of the one generator's
    stream, consumed in simulation order: _CHUNK at a time are drawn into one
    buffer and scaled there to the increments w = sigma * sqrt(dt) * z, so
    working memory grows with neither the path nor substeps.  Zero is
    absorbing for the noiseless flow, so any excursion below zero is clamped
    back to zero and counted in the returned trajectory's clamp_count.  With
    sigma = 0 every w is zero and the output is the noiseless Euler
    recursion bit for bit, which at one sub-step equals simulate_dt.  seed
    seeds the PCG64 generator, substeps is the number of Euler steps per
    sample.
    """
    sigma, substeps = _check_sigma(sigma), _check_count(substeps, "substeps")
    x = _check_start(x0)
    sched = spec.schedule
    rng = np.random.Generator(np.random.PCG64(seed))
    scale, buffer = sigma * math.sqrt(sched.step_size / substeps), np.empty(_CHUNK)
    total = (sched.final_step - sched.n_updates) * substeps  # every step but a release flows
    chunks = (buffer[: min(total - a, _CHUNK)] for a in range(0, total, _CHUNK))
    noise = (np.multiply(rng.standard_normal(out=z), scale, out=z) for z in chunks)  # lazy
    xs, clamps = _recurse(sched, spec.intervals, x, substeps=substeps, noise=noise)
    return Trajectory(values=xs, step_size=sched.step_size, clamp_count=clamps)


def add_observation_noise(traj: Trajectory, sigma: float, seed: int) -> Trajectory:
    """Independent N(0, sigma^2) measurement noise on every sample.

    Results are clamped to [0, 1]; the number of clamped samples is recorded
    on the returned trajectory.  Equal seeds give equal noise.
    """
    sigma = _check_sigma(sigma)
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = rng.standard_normal(len(traj))  # the result is built in place here
    noisy *= sigma
    noisy += traj.values
    clamps = int(np.count_nonzero(noisy < 0.0)) + int(np.count_nonzero(noisy > 1.0))
    np.clip(noisy, 0.0, 1.0, out=noisy)
    noisy.setflags(write=False)
    return Trajectory(
        values=noisy,
        step_size=traj.step_size,
        population=traj.population,
        clamp_count=clamps,
    )


# Rows are laid out as uint32 words, each holding up to four ASCII bytes
# padded with NUL, and joined by deleting every NUL.  A number takes one word
# per 4-digit group, so a field is as wide as its block's largest value needs.


def _group_words() -> np.ndarray:
    """The ASCII word of every 4-digit group q, rendered four ways: from 0,
    all four digits; from _LEAD, leading zeros as NUL (so 0 is all NUL);
    from _LAST, the same but 0 is "0"; from _TRAIL, trailing zeros as NUL."""
    q = np.arange(10_000)[:, None]
    tens = 10 ** np.arange(3, -1, -1)
    digits = (q // tens % 10 + ord("0")).astype(np.uint8)
    lead = q >= tens
    keep = [np.ones_like(lead), lead, lead | (tens == 1), q % (10 * tens) != 0]
    return np.concatenate([np.where(k, digits, 0).view(np.uint32).ravel() for k in keep])


def _words(*strings: str) -> np.ndarray:
    return np.frombuffer("".join(s.ljust(4, "\0") for s in strings).encode("ascii"), np.uint32)


_GROUPS = _group_words()
_LEAD, _LAST, _TRAIL = 10_000, 20_000, 30_000
_POINT = _words("", ".", ".0", ".00", ".000")  # a point and the zeros after it
_MINUS, _COMMA, _NEWLINE = _words("-", ",", "\n")
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(23)  # exact doubles up to 1e22
_POW10_HIGH = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)  # their Veltkamp high halves


def _leading_words(n: np.ndarray) -> list:
    """str(n) for int64 n >= 0: one word per 4-digit group, up to the group
    of the largest n, leading zeros as NUL."""
    words, mode = [], _LAST  # the last group shows 0 as "0"
    while True:
        rest = n // 10_000
        top = rest == 0  # no digit above this group
        words.append(_GROUPS[n - rest * 10_000 + top * mode])
        if top.all():
            return words[::-1]
        n, mode = rest, _LEAD


def _fallback(words: list, rows: np.ndarray, spec: str, values: list) -> None:
    """Write spec % value over the words of each row in rows, adding NUL
    words to fit.  The % operator pads with spaces, in one call for all
    rows, and no number contains a space, so they become NUL."""
    while 4 * len(words) < 24:  # len("-1.2345678901234567e-308") > len(str(-2**63))
        words.append(np.zeros_like(words[0]))
    text = (f"%-{4 * len(words)}{spec}" * len(values)) % tuple(values)
    joined = np.frombuffer(text.encode("ascii"), np.uint8).copy()
    joined[joined == ord(" ")] = 0
    for word, column in zip(words, joined.view(np.uint32).reshape(len(rows), -1).T):
        word[rows] = column


def _int_words(k: np.ndarray) -> list:
    """str(k) for int64 k, as words; a negative k is formatted by %d."""
    fast = k >= 0
    words = _leading_words(np.where(fast, k, 0))
    if not fast.all():
        rows = np.flatnonzero(~fast)
        _fallback(words, rows, "d", k[rows].tolist())
    return words


def _float_words(v: np.ndarray) -> list:
    """format(v, ".17g") for float64 v, as words.

    For 1e-4 <= |v| < 1e16, .17g is fixed-point with 17 significant digits,
    the integer D = round(|v| * 10**p) with p = 16 - floor(log10 |v|),
    rounded half to even as Python's dtoa rounds.  10**p is exact and
    |v| * 10**p is formed exactly as hi + lo (Dekker's two-product), so D is
    exact.  log10 is only a guess at the exponent: a value whose exact
    product is not in [1e16, 1e17), or whose D carries to 1e17, is formatted
    by "%.17g" itself, as is every other value but 0.0 and -0.0.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)  # keeps the arithmetic below finite and exact
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    b, bh = _POW10[p], _POW10_HIGH[p]
    bl = b - bh
    hi = a * b
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl  # hi + lo == a * b exactly
    # hi >= 1e16 > 2**53 is an even integer, so rint(lo) rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((hi - 1e16) + lo >= 0.0) & (d < 10**17)  # the sign of the exact a * b - 1e16
    d = np.where(fast, d, 0)  # every other value is laid out as 0, then overwritten
    fast |= v == 0.0
    # |v| = d * 10**-p: integer part i, then the fraction as 17 digits g
    div = _POW10_INT[np.minimum(p, 17)]
    i = d // div
    g = (d - i * div) * _POW10_INT[np.maximum(17 - p, 0)]
    top = g // 10**16
    r = g - top * 10**16
    frac, zeros_after = [], True
    for _ in range(4):
        rest = r // 10_000
        q = r - rest * 10_000
        frac.append(_GROUPS[q + zeros_after * _TRAIL])
        zeros_after = zeros_after & (q == 0)
        r = rest
    nonzero = g != 0
    words = _leading_words(i) + [
        _POINT[nonzero * np.maximum(p - 16, 1)],
        np.where(nonzero, _GROUPS[_LAST + top], 0),
        *frac[::-1],
    ]
    negative = np.signbit(v)
    if negative.any():
        words.insert(0, np.where(negative, _MINUS, 0))
    if not fast.all():
        rows = np.flatnonzero(~fast)
        _fallback(words, rows, ".17g", v[rows].tolist())
    return words


def _join_rows(fields: list) -> str:
    """CSV text of the rows whose fields (lists of words) are given."""
    words = [word for field in fields for word in field + [_COMMA]]
    words[-1] = _NEWLINE
    out = np.empty((len(words), fields[0][0].size), np.uint32)
    for row, word in zip(out, words):
        row[...] = word
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


def _write_trajectory_rows(traj: Trajectory, fh) -> None:
    counts = traj.to_counts() if traj.population is not None else None
    fh.write("step,time,x" + (",count" if counts is not None else "") + "\n")
    n = len(traj)
    for a in range(0, n, _WRITE_CHUNK):
        b = min(a + _WRITE_CHUNK, n)
        step = np.arange(a, b)
        # int64 * float64 is the same IEEE product as Python's k * h
        fields = [_int_words(step), _float_words(step * traj.step_size), _float_words(traj.values[a:b])]
        if counts is not None:
            fields.append(_int_words(counts[a:b]))
        fh.write(_join_rows(fields))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write step,time,x rows, plus a count column when a population is set.

    path may be a filesystem path or an open text stream.  Every row is
    "{k},{k*h:.17g},{x:.17g}[,{count}]": 17 significant digits round-trip a
    double exactly.  The digits are computed in numpy, _WRITE_CHUNK rows at
    a time, and the bytes are those of Python's format(): a float outside
    1e-4 <= |v| < 1e16 (other than 0.0 and -0.0) or a negative count is
    formatted by the % operator itself.
    """
    if hasattr(path, "write"):
        _write_trajectory_rows(traj, path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_trajectory_rows(traj, fh)


def _csv_may_differ(path) -> bool:
    """Whether the csv module may reject what numpy parsed: NUL (before Python 3.11),
    ASCII 0x1C-0x1F around a number, a field over 128 KiB (in 64 KiB with no line end)."""
    with open(path, "rb") as raw:
        for c in iter(partial(raw.read, 1 << 16), b""):
            if not (b"\n" in c or b"\r" in c) or any(map(c.__contains__, b"\0\x1c\x1d\x1e\x1f")):
                return True
    return False


def _grid_step(path, times: Sequence[float], linenos: Sequence[int]) -> float:
    """times[1] - times[0], once every time is within a relative 1e-9 of k*h."""
    if len(times) < 2:
        raise ValueError(f"{path}: a trajectory needs at least 2 samples")
    h = times[1] - times[0]
    if h <= 0.0:
        raise ValueError(f"{path}: non-positive step size {h}")
    t = np.asarray(times)
    # |t - k*h| <= 1e-9 * max(1, |t|, |k*h|) in two buffers; k*h >= 0 is its own |k*h|
    grid = np.arange(t.size, dtype=float)
    grid *= h
    bound = np.abs(t)
    np.maximum(bound, grid, out=bound)
    np.maximum(bound, 1.0, out=bound)
    bound *= 1e-9
    np.subtract(t, grid, out=grid)
    np.abs(grid, out=grid)
    # written as "not within" so that a NaN time is off the grid too
    off = ~(grid <= bound)
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(
            f"{path}:{linenos[k]}: time {times[k]!r} is off the even grid "
            f"k*h = {float(k * h)!r} (h = {h!r} from the first two rows)"
        )
    return h


def _read_csv(path, check_header, dtype, parse, row_loop, usecols=None):
    """Parse a CSV body in C, explain a rejected one in Python.

    check_header(first row or None) raises on a bad header.  np.loadtxt then
    parses the body as `dtype` (warnings as errors) and parse(rows) returns
    the result, or None, or raises ValueError to reject it.  A rejected body,
    a file the csv module may read differently, or a stream that cannot seek
    (a pipe is read once) goes to row_loop(reader), which names the bad line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        check_header(next(reader, None))
        if fh.seekable():
            try:  # any error or warning here ("input contained no data" too) re-reads below
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, dtype, comments=None, delimiter=",",
                                      quotechar='"', usecols=usecols, ndmin=1)
                    result = parse(rows)
                if result is not None and not _csv_may_differ(path):
                    return result
            except (ValueError, Warning):
                pass
            fh.seek(0)  # rejected: re-read line by line, to name the bad line
            reader = csv.reader(fh)  # a new reader counts lines from the top again
            next(reader)
        return row_loop(reader)


def _records(reader):
    """(line, row) for each record left in reader, line being the record's
    first physical line: a quoted field can span lines, in the header too."""
    line = reader.line_num
    for row in reader:
        yield line + 1, row
        line = reader.line_num


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    The step size h is recovered from the first two times, and every time
    must equal k * h to a relative 1e-9; any count column is ignored (the
    population scale is not stored in the file).  The body is parsed in C,
    and a rejected file is re-read line by line to name the bad line.
    """

    def check_header(header):
        if header is None or [c.strip() for c in header[:3]] != ["step", "time", "x"]:
            raise ValueError(f"{path}: expected header step,time,x[,count]")

    def parse(rows):
        steps, t, x = (rows[name] for name in rows.dtype.names)
        if np.array_equal(steps, np.arange(t.size)):  # Trajectory rejects NaN and inf
            return Trajectory(values=x, step_size=_grid_step(path, t, linenos=steps))
        return None

    def row_loop(reader):
        values, times, linenos = [], [], []
        for lineno, row in _records(reader):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno}: expected at least 3 columns")
            try:
                step = int(row[0])
                t = float(row[1])
                x = float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if not math.isfinite(x):
                raise ValueError(f"{path}:{lineno}: share {row[2].strip()!r} is not finite")
            if step != len(values):
                raise ValueError(f"{path}:{lineno}: step {step} out of order")
            values.append(x)
            times.append(t)
            linenos.append(lineno)
        return Trajectory(values=np.asarray(values), step_size=_grid_step(path, times, linenos))

    return _read_csv(path, check_header, np.dtype("i8,f8,f8"), parse, row_loop, usecols=(0, 1, 2))
