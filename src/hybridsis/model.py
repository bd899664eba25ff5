"""Domain types for the jump-augmented SIS demand model.

A product's active-user share x in [0, 1] follows SIS dynamics

    dx/dt = beta * (1 - x) * x - gamma * x

between releases, and an instantaneous jump x -> (1 + alpha) * x at each
release time.  m releases split the horizon into m + 1 intervals; interval 0
runs from the start and carries only (beta, gamma), every later interval i
additionally carries the jump scale alpha_i of the release that opened it.

The sampled (step h) counterpart used for identification is

    x[k+1] = x[k] + h * (beta_i * (1 - x[k]) * x[k] - gamma_i * x[k])

for ordinary steps, and x[T_i] = (1 + alpha_i) * x[T_i - 1] across a release
scheduled at sample index T_i.  Note the release step carries no factor h.
UpdateSchedule.bounds holds each interval's range of ordinary steps.

The flat parameter vector used by the estimator is

    theta = [beta_0, gamma_0, alpha_1, beta_1, gamma_1, ..., alpha_m, beta_m, gamma_m]

with length 2 + 3 m.

Each numeric argument's rule has one owner, which every entry point calls:
_check_count, _check_sigma, _check_step, _check_start and _check_population.
Each applies _number's type rule first, so API arguments take what JSON does.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "IntervalParams",
    "UpdateSchedule",
    "HybridModelSpec",
    "Trajectory",
    "Scenario",
    "theta_pack",
    "theta_unpack",
    "theta_slice",
    "parameter_names",
    "reproduction_number",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_schedule",
]


@dataclass(frozen=True)
class IntervalParams:
    """Per-interval rates; alpha is None exactly for the opening interval.

    The record itself does not range-check: unconstrained least-squares
    estimates (which may go negative under heavy noise) travel through the
    same type.  Range validation happens where a simulatable model is
    assembled, in HybridModelSpec.
    """

    beta: float
    gamma: float
    alpha: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", float(self.alpha))


def reproduction_number(params: IntervalParams) -> float:
    """Basic reproduction number beta / gamma of one interval, or NaN where
    gamma is zero and the ratio is undefined (raw estimates may have it)."""
    return params.beta / params.gamma if params.gamma != 0.0 else float("nan")


@dataclass(frozen=True)
class UpdateSchedule:
    """Release sample indices 0 < T_1 < ... < T_m < final_step, plus step size.

    final_step is the index of the last sample, so a trajectory matching this
    schedule holds final_step + 1 values.
    """

    update_steps: tuple[int, ...]
    final_step: int
    step_size: float

    def __post_init__(self) -> None:
        steps = tuple(_number(t, "update step", int) for t in self.update_steps)
        object.__setattr__(self, "update_steps", steps)
        object.__setattr__(self, "final_step", _check_count(self.final_step, "final step"))
        object.__setattr__(self, "step_size", _check_step(self.step_size))
        for a, b in zip(steps, steps[1:]):
            if b <= a:
                raise ValueError(f"update steps must be strictly increasing, got {steps}")
        if steps and steps[0] < 1:
            raise ValueError(f"first update step must be positive, got {steps[0]}")
        if steps and steps[-1] >= self.final_step:
            raise ValueError(
                f"last update step {steps[-1]} must lie before final step {self.final_step}"
            )

    @property
    def n_updates(self) -> int:
        return len(self.update_steps)

    @property
    def n_intervals(self) -> int:
        return len(self.update_steps) + 1

    @property
    def n_samples(self) -> int:
        return self.final_step + 1

    @cached_property
    def bounds(self) -> np.ndarray:
        """Read-only (n_intervals, 2) int array: row i is [start, stop), the
        sample indices k whose step k -> k+1 is an ordinary SIS step of
        interval i.

        Interval i >= 1 starts at its release T_i.  Every interval but the
        last stops at T_{i+1} - 1: the difference ending at T_{i+1} is the
        next interval's release row T_{i+1} - 1.  The last interval has no
        later release, so it keeps the tail and runs through final_step - 1.
        This asymmetry is encoded here and nowhere else.
        """
        edges = np.array([0, *self.update_steps, self.final_step + 1])
        bounds = np.stack([edges[:-1], edges[1:] - 1], axis=1)
        bounds.setflags(write=False)
        return bounds


def theta_pack(intervals: Sequence[IntervalParams]) -> np.ndarray:
    """Flatten per-interval parameters into the estimator's theta layout."""
    if not intervals:
        raise ValueError("at least one interval is required")
    if intervals[0].alpha is not None:
        raise ValueError("interval 0 opens the record and must not carry alpha")
    out = [intervals[0].beta, intervals[0].gamma]
    for i, p in enumerate(intervals[1:], start=1):
        if p.alpha is None:
            raise ValueError(f"interval {i} follows a release and must carry alpha")
        out.extend((p.alpha, p.beta, p.gamma))
    return np.asarray(out, dtype=float)


def theta_unpack(theta: Sequence[float] | np.ndarray) -> tuple[IntervalParams, ...]:
    """Inverse of theta_pack.  Length must be 2 + 3 m for some m >= 0."""
    vec = np.asarray(theta, dtype=float).ravel()
    if vec.size < 2 or (vec.size - 2) % 3 != 0:
        raise ValueError(f"theta length {vec.size} is not 2 + 3m for any m >= 0")
    intervals = [IntervalParams(beta=vec[0], gamma=vec[1])]
    for j in range(2, vec.size, 3):
        intervals.append(IntervalParams(alpha=vec[j], beta=vec[j + 1], gamma=vec[j + 2]))
    return tuple(intervals)


def theta_slice(interval: int) -> slice:
    """Where interval >= 0 sits in theta: [beta_0, gamma_0] for interval 0,
    [alpha_i, beta_i, gamma_i] for interval i >= 1."""
    return slice(0, 2) if interval == 0 else slice(3 * interval - 1, 3 * interval + 2)


def parameter_names(n_updates: int) -> list[str]:
    """Names matching the theta layout: beta0, gamma0, alpha1, beta1, ..."""
    names = ["beta0", "gamma0"]
    for i in range(1, n_updates + 1):
        names.extend((f"alpha{i}", f"beta{i}", f"gamma{i}"))
    return names


@dataclass(frozen=True)
class HybridModelSpec:
    """A simulatable model: schedule plus one parameter record per interval.

    Construction validates what simulation needs: rates finite and
    non-negative, alpha finite and >= -1 (a release cannot remove more than
    the whole user base), and the structural rule that exactly interval 0
    lacks alpha.
    """

    schedule: UpdateSchedule
    intervals: tuple[IntervalParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        want = self.schedule.n_intervals
        if len(self.intervals) != want:
            raise ValueError(
                f"schedule defines {want} intervals but {len(self.intervals)} parameter records given"
            )
        theta_pack(self.intervals)  # the structural rule: exactly interval 0 lacks alpha
        for i, p in enumerate(self.intervals):
            if not (0.0 <= p.beta < math.inf and 0.0 <= p.gamma < math.inf):  # NaN fails too
                raise ValueError(f"interval {i}: rates must be finite and non-negative, got {p}")
            if p.alpha is not None and not -1.0 <= p.alpha < math.inf:
                raise ValueError(f"interval {i}: alpha must be finite and >= -1, got {p.alpha}")

    @property
    def theta(self) -> np.ndarray:
        return theta_pack(self.intervals)


@dataclass(frozen=True)
class Trajectory:
    """A sampled share trajectory.  values[k] is the share at time k * step_size.

    A read-only float64 array that owns its memory is adopted; anything
    else is copied, and the copy frozen.  NaN, infinity and any shape but
    1-D are rejected.  population, when set, gives the unit scale for
    converting shares to user counts, at most 2**53 as in Scenario.
    clamp_count records how many samples a producing routine had to clamp
    back into range (noise injection, SDE floor at zero).
    """

    values: np.ndarray
    step_size: float
    population: int | None = None
    clamp_count: int = 0

    def __post_init__(self) -> None:
        arr = self.values
        if not (type(arr) is np.ndarray and arr.dtype == float and arr.base is None) \
                or arr.flags.writeable:
            arr = np.array(arr, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"trajectory values must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError(f"a trajectory needs at least 2 samples, got {arr.size}")
        if not np.isfinite([arr.min(), arr.max()]).all():  # NaN propagates to both
            k = int(np.argmin(np.isfinite(arr)))
            raise ValueError(f"trajectory value {arr[k]} at index {k} is not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "step_size", _check_step(self.step_size))
        if self.population is not None:
            object.__setattr__(self, "population", _check_population(self.population))
        object.__setattr__(self, "clamp_count", int(self.clamp_count))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_steps(self) -> int:
        return int(self.values.size) - 1

    def to_counts(self) -> np.ndarray:
        """Share values scaled to rounded user counts.  Requires population,
        and every rounded count must lie within int64."""
        if self.population is None:
            raise ValueError("trajectory has no population scale")
        counts = self.values * self.population
        np.rint(counts, out=counts)
        if counts.min() < -(2.0**63) or counts.max() >= 2.0**63:
            k = int(np.argmax((counts < -(2.0**63)) | (counts >= 2.0**63)))
            raise ValueError(
                f"count {float(counts[k])!r} at index {k} lies outside int64 "
                f"(share {float(self.values[k])!r} times population {self.population})"
            )
        return counts.astype(np.int64)

    def subsample(self, stride: int, step_size: float) -> "Trajectory":
        """Every stride-th sample, on the coarse step step_size (exact, where
        the float product stride * self.step_size may not be).  (len - 1)
        must be divisible by stride so the final sample is kept."""
        stride = _check_count(stride, "stride")
        if self.n_steps % stride != 0:
            raise ValueError(f"stride {stride} does not divide {self.n_steps} steps")
        return replace(self, values=self.values[::stride], step_size=step_size)


@dataclass(frozen=True)
class Scenario:
    """A runnable setup: model, starting share, optional population scale.
    The scale is at most 2**53, so every count below it is exact as a float."""

    spec: HybridModelSpec
    x0: float
    population: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", _check_start(self.x0))
        if self.population is not None:
            object.__setattr__(self, "population", _check_population(self.population))


def _check_start(x0) -> float:
    """x0 as a float in [0, 1]: the one check of a starting share, for every caller."""
    x0 = _number(x0, "x0", finite=False)
    if not 0.0 <= x0 <= 1.0:  # NaN fails too
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    return x0


def _check_step(h) -> float:
    """h as a positive finite float: the one check of a step size, for every caller."""
    h = _number(h, "step size", finite=False)
    if not 0.0 < h < math.inf:  # NaN fails too
        raise ValueError(f"step size must be positive and finite, got {h}")
    return h


def _check_sigma(sigma) -> float:
    """sigma as a finite float >= 0: the one check of a noise scale, for every caller."""
    sigma = _number(sigma, "sigma", finite=False)
    if not 0.0 <= sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    return sigma


def _check_count(value, field: str) -> int:
    """value as an int >= 1: the one check of a count, for every caller."""
    n = _number(value, field, int, finite=False)
    if n < 1:
        raise ValueError(f"{field} must be >= 1, got {n}")
    return n


def _check_population(population) -> int:
    """A population scale as an int in 1..2**53, where every count is exact as a float."""
    pop = _number(population, "population", int, finite=False)
    if pop <= 0:
        raise ValueError(f"population must be positive, got {pop}")
    if pop > 2**53:
        raise ValueError(f"population must be at most 2**53, got {pop}")
    return pop


def _interval_to_dict(p: IntervalParams) -> dict:
    d: dict = {}
    if p.alpha is not None:
        d["alpha"] = p.alpha
    d["beta"] = p.beta
    d["gamma"] = p.gamma
    return d


def _number(value, field: str, convert=float, finite: bool = True):
    """convert(value) for a number, or a ValueError naming the field: the type rule of every
    JSON number and numeric argument.  true, "0.5" and null are not numbers, convert=int takes
    no fraction, and finite rejects NaN and Infinity (1e400 too); owners range-check those."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a number, got {value!r}")
    if finite and isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value!r}")
    if convert is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return convert(value)


def _list(value, field: str) -> list:
    """value, or a ValueError naming the field where it is not a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _fields(d: dict, required=(), allowed=None, where: str = "") -> None:
    """Every JSON loader's field-set check: a ValueError, prefixed by where, for the keys
    of d outside allowed (None allows any) or else for the first of required d lacks."""
    extra = set(d) - set(d if allowed is None else allowed)
    if extra:
        raise ValueError(f"{where}unknown fields {sorted(extra)}")
    for key in required:
        if key not in d:
            raise ValueError(f"{where}missing field '{key}'")


def _interval_from_dict(d: dict, index: int) -> IntervalParams:
    if not isinstance(d, dict):
        raise ValueError(f"interval {index} must be a JSON object, got {d!r}")
    where = f"interval {index}: "
    _fields(d, allowed=("alpha", "beta", "gamma"), where=where)
    if index == 0 and "alpha" in d:
        raise ValueError("interval 0 must not carry 'alpha'")
    values = {}
    for key in ("beta", "gamma") if index == 0 else ("beta", "gamma", "alpha"):
        _fields(d, (key,), where=where)
        values[key] = _number(d[key], f"{where}field '{key}'")
    return IntervalParams(**values)


def scenario_to_dict(scenario: Scenario) -> dict:
    sched = scenario.spec.schedule
    d = {
        "h": sched.step_size,
        "update_steps": list(sched.update_steps),
        "final_step": sched.final_step,
        "intervals": [_interval_to_dict(p) for p in scenario.spec.intervals],
        "x0": scenario.x0,
    }
    if scenario.population is not None:
        d["population"] = scenario.population
    return d


def _schedule_from_dict(d: dict) -> UpdateSchedule:
    _fields(d, ("h", "update_steps", "final_step"))
    return UpdateSchedule(
        update_steps=tuple(
            _number(t, "an entry of field 'update_steps'", int)
            for t in _list(d["update_steps"], "field 'update_steps'")
        ),
        final_step=_number(d["final_step"], "field 'final_step'", int),
        step_size=_number(d["h"], "field 'h'"),
    )


def scenario_from_dict(d: dict) -> Scenario:
    _fields(d, allowed=("h", "update_steps", "final_step", "intervals", "x0", "population"))
    schedule = _schedule_from_dict(d)
    _fields(d, ("intervals", "x0"))
    raw = _list(d["intervals"], "field 'intervals'")
    intervals = tuple(_interval_from_dict(entry, i) for i, entry in enumerate(raw))
    spec = HybridModelSpec(schedule=schedule, intervals=intervals)
    population = d.get("population")
    if population is not None:
        population = _number(population, "field 'population'", int)
    return Scenario(spec=spec, x0=_number(d["x0"], "field 'x0'"), population=population)


def _load_json(path: str | Path, build):
    """build(d) from a JSON file whose top level must be an object d.  Every
    ValueError or TypeError build raises (a missing field, a number for a
    list, a string for a number) is re-raised as a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return build(d)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


_JSON_CONTAINERS = (dict, list, tuple)


@cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder for the items of a container at indent depth.  It runs
    only without indent, so its item separator carries the newline and indent
    that indent=2 puts between items."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "), allow_nan=False)


def _dump_json(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte, and its errors.
    Every container of scalars is encoded in C; only containers that hold
    containers are walked here."""
    try:
        return _indented(obj, 0)
    except ValueError:
        # the C encoder's NaN message omits the value: raise json.dumps's own
        json.dumps(obj, indent=2, allow_nan=False)
        raise


def _indented(obj, depth: int) -> str:
    enc = _json_encoder(depth)
    if not isinstance(obj, _JSON_CONTAINERS) or not obj:
        return enc.encode(obj)
    sep = enc.item_separator
    items = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(v, _JSON_CONTAINERS) for v in items):
        text = enc.encode(obj)
        first, body, last = text[0], text[1:-1], text[-1]
    elif isinstance(obj, dict):
        # encoding {k: None} (then dropping "{" and ": null}") applies json's key
        # rules: a number, bool or None key is quoted as its JSON text, any
        # other non-str key raises
        first, last = "{}"
        body = sep.join(
            f"{enc.encode({k: None})[1:-7]}: {_indented(v, depth + 1)}" for k, v in obj.items()
        )
    else:
        first, last = "[]"
        body = sep.join(_indented(v, depth + 1) for v in obj)
    return f"{first}{sep[1:]}{body}\n{'  ' * depth}{last}"


def load_scenario(path: str | Path) -> Scenario:
    return _load_json(path, scenario_from_dict)


def load_schedule(path: str | Path) -> UpdateSchedule:
    """Read just the sampling schedule from a scenario-shaped JSON file.

    Accepts any object carrying 'h', 'update_steps' and 'final_step';
    parameter fields, when present, are ignored here.
    """
    return _load_json(path, _schedule_from_dict)
