import dataclasses
import datetime as dt
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridsis
from hybridsis import (
    AlignedDataset,
    ExperimentPlan,
    HybridModelSpec,
    IntervalParams,
    RawSeries,
    Scenario,
    Trajectory,
    UpdateSchedule,
    add_observation_noise,
    align,
    derive_seed,
    forecast,
    load_scenario,
    load_schedule,
    parameter_names,
    reproduction_number,
    run_realdata_study,
    simulate_ct,
    simulate_dt,
    simulate_sde,
    theta_pack,
    theta_unpack,
)
from hybridsis.model import (
    _check_count,
    _check_population,
    _check_sigma,
    _check_start,
    _check_step,
    _dump_json,
    _number,
    scenario_from_dict,
    scenario_to_dict,
    theta_slice,
)
from hybridsis.simulate import _generator

_DAY = dt.date(2024, 1, 1)
DEMO_SCHED = UpdateSchedule(update_steps=(30, 90), final_step=150, step_size=1.0)


def test_interval_params_coerce_and_freeze():
    p = IntervalParams(beta=1, gamma=0.2)
    assert isinstance(p.beta, float) and p.beta == 1.0
    assert p.gamma == 0.2
    with pytest.raises(ValueError, match="gamma must be a number, got '0.2'"):
        IntervalParams(beta=1, gamma="0.2")
    assert p.alpha is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.beta = 2.0
    q = IntervalParams(beta=0.5, gamma=0.2, alpha=1)
    assert isinstance(q.alpha, float) and q.alpha == 1.0


def test_reproduction_number():
    assert reproduction_number(IntervalParams(beta=0.5, gamma=0.2)) == pytest.approx(2.5)
    # undefined at gamma = 0, which raw estimates may have
    assert np.isnan(reproduction_number(IntervalParams(beta=0.5, gamma=0.0)))


def test_schedule_rejects_bad_shapes():
    with pytest.raises(ValueError):
        UpdateSchedule((), 10, 0.0)
    with pytest.raises(ValueError):
        UpdateSchedule((), 0, 1.0)
    with pytest.raises(ValueError):
        UpdateSchedule((5, 5), 10, 1.0)
    with pytest.raises(ValueError):
        UpdateSchedule((7, 3), 10, 1.0)
    with pytest.raises(ValueError):
        UpdateSchedule((0,), 10, 1.0)
    with pytest.raises(ValueError):
        UpdateSchedule((10,), 10, 1.0)


def test_schedule_counting():
    assert DEMO_SCHED.n_updates == 2
    assert DEMO_SCHED.n_intervals == 3
    assert DEMO_SCHED.n_samples == 151


def test_schedule_bounds():
    # every interval but the last stops one short of the next release; the
    # last keeps the tail
    bounds = DEMO_SCHED.bounds
    assert bounds.tolist() == [[0, 29], [30, 89], [90, 150]]
    assert bounds[1:, 0].tolist() == [30, 90]  # intervals 1 and 2 open at their releases
    assert bounds.dtype.kind == "i" and not bounds.flags.writeable
    assert DEMO_SCHED.bounds is bounds  # computed once per schedule
    with pytest.raises(ValueError):
        bounds[0, 0] = 1
    assert UpdateSchedule((), 10, 1.0).bounds.tolist() == [[0, 10]]
    many = UpdateSchedule(tuple(range(10, 3010, 10)), 3010, 0.1)
    start, stop = many.bounds[300].tolist()
    assert (start - 1, stop) == (2999, 3010)  # block 300: its release row, then its ordinary rows


@st.composite
def _schedules(draw):
    final = draw(st.integers(1, 60))
    steps = draw(st.lists(st.integers(1, final - 1), unique=True, max_size=12)) if final > 1 else []
    return UpdateSchedule(tuple(sorted(steps)), final, draw(st.sampled_from([0.1, 1.0])))


@given(sched=_schedules())
def test_schedule_bounds_tile_the_steps_property(sched):
    # the ordinary rows of every interval and the release rows T_i - 1
    # cover every step k -> k+1 of the schedule exactly once
    bounds = sched.bounds
    assert bounds.shape == (sched.n_intervals, 2)
    rows = [k for start, stop in bounds.tolist() for k in range(start, stop)]
    rows += [t - 1 for t in sched.update_steps]
    assert sorted(rows) == list(range(sched.final_step))
    # interval i >= 1 opens at its release, and block i, [start_i - (i >= 1), stop_i),
    # runs up to the next block's start
    assert bounds[1:, 0].tolist() == list(sched.update_steps)
    blocks = [(start - (i >= 1), stop) for i, (start, stop) in enumerate(bounds.tolist())]
    assert blocks[0][0] == 0 and blocks[-1][1] == sched.final_step
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


def test_theta_pack_demo_layout():
    intervals = (
        IntervalParams(beta=0.5, gamma=0.2),
        IntervalParams(alpha=0.5, beta=0.19, gamma=0.15),
        IntervalParams(alpha=-0.3, beta=0.25, gamma=0.15),
    )
    theta = theta_pack(intervals)
    np.testing.assert_array_equal(
        theta, [0.5, 0.2, 0.5, 0.19, 0.15, -0.3, 0.25, 0.15]
    )
    assert theta_unpack(theta) == intervals


_RATE = st.floats(allow_nan=False, allow_infinity=False)


@given(m=st.integers(0, 6), data=st.data())
def test_theta_pack_unpack_roundtrip_property(m, data):
    rates = data.draw(st.lists(_RATE, min_size=2 + 3 * m, max_size=2 + 3 * m))
    intervals = (IntervalParams(beta=rates[0], gamma=rates[1]),) + tuple(
        IntervalParams(alpha=rates[j], beta=rates[j + 1], gamma=rates[j + 2])
        for j in range(2, len(rates), 3)
    )
    theta = theta_pack(intervals)
    assert theta.shape == (2 + 3 * m,) and len(parameter_names(m)) == theta.size
    assert theta_unpack(theta) == intervals
    np.testing.assert_array_equal(theta_pack(theta_unpack(theta)), theta)
    # theta_slice(i) holds interval i's fields in the order alpha, beta, gamma
    for i, p in enumerate(intervals):
        fields = [p.beta, p.gamma] if i == 0 else [p.alpha, p.beta, p.gamma]
        assert theta[theta_slice(i)].tolist() == fields
    assert theta_slice(m).stop == theta.size


def test_theta_pack_structural_errors():
    with pytest.raises(ValueError):
        theta_pack(())
    with pytest.raises(ValueError):
        theta_pack((IntervalParams(alpha=0.1, beta=0.5, gamma=0.2),))
    with pytest.raises(ValueError):
        theta_pack(
            (IntervalParams(beta=0.5, gamma=0.2), IntervalParams(beta=0.3, gamma=0.1))
        )


def test_theta_unpack_rejects_bad_length():
    for n in (0, 1, 3, 4, 6):
        with pytest.raises(ValueError):
            theta_unpack(np.ones(n))


def test_parameter_names():
    assert parameter_names(0) == ["beta0", "gamma0"]
    assert parameter_names(2) == [
        "beta0", "gamma0", "alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2",
    ]


def test_spec_validation():
    sched = UpdateSchedule((3,), 6, 1.0)
    good = (
        IntervalParams(beta=0.5, gamma=0.2),
        IntervalParams(alpha=0.5, beta=0.3, gamma=0.1),
    )
    HybridModelSpec(sched, good)
    with pytest.raises(ValueError):
        HybridModelSpec(sched, good[:1])
    with pytest.raises(ValueError):
        HybridModelSpec(sched, (IntervalParams(alpha=0.1, beta=0.5, gamma=0.2), good[1]))
    with pytest.raises(ValueError):
        HybridModelSpec(sched, (good[0], IntervalParams(beta=0.3, gamma=0.1)))
    with pytest.raises(ValueError):
        HybridModelSpec(sched, (IntervalParams(beta=-0.5, gamma=0.2), good[1]))
    with pytest.raises(ValueError):
        HybridModelSpec(
            sched, (good[0], IntervalParams(alpha=-1.5, beta=0.3, gamma=0.1))
        )


def _spec_with(**rates):
    # interval 1 of a two-interval spec takes the given rates
    rates = {"alpha": 0.5, "beta": 0.3, "gamma": 0.1, **rates}
    return HybridModelSpec(
        UpdateSchedule((3,), 6, 1.0), (IntervalParams(beta=0.5, gamma=0.2), IntervalParams(**rates))
    )


_RATES = r"^interval 1: rates must be finite and non-negative, got "
# hand-built inputs with a non-finite field, and the message each must raise
_NON_FINITE = {
    "beta": (lambda v: _spec_with(beta=v), _RATES),
    "gamma": (lambda v: _spec_with(gamma=v), _RATES),
    "alpha": (lambda v: _spec_with(alpha=v), r"^interval 1: alpha must be finite and >= -1, got {}$"),
}

# hand-built inputs with a finite value out of range, and the message each must raise
_OUT_OF_RANGE = {
    # a population of 10**30 would scale shares to counts beyond int64
    "trajectory_population": (
        lambda: Trajectory([0.5, 0.25], step_size=1.0, population=10**30),
        r"^population must be at most 2\*\*53, got 10{30}$",
    ),
    "schedule_fractional_update_step": (
        lambda: UpdateSchedule(update_steps=(2.7,), final_step=6, step_size=1.0),
        r"^update step must be an integer, got 2\.7$",
    ),
    "schedule_fractional_final_step": (
        lambda: UpdateSchedule(update_steps=(2,), final_step=5.9, step_size=1.0),
        r"^final step must be an integer, got 5\.9$",
    ),
    "trajectory_fractional_clamp_count": (
        lambda: Trajectory([0.5, 0.25], step_size=1.0, clamp_count=2.7),
        r"^clamp_count must be an integer, got 2\.7$",
    ),
    "trajectory_string_clamp_count": (
        lambda: Trajectory([0.5, 0.25], step_size=1.0, clamp_count="4"),
        r"^clamp_count must be a number, got '4'$",
    ),
    "trajectory_bool_clamp_count": (
        lambda: Trajectory([0.5, 0.25], step_size=1.0, clamp_count=True),
        r"^clamp_count must be a number, got True$",
    ),
    # an integer beyond the float range is not a float, with or without the finite check
    "number_beyond_float": (
        lambda: _number(10**400, "x0"),
        r"^x0 must be finite, got a value beyond the float range$",
    ),
    "step_beyond_float": (
        lambda: _check_step(10**400),
        r"^step size must be finite, got a value beyond the float range$",
    ),
}

_SCENARIO = Scenario(spec=_spec_with(), x0=0.1)
_DATASET = AlignedDataset(simulate_dt(_spec_with(), 0.1), _spec_with().schedule, 1000, _DAY)


def _plan(**fields):
    return ExperimentPlan(scenario=_SCENARIO, **{"h_values": (1.0,), **fields})


# Every entry point of each numeric argument: build(value), the argument's owner, the
# name in the owner's messages and, for a plan, the JSON field its type rule names.
_ENTRY_POINTS = {
    "count": (lambda v: _check_count(v, "n"), "count", "n"),
    "sde_substeps": (lambda v: simulate_sde(_spec_with(), 0.1, substeps=v), "count", "substeps"),
    "forecast_horizon": (lambda v: forecast(_spec_with(), 0.1, v), "count", "horizon"),
    "subsample_stride": (lambda v: Trajectory([0.1, 0.2, 0.3], 1.0).subsample(v, 2.0), "count", "stride"),
    "schedule_final_step": (lambda v: UpdateSchedule((), v, 1.0), "count", "final step"),
    "holdout": (lambda v: run_realdata_study(_DATASET, holdout=v), "count", "holdout"),
    "plan_trials": (lambda v: _plan(trials=v), "count", "trials", "field 'trials'"),
    "plan_fine_substeps": (
        lambda v: _plan(fine_substeps=v), "count", "fine_substeps", "field 'fine_substeps'"
    ),
    "sigma": (_check_sigma, "sigma", "sigma"),
    "sde_sigma": (lambda v: simulate_sde(_spec_with(), 0.1, sigma=v), "sigma", "sigma"),
    "observation_sigma": (
        lambda v: add_observation_noise(Trajectory([0.1, 0.2], 1.0), v, 0), "sigma", "sigma"
    ),
    "plan_sigma": (lambda v: _plan(sigma=v), "sigma", "sigma", "field 'sigma'"),
    "step": (_check_step, "step", "step size"),
    "schedule_step": (lambda v: UpdateSchedule((3,), 6, v), "step", "step size"),
    "trajectory_step": (lambda v: Trajectory([0.1, 0.2], step_size=v), "step", "step size"),
    "plan_step": (lambda v: _plan(h_values=(v,)), "step", "step size", "an entry of field 'h_values'"),
    "start": (_check_start, "start", "x0"),
    "scenario_x0": (lambda v: Scenario(_spec_with(), v), "start", "x0"),
    "dt_x0": (lambda v: simulate_dt(_spec_with(), v), "start", "x0"),
    "ct_x0": (lambda v: simulate_ct(_spec_with(), v), "start", "x0"),
    "sde_x0": (lambda v: simulate_sde(_spec_with(), v), "start", "x0"),
    "forecast_x0": (lambda v: forecast(_spec_with(), v, 3), "start", "x0"),
    "population": (_check_population, "population", "population"),
    "trajectory_population": (
        lambda v: Trajectory([0.1, 0.2], 1.0, population=v), "population", "population"
    ),
    "scenario_population": (lambda v: Scenario(_spec_with(), 0.1, v), "population", "population"),
    "align_population": (
        lambda v: align(RawSeries(_DAY, [1, 2, 3]), (), v), "population", "population"
    ),
    "seed": (_generator, "seed", "seed"),
    "sde_seed": (lambda v: simulate_sde(_spec_with(), 0.1, seed=v), "seed", "seed"),
    "observation_seed": (
        lambda v: add_observation_noise(Trajectory([0.1, 0.2], 1.0), 0.01, v), "seed", "seed"
    ),
    # a base seed is only hashed, so a negative one is valid
    "derive_seed": (lambda v: derive_seed(v, "process", 0), "base seed", "seed"),
    "plan_seed": (lambda v: _plan(seed=v), "base seed", "seed", "field 'seed'"),
}
# what the shared type rule rejects in any argument, and in an integral one
_NOT_NUMBERS = [("bool", True, "{typed} must be a number, got True"),
                ("string", "1", "{typed} must be a number, got '1'")]
_FRACTION = [("fraction", 2.5, "{typed} must be an integer, got 2.5")]
# per owner: the values rejected past the type rule (a fraction, the nearest values
# out of range), and the message a NaN or an infinity gets, up to the value
_RANGES = {
    "count": (_FRACTION + [("zero", 0, "{name} must be >= 1, got 0")], "{name} must be an integer"),
    "sigma": (
        [("negative", -5e-324, "sigma must be finite and non-negative, got -5e-324")],
        "sigma must be finite and non-negative",
    ),
    "step": (
        [("zero", 0.0, "step size must be positive and finite, got 0.0"),
         ("negative_zero", -0.0, "step size must be positive and finite, got -0.0")],
        "step size must be positive and finite",
    ),
    "start": (
        [("below", -5e-324, "x0 must lie in [0, 1], got -5e-324"),
         ("above", 1 + 2**-52, "x0 must lie in [0, 1], got 1.0000000000000002")],
        "x0 must lie in [0, 1]",
    ),
    "population": (
        _FRACTION + [("zero", 0, "population must be positive, got 0"),
                     ("above", 2**53 + 1, "population must be at most 2**53, got 9007199254740993")],
        "population must be an integer",
    ),
    "seed": (_FRACTION + [("negative", -1, "seed must be >= 0, got -1")], "seed must be an integer"),
    "base seed": (_FRACTION, "seed must be an integer"),
}
for _key, (_build, _owner, _name, *_field) in _ENTRY_POINTS.items():
    _typed = _field[0] if _field else _name
    _rejected, _unbounded = _RANGES[_owner]
    for _label, _value, _message in _NOT_NUMBERS + _rejected:
        _text = _message.format(typed=_typed, name=_name)
        _OUT_OF_RANGE[f"{_key}_{_label}"] = (partial(_build, _value), f"^{re.escape(_text)}$")
    # a JSON field's own finite check runs before the owner's
    _text = f"{_typed} must be finite" if _field else _unbounded.format(name=_name)
    _NON_FINITE[_key] = (_build, f"^{re.escape(_text)}, got {{}}$")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(_NON_FINITE))
def test_hand_built_inputs_reject_non_finite_values(field, value):
    build, message = _NON_FINITE[field]
    with pytest.raises(ValueError, match=message.format(re.escape(str(value)))):
        build(value)


@pytest.mark.parametrize("field", list(_OUT_OF_RANGE))
def test_hand_built_inputs_reject_out_of_range_values(field):
    build, message = _OUT_OF_RANGE[field]
    with pytest.raises(ValueError, match=message):
        build()


# the message template of each numeric-argument owner in model.py
_OWNER_TEMPLATES = (
    "must be >= 1, got",
    "sigma must be finite and non-negative",
    "step size must be positive and finite",
    "x0 must lie in [0, 1]",
    "population must be positive",
    "population must be at most 2**53",
    "seed must be >= 0",
)


def test_each_numeric_rule_is_written_once():
    # a second copy of a rule repeats its message; callers use the owner instead
    package = Path(hybridsis.__file__).parent
    source = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    assert {t: source.count(t) for t in _OWNER_TEMPLATES} == dict.fromkeys(_OWNER_TEMPLATES, 1)
    assert source.count("np.random.PCG64(") == 1  # every generator is built by _generator


def test_owners_accept_the_edges_of_their_ranges():
    assert _check_count(1, "n") == 1 and type(_check_count(np.int64(2), "n")) is int
    assert _check_count(3.0, "n") == 3 and type(_check_count(3.0, "n")) is int
    assert _check_population(1) == 1 and _check_population(2**53) == 2**53
    assert _check_population(float(2**53)) == 2**53
    assert _check_start(0.0) == 0.0 and _check_start(1.0) == 1.0
    assert type(_check_start(np.float32(0.5))) is float
    assert _check_sigma(0.0) == 0.0 and _check_sigma(1e308) == 1e308
    assert _check_step(5e-324) == 5e-324 and _check_step(1.7e308) == 1.7e308
    assert _number(10**400, "n", int) == 10**400  # only a float conversion overflows
    for seed in (0, 2**70, np.int64(7), 3.0):
        assert _generator(seed).bit_generator.state == _generator(int(seed)).bit_generator.state
    assert derive_seed(-1, "process", 0) != derive_seed(1, "process", 0)
    assert derive_seed(3.0, "process", 0) == derive_seed(3, "process", 0)
    # and so do their entry points
    assert len(simulate_sde(_spec_with(alpha=0.0), 1.0, sigma=0.0, substeps=1)) == 7
    assert len(simulate_sde(_spec_with(), 0.1, seed=2**70, sigma=0.01)) == 7
    assert len(add_observation_noise(Trajectory([0.1, 0.2], 1.0), 0.01, 0)) == 2
    assert _plan(seed=-1).seed == -1
    assert len(forecast(_spec_with(), 0.0, 1)) == 2
    traj = Trajectory([0.1, 0.2, 0.3], 1.0, population=2**53)
    assert traj.subsample(1, 1.0).values.tolist() == [0.1, 0.2, 0.3]
    assert UpdateSchedule((), 1, 1.0).n_samples == 2
    assert _plan(trials=1, fine_substeps=1, sigma=0.0).trials == 1


def test_schedule_takes_integral_floats_and_numpy_ints():
    sched = UpdateSchedule(update_steps=(2.0, np.int64(3)), final_step=np.float64(5.0), step_size=1)
    assert sched.update_steps == (2, 3) and sched.final_step == 5
    assert all(type(t) is int for t in (*sched.update_steps, sched.final_step))


def test_spec_theta_roundtrip(demo_scenario):
    spec = demo_scenario.spec
    again = HybridModelSpec(spec.schedule, theta_unpack(spec.theta))
    assert again == spec


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(values=[0.5], step_size=1.0)
    with pytest.raises(ValueError):
        Trajectory(values=[[0.1, 0.2]], step_size=1.0)
    with pytest.raises(ValueError):
        Trajectory(values=[0.1, 0.2], step_size=0.0)
    with pytest.raises(ValueError):
        Trajectory(values=[0.1, 0.2], step_size=1.0, population=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_non_finite_values(bad):
    values = [0.1, 0.2, bad, 0.3, bad]
    with pytest.raises(ValueError, match=f"^trajectory value {bad} at index 2 is not finite$"):
        Trajectory(values=values, step_size=1.0)


def test_trajectory_copies_and_freezes_values():
    # a list, a writeable array and a read-only view are copied, so changing
    # the source afterwards leaves the trajectory as it was
    listed = [0.1, 0.2, 0.3]
    writeable = np.array(listed)
    base = np.array([0.9, *listed])
    view = base[1:]
    view.setflags(write=False)
    for src, owner in ((listed, listed), (writeable, writeable), (view, base)):
        traj = Trajectory(values=src, step_size=0.5)
        owner[-1] = 9.9
        assert traj.values.tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            traj.values[0] = 0.0


def test_trajectory_adopts_a_frozen_owning_float64_array():
    src = np.array([0.1, 0.2, 0.3])
    src.setflags(write=False)
    traj = Trajectory(values=src, step_size=0.5)
    assert traj.values is src and np.shares_memory(traj.values, src)
    # so a replaced trajectory shares its parent's values
    assert dataclasses.replace(traj, population=10).values is src
    # another dtype is copied, even when frozen and owning
    single = np.array([0.1, 0.2, 0.3], dtype=np.float32)
    single.setflags(write=False)
    assert not np.shares_memory(Trajectory(values=single, step_size=0.5).values, single)


def test_trajectory_counts_and_times():
    traj = Trajectory(values=[0.1, 0.25004, 0.5], step_size=2.0, population=10_000)
    np.testing.assert_array_equal(traj.to_counts(), [1000, 2500, 5000])
    assert len(traj) == 3 and traj.n_steps == 2
    bare = Trajectory(values=[0.1, 0.2], step_size=1.0)
    with pytest.raises(ValueError):
        bare.to_counts()


def test_trajectory_counts_outside_int64_raise():
    # 2e3 * 2**53 rounds to about 1.8e19, past the int64 maximum
    traj = Trajectory(values=[0.5, 2e3], step_size=1.0, population=2**53)
    with pytest.raises(ValueError, match=r"index 1 lies outside int64"):
        traj.to_counts()
    # -2**63 = -1024 * 2**53 itself is an int64; the next double below it is not
    low = Trajectory(values=[-1024.0, -1024.0 * (1 + 2.0**-52)], step_size=1.0, population=2**53)
    with pytest.raises(ValueError, match=r"index 1 lies outside int64"):
        low.to_counts()
    edge = Trajectory(values=[-1024.0, 1023.0], step_size=1.0, population=2**53)
    np.testing.assert_array_equal(edge.to_counts(), [-(2**63), 1023 * 2**53])
    # 2**63 itself is one past the int64 maximum
    high = Trajectory(values=[0.5, 1024.0], step_size=1.0, population=2**53)
    with pytest.raises(ValueError, match=r"index 1 lies outside int64"):
        high.to_counts()


def test_trajectory_subsample():
    traj = Trajectory(values=np.linspace(0, 1, 11), step_size=0.5, population=100)
    sub = traj.subsample(5, 2.0)  # the passed step wins over 5 * 0.5
    np.testing.assert_array_equal(sub.values, traj.values[::5])
    assert sub.step_size == 2.0
    assert sub.population == 100
    with pytest.raises(ValueError):
        traj.subsample(3, 1.5)  # 10 steps, stride must divide
    with pytest.raises(ValueError):
        traj.subsample(0, 0.5)


def test_scenario_validation(demo_scenario):
    with pytest.raises(ValueError, match=r"^x0 must lie in \[0, 1\], got 1\.\d+$"):
        Scenario(spec=demo_scenario.spec, x0=1.5)
    with pytest.raises(ValueError):
        Scenario(spec=demo_scenario.spec, x0=0.5, population=-3)


def test_scenario_json_roundtrip(tmp_path, demo_scenario):
    path = tmp_path / "s.json"
    scen = Scenario(spec=demo_scenario.spec, x0=0.05, population=2_000_000)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scen), fh)
    again = load_scenario(path)
    assert again == scen
    assert json.loads(path.read_text())["final_step"] == 150


def test_scenario_dict_strictness(demo_scenario):
    d = scenario_to_dict(demo_scenario)
    assert scenario_from_dict(d) == demo_scenario
    assert "population" not in d  # the demo sets none, and null is not written

    bad = dict(d)
    bad["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        scenario_from_dict(bad)

    bad = json.loads(json.dumps(d))
    bad["intervals"][0]["alpha"] = 0.1
    with pytest.raises(ValueError, match="interval 0"):
        scenario_from_dict(bad)

    bad = json.loads(json.dumps(d))
    del bad["intervals"][1]["gamma"]
    with pytest.raises(ValueError, match="gamma"):
        scenario_from_dict(bad)

    bad = json.loads(json.dumps(d))
    del bad["intervals"][2]["alpha"]
    with pytest.raises(ValueError, match="alpha"):
        scenario_from_dict(bad)


def test_load_schedule_reads_any_scenario_shaped_file(tmp_path, demo_scenario):
    path = tmp_path / "s.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(demo_scenario), fh)
    sched = load_schedule(path)
    assert sched == demo_scenario.spec.schedule


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**40)])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1])
    | st.text()
    | st.sampled_from(["\x00\x1f\n\t\"\\", "ü € ☃ \U0001f600"])
)
_NOT_JSON = st.sampled_from([math.nan, math.inf, -math.inf]) | st.builds(object)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=24,
    )


def _outcome(dump, obj):
    try:
        return dump(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _json_dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


@given(_json_trees(_JSON_LEAVES))
def test_dump_json_is_json_dumps_byte_for_byte(obj):
    assert _dump_json(obj).encode() == _json_dumps(obj).encode()


@given(st.tuples(_json_trees(_JSON_LEAVES | _NOT_JSON), _NOT_JSON).map(list))
def test_dump_json_raises_what_json_dumps_raises(obj):
    # the last leaf always fails, and an earlier one may fail first
    expected = _outcome(_json_dumps, obj)
    assert isinstance(expected, tuple)
    assert _outcome(_dump_json, obj) == expected


def test_dump_json_keys_follow_json_dumps():
    # a nested dict's number, bool and None keys are quoted as their JSON text
    obj = {"a": {1.5: [1], True: {}, None: [[]], 3: ["x"]}, 2: [0.1]}
    assert _dump_json(obj) == _json_dumps(obj)
    for bad in ({(1,): [1]}, {"a": [{(1,): 2}]}, {"a": {math.nan: [1]}}):
        assert _outcome(_dump_json, bad) == _outcome(_json_dumps, bad)
