import contextlib
import csv
import decimal
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hybridsis.simulate
from hybridsis import (
    HybridModelSpec,
    IntervalParams,
    StabilityWarning,
    Trajectory,
    UpdateSchedule,
    add_observation_noise,
    read_trajectory_csv,
    simulate_ct,
    simulate_dt,
    simulate_sde,
    write_trajectory_csv,
)
from hybridsis.cli import main
from hybridsis.estimate import forecast

from conftest import ROOT, SCENARIO_PATH, forbid_row_loop
from test_acceptance import random_identifiable_scenarios

# Closed-form values for the bundled demo under the shared release-step
# convention: 29 flowed units, release, 59 flowed units, release.  Computed
# from the logistic solution x(t) = K / (1 + (K/x0 - 1) exp(-rt)) with
# K = 1 - gamma/beta, r = beta - gamma.
DEMO_X29 = 0.5989025446728243
DEMO_X89 = 0.2269319403231833
DEMO_X90 = 0.1588523582262283


def logistic(x0, beta, gamma, t):
    if beta == gamma:
        return x0 / (1.0 + beta * x0 * t)
    K = 1.0 - gamma / beta
    r = beta - gamma
    return K / (1.0 + (K / x0 - 1.0) * math.exp(-r * t))


def single_interval(beta, gamma, final_step, h=1.0):
    return HybridModelSpec(
        UpdateSchedule((), final_step, h), (IntervalParams(beta=beta, gamma=gamma),)
    )


def test_dt_hand_computed_steps():
    spec = single_interval(0.5, 0.2, 2)
    traj = simulate_dt(spec, 0.5)
    assert traj.values[1] == pytest.approx(0.525, rel=1e-14)
    assert traj.values[2] == pytest.approx(0.5446875, rel=1e-14)
    assert traj.step_size == 1.0
    assert len(traj) == 3


def test_dt_release_is_pure_multiplication():
    sched = UpdateSchedule((3,), 6, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.4, gamma=0.1),
            IntervalParams(alpha=0.25, beta=0.3, gamma=0.2),
        ),
    )
    traj = simulate_dt(spec, 0.3)
    v = traj.values
    assert v[3] == (1.0 + 0.25) * v[2]  # the release step carries no flow
    # ordinary steps match the recursion exactly
    assert v[1] == v[0] + 1.0 * (0.4 * (1.0 - v[0]) * v[0] - 0.1 * v[0])
    assert v[4] == v[3] + 1.0 * (0.3 * (1.0 - v[3]) * v[3] - 0.2 * v[3])


def test_dt_release_arithmetic_examples():
    # with zero rates the flow freezes and only releases move the share
    sched = UpdateSchedule((1, 2), 3, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.0, gamma=0.0),
            IntervalParams(alpha=0.5, beta=0.0, gamma=0.0),
            IntervalParams(alpha=-0.3, beta=0.0, gamma=0.0),
        ),
    )
    traj = simulate_dt(spec, 0.4)
    assert traj.values[1] == pytest.approx(0.6, rel=1e-15)
    assert traj.values[2] == pytest.approx(0.42, rel=1e-15)
    assert traj.values[3] == traj.values[2]


def test_dt_reaches_endemic_equilibrium():
    spec = single_interval(0.5, 0.2, 6000, h=0.01)
    traj = simulate_dt(spec, 0.05)
    assert traj.values[-1] == pytest.approx(0.6, abs=1e-6)


def test_dt_rejects_x0_outside_range():
    spec = single_interval(0.5, 0.2, 5)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            simulate_dt(spec, bad)


def test_stability_warning():
    with pytest.warns(StabilityWarning):
        simulate_dt(single_interval(1.5, 0.6, 5), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_dt(single_interval(0.5, 0.2, 5), 0.3)


def test_release_escape_policies():
    sched = UpdateSchedule((1,), 3, 1.0)
    spec = HybridModelSpec(
        sched,
        (
            IntervalParams(beta=0.0, gamma=0.0),
            IntervalParams(alpha=0.9, beta=0.0, gamma=0.0),
        ),
    )
    # escapes raise: test_release_escape_raises_in_every_generator
    traj = simulate_dt(spec, 0.5)
    assert traj.values[1] == 0.95  # 1.9 * 0.5 stays inside


@pytest.mark.parametrize(
    "generate",
    [
        simulate_dt,
        simulate_ct,
        partial(simulate_sde, sigma=0.01, substeps=2),
    ],
    ids=["dt", "ct_exact", "sde"],
)
def test_release_escape_raises_in_every_generator(generate):
    # the release on step 1 sees x0 itself, so noise cannot move the message
    spec = HybridModelSpec(
        UpdateSchedule((1,), 3, 1.0),
        (IntervalParams(beta=0.0, gamma=0.0), IntervalParams(alpha=0.9, beta=0.0, gamma=0.0)),
    )
    msg = r"^release opening interval 1 maps share 0\.8 to 1\.52, outside \[0, 1\]$"
    with pytest.raises(ValueError, match=msg):
        generate(spec, 0.8)


def test_ct_exact_matches_logistic():
    spec = single_interval(0.9, 0.3, 20)
    traj = simulate_ct(spec, 0.1)
    exact = np.array([logistic(0.1, 0.9, 0.3, t) for t in range(21)])
    np.testing.assert_allclose(traj.values, exact, atol=1e-12, rtol=0)


def test_ct_equal_rates_closed_form():
    spec = single_interval(0.3, 0.3, 15)
    traj = simulate_ct(spec, 0.4)
    exact = np.array([logistic(0.4, 0.3, 0.3, t) for t in range(16)])
    np.testing.assert_allclose(traj.values, exact, atol=1e-12, rtol=0)


rates = st.floats(0.05, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    beta=rates,
    gamma=rates,
    equal=st.booleans(),
    x0=st.floats(0.01, 1.0),
    h=st.sampled_from([0.01, 0.1, 1.0]),
    n=st.integers(1, 200),
)
def test_ct_exact_flow_property(beta, gamma, equal, x0, h, n):
    if equal:
        gamma = beta
    # the oracle's K / x0 - 1 cancels when beta and gamma nearly agree, so
    # unequal draws keep a margin; equal rates use its own closed form
    assume(equal or abs(beta - gamma) >= 1e-3)
    traj = simulate_ct(single_interval(beta, gamma, n, h), x0)
    exact = np.array([logistic(x0, beta, gamma, k * h) for k in range(n + 1)])
    np.testing.assert_allclose(traj.values, exact, atol=1e-12, rtol=0)


def test_ct_demo_landmarks(demo_scenario):
    traj = simulate_ct(demo_scenario.spec, demo_scenario.x0)
    v = traj.values
    assert v[29] == pytest.approx(DEMO_X29, abs=1e-12)
    assert v[89] == pytest.approx(DEMO_X89, abs=1e-12)
    assert v[90] == pytest.approx(DEMO_X90, abs=1e-12)
    # releases act on the previous sample exactly
    assert v[30] == (1.0 + 0.5) * v[29]
    assert v[90] == (1.0 + -0.3) * v[89]


def test_ct_exact_flow_on_long_intervals():
    # r t reaches 1500 and 3000, where e^{rt} overflows a double
    grow = simulate_ct(single_interval(0.5, 0.2, 5000), 0.05).values
    assert np.all(np.isfinite(grow)) and grow[-1] == pytest.approx(0.6, rel=1e-12)
    decay = simulate_ct(single_interval(0.2, 0.8, 5000), 0.9).values
    assert np.all(np.isfinite(decay)) and decay[-1] == 0.0
    wiped = HybridModelSpec(
        UpdateSchedule((2,), 5000, 1.0),
        (IntervalParams(beta=0.5, gamma=0.2), IntervalParams(alpha=-1.0, beta=0.5, gamma=0.2)),
    )
    assert np.all(simulate_ct(wiped, 0.3).values[2:] == 0.0)


def test_ct_euler_converges_to_exact_flow():
    spec = single_interval(0.9, 0.3, 20)
    exact = simulate_ct(spec, 0.1).values
    errs = [
        np.max(np.abs(simulate_sde(spec, 0.1, substeps=sub).values - exact))
        for sub in (1, 2, 4)
    ]
    # order one: halving the sub-step halves the error
    assert 1.8 < errs[0] / errs[1] < 2.2 and 1.8 < errs[1] / errs[2] < 2.2


def test_ct_euler_one_substep_equals_dt(demo_scenario):
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    euler = simulate_sde(spec, demo_scenario.x0, substeps=1)
    assert np.array_equal(dt_traj.values, euler.values)


def test_simulation_config_validation():
    spec = single_interval(0.5, 0.2, 5)
    with pytest.raises(ValueError, match=r"^sigma must be finite and non-negative, got -0\.1$"):
        simulate_sde(spec, 0.1, sigma=-0.1)
    with pytest.raises(ValueError, match=r"^substeps must be >= 1, got 0$"):
        simulate_sde(spec, 0.1, substeps=0)
    with pytest.raises(ValueError, match=r"^x0 must lie in \[0, 1\], got 1\.\d+$"):
        simulate_ct(spec, 1.2)


def test_sde_zero_sigma_equals_euler_ct(demo_scenario):
    spec = demo_scenario.spec
    for sub in (1, 3):
        sde = simulate_sde(spec, demo_scenario.x0, seed=5, sigma=0.0, substeps=sub)
        euler, _ = hybridsis.simulate._recurse(
            spec.schedule, spec.intervals, demo_scenario.x0, substeps=sub
        )
        assert np.array_equal(sde.values, euler)


def test_sde_seed_determinism(demo_scenario):
    spec = demo_scenario.spec
    a = simulate_sde(spec, 0.05, seed=3, sigma=0.02)
    b = simulate_sde(spec, 0.05, seed=3, sigma=0.02)
    c = simulate_sde(spec, 0.05, seed=4, sigma=0.02)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sde_noise_term_is_standard_normal():
    # with both rates zero the path is x_{k+1} = x_k (1 + sigma sqrt(h) z_k),
    # so the driving draws can be recovered and checked
    spec = single_interval(0.0, 0.0, 2000)
    traj = simulate_sde(spec, 0.5, seed=7, sigma=0.01)
    v = traj.values
    z = (v[1:] / v[:-1] - 1.0) / 0.01
    assert abs(z.mean()) < 0.1
    assert 0.9 < z.std() < 1.1
    assert traj.clamp_count == 0


def test_sde_zero_is_absorbing_and_counted():
    spec = single_interval(0.0, 0.0, 200)
    traj = simulate_sde(spec, 0.5, seed=1, sigma=0.8)
    v = traj.values
    assert traj.clamp_count >= 1
    assert v.min() == 0.0
    first_zero = int(np.argmax(v == 0.0))
    assert np.all(v[first_zero:] == 0.0)


def _walk(spec, x0, step, substeps=1, draws=(), num=float):
    """The sampled Euler recursion written sample by sample: a release sample
    is (1 + num(alpha)) x alone, any other runs `substeps` calls of
    step(x, p, d), each taking the next of `draws` (None once they run out)."""
    releases = dict(zip(spec.schedule.update_steps, spec.intervals[1:]))
    draws = iter(draws)
    p, x, xs = spec.intervals[0], x0, [x0]
    for k in range(1, spec.schedule.final_step + 1):
        if k in releases:
            p = releases[k]
            x = (1 + num(p.alpha)) * x
        else:
            for _ in range(substeps):
                x = step(x, p, next(draws, None))
        xs.append(x)
    return xs


def _expanded_step(dt, sigma):
    """The reference step in expanded form: x + dt (beta (1 - x) x - gamma x),
    plus sigma x sqrt(dt) z and a floor at zero when a draw z is given."""
    sqrt_dt = math.sqrt(dt)

    def step(x, p, z):
        x_flow = x + dt * (p.beta * (1.0 - x) * x - p.gamma * x)
        if z is None:
            return x_flow
        x = x_flow + sigma * x * sqrt_dt * z
        return 0.0 if x < 0.0 else x

    return step


def _decimal_walk(spec, x0, increments=None):
    """The Euler recursion at one sub-step in 70-digit decimal arithmetic from
    the same doubles: x + h (beta (1 - x) x - gamma x) + x w, w the increments."""
    D = decimal.Decimal
    h = D(spec.schedule.step_size)

    def step(x, p, w):
        b, g = D(p.beta), D(p.gamma)
        x = x + h * (b * (1 - x) * x - g * x) + (0 if w is None else x * D(w))
        return max(x, D(0))

    with decimal.localcontext() as ctx:
        ctx.prec = 70
        return _walk(spec, D(x0), step, draws=() if increments is None else increments, num=D)


def _worst_rel(values, exact):
    return max(float(abs(decimal.Decimal(v) - e) / e) for v, e in zip(values.tolist(), exact) if e)


def test_factored_step_matches_decimal_euler():
    # the dt path on criterion 1's 50 scenarios
    worst = 0.0
    for spec, system in random_identifiable_scenarios(20260818, 50):
        exact = _decimal_walk(spec, float(system.x[0]))
        worst = max(worst, _worst_rel(system.x, exact))
    assert worst <= 3e-15

    # one noisy path, given the same scaled increments
    spec = single_interval(0.5, 0.2, 400, h=0.1)
    w = np.random.Generator(np.random.PCG64(8)).standard_normal(400) * (0.05 * math.sqrt(0.1))
    traj = simulate_sde(spec, 0.05, seed=8, sigma=0.05)
    exact = _decimal_walk(spec, 0.05, w.tolist())
    assert traj.clamp_count == 0
    assert _worst_rel(traj.values, exact) <= 3e-15


def test_factored_step_matches_expanded_step(demo_scenario):
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    ref = np.array(_walk(spec, demo_scenario.x0, _expanded_step(1.0, 0.0)))
    np.testing.assert_allclose(dt_traj.values, ref, rtol=1e-13, atol=0)

    # the study's finest grid: h = 0.02 with 10 sub-steps, 74,980 flow steps
    fine = HybridModelSpec(UpdateSchedule((1500, 4500), 7500, 0.02), spec.intervals)
    traj = simulate_sde(fine, demo_scenario.x0, seed=3, sigma=0.02, substeps=10)
    z = np.random.Generator(np.random.PCG64(3)).standard_normal((7500 - 2) * 10)
    ref = _walk(fine, demo_scenario.x0, _expanded_step(0.02 / 10, 0.02), 10, z.tolist())
    assert traj.clamp_count == 0
    np.testing.assert_allclose(traj.values, np.array(ref), rtol=1e-12, atol=0)


def _study_digests(tmp_path, plan_fields):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_fields))
    out = tmp_path / "study"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["study", "--plan", str(plan), "--out-dir", str(out)]) == 0
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("params.csv", "r0.csv", "summary.json")]


def _recursion_case(name, scenario, tmp_path):
    """(sha256 of values.tobytes(), clamp count) of one pinned kernel call; for
    a study, the sha256 of its three result tables."""
    spec, x0 = scenario.spec, scenario.x0
    if name == "study_4_trials":
        scenario = json.loads(SCENARIO_PATH.read_text())
        return _study_digests(tmp_path, {"scenario": scenario, "trials": 4, "seed": 99})
    if name == "study_failed_cells":
        # starting at interval 0's endemic equilibrium fails both noiseless cells
        scenario = {**json.loads(SCENARIO_PATH.read_text()), "x0": 0.6}
        return _study_digests(tmp_path, {
            "scenario": scenario, "regimes": ["noiseless", "observation", "process"],
            "h_values": [1.0, 0.5], "fine_substeps": 2, "trials": 3,
        })
    kind, *arg = name.split("-")
    if kind == "dt":
        traj = simulate_dt(spec, x0)
    elif kind == "sde":
        traj = simulate_sde(spec, x0, seed=1, sigma=float(arg[0]), substeps=int(arg[1]))
    elif kind == "sde_back_to_back":
        # releases on steps 1, 2 and 3 leave two intervals with no flow step
        intervals = [IntervalParams(beta=0.6, gamma=0.2)] + [
            IntervalParams(alpha=a, beta=0.5, gamma=0.1) for a in (0.5, -0.2, 0.1)
        ]
        spec = HybridModelSpec(UpdateSchedule((1, 2, 3), 12, 0.5), tuple(intervals))
        traj = simulate_sde(spec, 0.2, seed=4, sigma=0.3, substeps=3)
    elif kind == "raw_refit":
        # negative raw estimates: the unpoliced recursion overflows to inf
        sched = UpdateSchedule((10, 20), 30, 1.0)
        intervals = (
            IntervalParams(beta=0.5, gamma=0.1),
            IntervalParams(alpha=2.0, beta=-3.0, gamma=-1.0),
            IntervalParams(alpha=-0.5, beta=-4.0, gamma=-2.0),
        )
        values, clamps = hybridsis.simulate._recurse(sched, intervals, 0.05, check=False)
        assert values[-1] == math.inf
        return hashlib.sha256(values.tobytes()).hexdigest(), clamps
    else:  # forecast-<horizon>
        traj = forecast(spec, 0.3, int(arg[0]))
    return hashlib.sha256(traj.values.tobytes()).hexdigest(), traj.clamp_count


# sha256 of the output values and the clamp count of each kernel caller,
# recorded with the factored step x + x * (a - c * x + w) and the increments
# w scaled in place per batch, which round differently from the expanded step
# (test_factored_step_matches_expanded_step bounds the difference); the study
# entries pin their params.csv, r0.csv and summary.json instead
RECURSION_GOLDEN = {
    "dt": ("db70d47c3034beaa169f82eb370e075d36e0fce035bb695159d076f65ef1e498", 0),
    "sde-0.0-1": ("db70d47c3034beaa169f82eb370e075d36e0fce035bb695159d076f65ef1e498", 0),
    "sde-0.0-3": ("f7fdbd43a2edd6e1c696e605d8adb5f0c978df7d094c7f9321e78a495c67f987", 0),
    "sde-0.0-5": ("aacdb1df0a9bcc51aab151ef5c50430e5a54652cae0763a0b785bb4897abbb80", 0),
    "sde-0.05-1": ("b8723b1aef6d3ca34dac0098777e66d9c0a175b6d550b90d6c8d0689ac20add8", 0),
    "sde-0.05-3": ("d718e6a7d068f47566555daf71bafce5ccc78de3ebefe763d16cf34193da1fbf", 0),
    "sde-0.05-5": ("7fcf0279af1e0ad63008e4fe555ae3effe2a0073e7ab6f1b75e1602bf4301459", 0),
    "sde-0.7-1": ("3cd7bb8ff36db1f81a1737d35f779112035a3712ef9d6f6657d1bf6e40531a22", 1),
    "sde-0.7-3": ("7e400762d918852494734844a018ffb64e52f8bc4a329fa3e1ba59ea575725ae", 1),
    "sde-0.7-5": ("ea4170ea8a2f7d63d4ab09ad22c2c0f060e22b193c6f20faaaaf72896a201c71", 1),
    "sde_back_to_back": ("708c82c6dfb9a75ce57c91e464b870559b42dac906bf6e18003c41b135912f4d", 0),
    "raw_refit": ("e3bffa3736ef7ffdae2a402a177abcd77fb7c26872a510993bca36dea7828160", 0),
    # release at step 30 inside the window
    "forecast-35": ("6c5811135ad9227717bb8bc24f1acd098ae87278498b7bd7096269b41a6e849e", 0),
    # release at step 90 on the last sample
    "forecast-90": ("258f9b5140126d7056fbf10ffa430eebded4076b8efcf47e8f584a32c8fa0696", 0),
    # past the schedule's end
    "forecast-180": ("35b905cf5cc7b4f8d69d4dee4841b6fea24c3778c1d27abd1ef64b5fd3380edc", 0),
    "study_4_trials": [
        "e32dbc3649164a1cc1b1ebd824576f8a62ce49f73ab6e58c3bcbeaec56f3a145",
        "ed2f2575f3ac474ef72889dcc663b81a7e614749e14f2af1c554ddc4ffa7bc4d",
        "a4a3d7b314ba011fddd80dc8943cd0c7bd52d851c217f56f1d4e39eeea380229",
    ],
    "study_failed_cells": [
        "74512a4ebe2fb23657a9b660e70309bf37b413912edadc15b96b0e5541acb954",
        "e90f531e5916daebce66fd91d3b48a1c06589ad4a8bf6597dec22367190d0d3e",
        "2af5358cd55ee17795070cbb04eb7ee0c828c4278f1b962451acaa39acff2d11",
    ],
}


@pytest.mark.parametrize("name", list(RECURSION_GOLDEN))
def test_recursion_outputs_are_pinned(name, demo_scenario, tmp_path):
    got = _recursion_case(name, demo_scenario, tmp_path)
    assert list(got) == list(RECURSION_GOLDEN[name])


def _one_batch_sde(spec, x0, seed, sigma, substeps):
    """simulate_sde as first written: every normal drawn in one batch and
    scaled in place, then fed to the recursion as a single chunk."""
    sched = spec.schedule
    rng = np.random.Generator(np.random.PCG64(seed))
    batch = rng.standard_normal((sched.final_step - sched.n_updates) * substeps)
    batch *= sigma * math.sqrt(sched.step_size / substeps)
    return hybridsis.simulate._recurse(sched, spec.intervals, x0, substeps=substeps, noise=[batch])


@pytest.mark.parametrize("substeps", [1, 3, 7])
def test_chunked_normals_equal_one_batch(substeps):
    chunk = hybridsis.simulate._CHUNK
    assert chunk == 8192
    # before release 2, 8192 samples have flowed, so 8192 * substeps draws
    # are spent: release 2 sits exactly on a chunk boundary, releases 1 and
    # 3 just before and after it, and the path runs over 4 chunks of draws
    steps = (chunk - 50, chunk + 2, chunk + 60)
    intervals = [IntervalParams(beta=0.6, gamma=0.2)] + [
        IntervalParams(alpha=a, beta=0.5, gamma=0.3) for a in (-0.2, -0.3, -0.1)
    ]
    spec = HybridModelSpec(UpdateSchedule(steps, 4 * chunk + 100, 0.05), tuple(intervals))
    for seed, sigma in ((3, 0.05), (8, 0.5)):
        got = simulate_sde(spec, 0.2, seed=seed, sigma=sigma, substeps=substeps)
        values, clamps = _one_batch_sde(spec, 0.2, seed, sigma, substeps)
        assert got.values.tobytes() == values.tobytes()
        assert got.clamp_count == clamps
        assert values[-1] > 0.0  # no floor absorbed the path before the last chunk


def _heap_peak_mib(call) -> float:
    """The tracemalloc peak of one call, made after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sde_working_memory_does_not_grow_with_substeps():
    # 2,001 samples at 500 sub-steps are 1e6 normals, 7.6 MiB in one batch
    spec = single_interval(0.5, 0.2, 2000, h=0.1)
    assert _heap_peak_mib(lambda: simulate_sde(spec, 0.05, seed=1, sigma=0.01, substeps=500)) < 0.25


@pytest.mark.parametrize("name", ["dt", "ct-m2", "ct-m300", "sde", "observation_noise"])
def test_generators_allocate_their_output_once(name):
    n = 200_000
    m = 300 if name == "ct-m300" else 2
    steps = tuple(n * (j + 1) // (m + 1) for j in range(m))
    intervals = [IntervalParams(beta=0.5, gamma=0.2)] + [
        IntervalParams(alpha=(-0.05, 0.05)[j % 2], beta=0.5, gamma=0.25) for j in range(m)
    ]
    spec = HybridModelSpec(UpdateSchedule(steps, n - 1, 0.01), tuple(intervals))
    clean = simulate_dt(spec, 0.05)
    call = {
        "dt": lambda: simulate_dt(spec, 0.05),
        "ct": lambda: simulate_ct(spec, 0.05),
        "sde": lambda: simulate_sde(spec, 0.05, seed=2, sigma=0.01),
        "observation_noise": lambda: add_observation_noise(clean, 0.01, seed=3),
    }[name.split("-")[0]]
    output = n * 8 / 2**20
    assert _heap_peak_mib(call) <= 1.15 * output + 0.1


def test_observation_noise_determinism_and_clipping():
    clean = Trajectory(values=np.full(2001, 0.5), step_size=1.0, population=1000)
    a = add_observation_noise(clean, 0.02, seed=11)
    b = add_observation_noise(clean, 0.02, seed=11)
    c = add_observation_noise(clean, 0.02, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.population == 1000
    resid = a.values - clean.values
    assert 0.015 < resid.std() < 0.025

    # zero sigma is the identity
    same = add_observation_noise(clean, 0.0, seed=11)
    assert np.array_equal(same.values, clean.values)

    # near the floor the clip engages and is counted
    low = Trajectory(values=np.full(500, 0.01), step_size=1.0)
    noisy = add_observation_noise(low, 0.5, seed=2)
    assert noisy.clamp_count > 0
    assert noisy.values.min() >= 0.0 and noisy.values.max() <= 1.0
    with pytest.raises(ValueError):
        add_observation_noise(clean, -0.1, seed=0)


def test_trajectory_csv_roundtrip(tmp_path, demo_scenario):
    traj = simulate_dt(demo_scenario.spec, demo_scenario.x0)
    with_pop = Trajectory(values=traj.values, step_size=1.0, population=1_000_000)
    path = tmp_path / "t.csv"
    write_trajectory_csv(with_pop, path)
    header = path.read_text().splitlines()[0]
    assert header == "step,time,x,count"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.values, traj.values)  # 17 digits round-trip
    assert back.step_size == 1.0
    assert back.population is None  # scale is not stored in the file

    bare_path = tmp_path / "bare.csv"
    write_trajectory_csv(traj, bare_path)
    assert bare_path.read_text().splitlines()[0] == "step,time,x"


def test_trajectory_csv_to_stream():
    traj = Trajectory(values=[0.5, 0.525], step_size=1.0)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,time,x"
    assert len(lines) == 3
    assert lines[1].startswith("0,0,0.5")


def test_read_trajectory_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("foo,bar,baz\n0,0,0.5\n1,1,0.6\n")
    with pytest.raises(ValueError, match="header"):
        read_trajectory_csv(bad_header)

    out_of_order = tmp_path / "b.csv"
    out_of_order.write_text("step,time,x\n0,0,0.5\n2,2,0.6\n")
    with pytest.raises(ValueError, match="out of order"):
        read_trajectory_csv(out_of_order)

    too_short = tmp_path / "c.csv"
    too_short.write_text("step,time,x\n0,0,0.5\n")
    with pytest.raises(ValueError, match="at least 2"):
        read_trajectory_csv(too_short)

    malformed = tmp_path / "d.csv"
    malformed.write_text("step,time,x\n0,0,0.5\n1,1,not-a-number\n")
    with pytest.raises(ValueError, match="malformed"):
        read_trajectory_csv(malformed)


def golden_trajectory(n, population=None):
    values = np.random.default_rng(2026).random(20_001)
    values[3:6] = [0.0, 1.0, 5e-324]
    return Trajectory(values=values[:n], step_size=0.01, population=population)


# pinned sha256 of the written bytes (17 significant digits), recorded with a
# csv.writer row-by-row writer; the prefix lengths straddle the 8192-row write
# chunk, and each case also runs with a 3-row chunk
WRITER_GOLDEN = [
    (20_001, None, "a7edf07caef39d8e1f1da18a6cb37f6c680054e7d92121be6fcaac07451e9114"),
    (20_001, 1_000_003, "05818cfb43b35a4af660645bd2f20afe4228ca05a0efd20db5f0e0d2d498db75"),
    (2, 1_000_003, "b8c14342af0b1c729bc829d34167d38639bca11ef9b567c33714e475f788247a"),
    (8191, 1_000_003, "a185775fa845bc26a32a1e3caac74578fdfeb3370a16b87187431785cf69781c"),
    (8192, 1_000_003, "4ebf74427d554c7e26584b0eeb3576ba92b86be272af868b677ce99f1414a79d"),
    (8193, 1_000_003, "f728738ec30503ef10d52a3bf64d290d2e4bfe8d95d73df015e0060d82876676"),
]


@pytest.mark.parametrize("chunk", [8192, 3])
@pytest.mark.parametrize(
    "n, population, sha",
    WRITER_GOLDEN,
    ids=[f"n{n}-{'count' if p else 'bare'}-digits17" for n, p, _ in WRITER_GOLDEN],
)
def test_write_trajectory_csv_bytes_are_pinned(tmp_path, monkeypatch, chunk, n, population, sha):
    assert hybridsis.simulate._WRITE_CHUNK == 2048
    monkeypatch.setattr(hybridsis.simulate, "_WRITE_CHUNK", chunk)
    traj = golden_trajectory(n, population)
    path = tmp_path / "g.csv"
    write_trajectory_csv(traj, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue().encode() == path.read_bytes()


def write_rows_loop(traj, fh):
    """The writer's former row loop, one bound format call per row: the
    reference that the numpy formatter must match byte for byte."""
    head, row = "step,time,x", "{},{:.17g},{:.17g}"
    cols = [range(len(traj)), (np.arange(len(traj)) * traj.step_size).tolist(), traj.values.tolist()]
    if traj.population is not None:
        head, row = head + ",count", row + ",{}"
        cols.append(traj.to_counts().tolist())
    fh.write(head + "\n" + "".join(map((row + "\n").format, *cols)))


def formatted(words):
    """The strings of one field laid out by the writer, one per row."""
    return hybridsis.simulate._join_rows([words]).split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_float_field_equals_format_17g(values):
    words = hybridsis.simulate._float_words(np.array(values, dtype=float))
    assert formatted(words) == [format(v, ".17g") for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_int_field_equals_str(values):
    words = hybridsis.simulate._int_words(np.array(values, dtype=np.int64))
    assert formatted(words) == [str(k) for k in values]


def _float_edges():
    edges = [0.0, -0.0, 5e-324, 2.2250738585072009e-308]
    for k in range(-6, 18):
        p = float(f"1e{k}")
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    # exact ties 1 + k * 2**-17, 17 digits plus a trailing 5: rounded half to even
    edges += [1.0 + k * 2.0**-17 for k in range(1, 2**17, 2)]
    edges = np.array(edges, dtype=float)
    return np.concatenate([edges, -edges])


def test_fields_match_format_on_the_edge_corpus():
    v = _float_edges()
    assert 1.00000762939453125 in v
    assert formatted(hybridsis.simulate._float_words(v)) == [format(x, ".17g") for x in v.tolist()]
    k = [0, 1, 2**53, 2**63 - 1, -(2**63)] + [10**j - 1 for j in range(1, 19)] + [10**j for j in range(19)]
    k += [-x for x in k[1:4]]
    assert formatted(hybridsis.simulate._int_words(np.array(k, dtype=np.int64))) == list(map(str, k))


def _edge_trajectories():
    rng = np.random.default_rng(15)
    raw = np.array([0.5, -0.25, 1.5, 3e16, -7e20, 5e-5, -3e-7, 5e-324, -0.0, 0.0, 1e-4, 12345.678])
    raw = np.concatenate([raw, rng.choice(raw, 5000) * rng.random(5000)])
    counted = np.array([-0.5, 1023.0, 0.3, -1000.0, 1e-9, 0.0, 1.0])
    counted = np.concatenate([counted, rng.choice(counted, 5000)])
    return {
        "raw_forecast": Trajectory(values=raw, step_size=0.37),
        "absorbed": Trajectory(values=np.zeros(5000), step_size=0.01, population=1_000_003),
        "long_counts": Trajectory(values=counted, step_size=1.0, population=2**53),
    }


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("name", list(_edge_trajectories()))
def test_writer_matches_the_row_loop(monkeypatch, chunk, name):
    if chunk is not None:
        monkeypatch.setattr(hybridsis.simulate, "_WRITE_CHUNK", chunk)
    traj = _edge_trajectories()[name]
    got, want = io.StringIO(), io.StringIO()
    write_trajectory_csv(traj, got)
    write_rows_loop(traj, want)
    assert got.getvalue() == want.getvalue()


def test_csv_io_bench_runs_at_toy_size(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--layers", "csv",
                    "--reps", "1", "--sizes", "50,60", "--out", str(out), f"here={ROOT / 'src'}"],
                   check=True)
    report = json.loads(out.read_text())
    want = [f"write,n={n},{case}" for n in (50, 60)
            for case in ("bare", "count", "count,zeros", "count,below_1e-4")]
    want += [f"read,n={n},{case}" for n in (50, 60) for case in ("bare", "count")]
    assert sorted(report["cells"]) == sorted(report["peak_mib"]) == sorted(want)
    assert all(set(cell) == {"here"} for cell in report["cells"].values())
    assert all(set(cell) == {"here"} and cell["here"] > 0 for cell in report["peak_mib"].values())
    assert set(report) == {"layer", "unit", "statistic", "cells", "peak_mib", "env"}
    assert set(report["env"]) >= {"python", "numpy", "nproc"}


def test_simulate_bench_runs_at_toy_size(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--layers", "simulate",
                    "--reps", "1", "--sizes", "1000", "--out", str(out), f"here={ROOT / 'src'}"],
                   check=True)
    report = json.loads(out.read_text())
    want = [f"simulate,{name},m={m},n=1000" for m in (2, 50, 300)
            for name in ("dt", "ct", "sde", "observation_noise", "forecast")]
    assert sorted(report["cells"]) == sorted(report["peak_mib"]) == sorted(want)
    assert all(cell["here"] > 0 for cell in report["peak_mib"].values())
    assert report["layer"] == "simulate"


def test_align_bench_runs_at_toy_size(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--layers", "align",
                    "--reps", "1", "--sizes", "1000", "--out", str(out), f"here={ROOT / 'src'}"],
                   check=True)
    report = json.loads(out.read_text())
    want = [f"align,{name}m={m},n=1000" for m in (2, 50, 300) for name in ("", "smooth7,")]
    assert sorted(report["cells"]) == sorted(report["peak_mib"]) == sorted(want)
    assert all(cell["here"] > 0 for cell in report["peak_mib"].values())
    assert report["layer"] == "align"


shares = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),  # subnormal
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(shares, min_size=2, max_size=300),
    h=st.sampled_from([0.01, 0.37, 1.0, 1e-3]),
)
def test_trajectory_csv_roundtrip_property(values, h):
    traj = Trajectory(values=values, step_size=h)
    with tempfile.TemporaryDirectory() as d:
        bare, counted = Path(d) / "bare.csv", Path(d) / "counted.csv"
        write_trajectory_csv(traj, bare)
        write_trajectory_csv(
            Trajectory(values=values, step_size=h, population=1_000_003), counted
        )
        back, back_counted = read_trajectory_csv(bare), read_trajectory_csv(counted)
    assert back.values.tobytes() == traj.values.tobytes()
    assert back.step_size == h
    assert back_counted.values.tobytes() == back.values.tobytes()
    assert back_counted.step_size == back.step_size


# Each file reads exactly as the row-by-row csv-module reader alone reads it
# (expected values, or error type and message, recorded with that reader): the
# C parser in front of it may change neither.  "{path}" stands for the file's
# path and "{grid}" for the repr of the float k*h in the off-grid messages.
HEADER = b"step,time,x\n"
READER_CORPUS = {
    "header_only": (HEADER, ValueError, "{path}: a trajectory needs at least 2 samples"),
    "empty_file": (b"", ValueError, "{path}: expected header step,time,x[,count]"),
    "wrong_header": (
        b"foo,bar,baz\n0,0,0.5\n1,1,0.6\n",
        ValueError,
        "{path}: expected header step,time,x[,count]",
    ),
    "single_row": (
        HEADER + b"0,0,0.5\n", ValueError, "{path}: a trajectory needs at least 2 samples"
    ),
    "two_columns": (
        HEADER + b"0,0,0.5\n1,1\n", ValueError, "{path}:3: expected at least 3 columns"
    ),
    "step_float": (
        HEADER + b"0,0,0.5\n1.0,1,0.6\n",
        ValueError,
        "{path}:3: malformed row: invalid literal for int() with base 10: '1.0'",
    ),
    "out_of_order": (
        HEADER + b"0,0,0.5\n2,2,0.6\n", ValueError, "{path}:3: step 2 out of order"
    ),
    "malformed": (
        HEADER + b"0,0,0.5\n1,1,not-a-number\n",
        ValueError,
        "{path}:3: malformed row: could not convert string to float: 'not-a-number'",
    ),
    "nan_share": (
        HEADER + b"0,0,0.5\n1,1,nan\n2,2,0.6\n",
        ValueError,
        "{path}:3: share 'nan' is not finite",
    ),
    "inf_share": (
        HEADER + b"0,0,0.5\n1,1,-inf\n", ValueError, "{path}:3: share '-inf' is not finite"
    ),
    "quoted_share": (HEADER + b'0,0,"0.5"\n1,1,0.6\n', [0.5, 0.6], 1.0),
    "whitespace_line": (
        HEADER + b"0,0,0.5\n   \n1,1,0.6\n",
        ValueError,
        "{path}:3: expected at least 3 columns",
    ),
    "blank_lines": (HEADER + b"\n0,0,0.5\n\n1,0.25,0.6\n", [0.5, 0.6], 0.25),
    "blank_lines_off_grid": (
        HEADER + b"0,0,0.5\n\n\n1,1,0.6\n\n2,2.5,0.7\n",
        ValueError,
        "{path}:7: time 2.5 is off the even grid k*h = {grid} (h = 1.0 from the first two rows)",
    ),
    "crlf": (b"step,time,x\r\n0,0,0.5\r\n1,0.5,0.6\r\n", [0.5, 0.6], 0.5),
    "crlf_off_grid": (
        b"step,time,x\r\n0,0,0.5\r\n1,1,0.6\r\n2,7,0.7\r\n",
        ValueError,
        "{path}:4: time 7.0 is off the even grid k*h = {grid} (h = 1.0 from the first two rows)",
    ),
    "off_grid": (
        HEADER + b"0,0,0.5\n1,1,0.6\n2,2.1,0.7\n",
        ValueError,
        "{path}:4: time 2.1 is off the even grid k*h = {grid} (h = 1.0 from the first two rows)",
    ),
    "nonpositive_h": (
        HEADER + b"0,1,0.5\n1,1,0.6\n", ValueError, "{path}: non-positive step size 0.0"
    ),
    "count_column": (b"step,time,x,count\n0,0,0.5,500\n1,1,0.6,600\n", [0.5, 0.6], 1.0),
    # accepted by int()/float() but not by numpy's parser
    "underscore_literal": (HEADER + b"0,0,0.5\n1,1_0,0.6\n", [0.5, 0.6], 10.0),
    # accepted by numpy's parser but not by float() or the csv module
    "separator_padding": (
        HEADER + b"0,0,0.5\x1c\n1,1,0.6\n",
        ValueError,
        "{path}:2: malformed row: could not convert string to float: '0.5\\x1c'",
    ),
    "quoted_newline_extra_column": (
        HEADER + b'0,0,0.5,"a\n1,1,0.6,b"\n',
        ValueError,
        "{path}: a trajectory needs at least 2 samples",
    ),
    "field_over_csv_limit": (
        HEADER + b"0,0,0.5," + b"a" * 140_000 + b"\n1,1,0.6\n",
        csv.Error,
        "field larger than field limit (131072)",
    ),
    # a record is named by its first physical line, after a header or a
    # quoted field that spans two
    "two_line_header": (
        b'step,time,"x\n"\n0,0,0.5\n1,1,nan\n', ValueError, "{path}:4: share 'nan' is not finite"
    ),
    "two_line_record": (
        HEADER + b'0,0,"0.5\n"\n1,1,0.6\n2,2,nan\n',
        ValueError,
        "{path}:5: share 'nan' is not finite",
    ),
}


@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_read_trajectory_csv_diagnostics_corpus(tmp_path, name):
    data, expected, detail = READER_CORPUS[name]
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, list):
            traj = read_trajectory_csv(path)
        else:
            with pytest.raises(expected) as err:
                read_trajectory_csv(path)
    assert [str(w.message) for w in caught] == []
    if isinstance(expected, list):
        assert traj.values.tobytes() == np.array(expected).tobytes()
        assert traj.step_size == detail
    else:
        message = detail.replace("{path}", str(path)).replace("{grid}", repr(2.0))
        assert str(err.value) == message


@pytest.mark.parametrize("header", [HEADER, b'step,time,"x\n"\n'], ids=["clean", "two_line_header"])
def test_read_trajectory_csv_parses_clean_files_in_c(tmp_path, monkeypatch, header):
    # a clean file never reaches the row loop: the C parser reads the body
    # from where the csv module left the handle, after every header line
    forbid_row_loop(monkeypatch, hybridsis.simulate)
    traj = Trajectory(values=np.linspace(0.1, 0.9, 500), step_size=0.01)
    text = io.StringIO()
    write_trajectory_csv(traj, text)
    path = tmp_path / "t.csv"
    path.write_bytes(header + text.getvalue().encode()[len(HEADER):])
    back = read_trajectory_csv(path)
    assert back.values.tobytes() == traj.values.tobytes()
    assert back.step_size == 0.01


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
@pytest.mark.parametrize(
    "data, expected",
    [
        (b"step,time,x\n0,0,0.5\n1,1,0.6\n", [0.5, 0.6]),
        (b"step,time,x\n0,0,0.5\n1,1,nan\n", "{path}:3: share 'nan' is not finite"),
    ],
    ids=["valid", "nan_share"],
)
def test_read_trajectory_csv_from_a_pipe(tmp_path, data, expected):
    # a pipe can be read only once, and opening a drained one again blocks:
    # the reader must make one line-by-line pass and still name the bad line
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    outcome = []

    def read():
        try:
            outcome.append(read_trajectory_csv(fifo).values.tolist())
        except ValueError as exc:
            outcome.append(str(exc))

    threads = [
        threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True),
        threading.Thread(target=read, daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    if isinstance(expected, str):
        expected = expected.replace("{path}", str(fifo))
    assert outcome == [expected]
