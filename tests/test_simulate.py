import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridsis import (
    HybridModelSpec,
    IntervalParams,
    SimulationConfig,
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
    with pytest.raises(ValueError, match="outside"):
        simulate_dt(spec, 0.8)  # 1.9 * 0.8 = 1.52
    with pytest.warns(UserWarning, match="clamped"):
        traj = simulate_dt(spec, 0.8, on_jump_escape="clamp")
    assert traj.values[1] == 1.0
    assert traj.clamp_count == 1
    with pytest.raises(ValueError, match="policy"):
        simulate_dt(spec, 0.8, on_jump_escape="wat")


def test_ct_exact_matches_logistic():
    spec = single_interval(0.9, 0.3, 20)
    traj = simulate_ct(spec, 0.1, SimulationConfig(fine_substeps=20))
    exact = np.array([logistic(0.1, 0.9, 0.3, t) for t in range(21)])
    np.testing.assert_allclose(traj.values, exact, atol=1e-12, rtol=0)


def test_ct_equal_rates_closed_form():
    spec = single_interval(0.3, 0.3, 15)
    traj = simulate_ct(spec, 0.4, SimulationConfig(fine_substeps=20))
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
    traj = simulate_ct(
        demo_scenario.spec, demo_scenario.x0, SimulationConfig(fine_substeps=100)
    )
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
        np.max(np.abs(simulate_ct(spec, 0.1, SimulationConfig(fine_substeps=sub),
                                  method="euler").values - exact))
        for sub in (1, 2, 4)
    ]
    # order one: halving the sub-step halves the error
    assert 1.8 < errs[0] / errs[1] < 2.2 and 1.8 < errs[1] / errs[2] < 2.2


def test_ct_euler_one_substep_equals_dt(demo_scenario):
    spec = demo_scenario.spec
    dt_traj = simulate_dt(spec, demo_scenario.x0)
    ct_traj = simulate_ct(
        spec, demo_scenario.x0, SimulationConfig(fine_substeps=1), method="euler"
    )
    assert np.array_equal(dt_traj.values, ct_traj.values)


def test_ct_rejects_unknown_method(demo_scenario):
    with pytest.raises(ValueError, match="method"):
        simulate_ct(demo_scenario.spec, 0.05, method="heun")


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(fine_substeps=0)
    with pytest.raises(ValueError):
        simulate_ct(single_interval(0.5, 0.2, 5), 1.2, SimulationConfig())


def test_sde_zero_sigma_equals_euler_ct(demo_scenario):
    spec = demo_scenario.spec
    for sub in (1, 3):
        cfg = SimulationConfig(sigma=0.0, fine_substeps=sub, seed=5)
        sde = simulate_sde(spec, demo_scenario.x0, cfg)
        euler = simulate_ct(spec, demo_scenario.x0, cfg, method="euler")
        assert np.array_equal(sde.values, euler.values)


def test_sde_seed_determinism(demo_scenario):
    spec = demo_scenario.spec
    a = simulate_sde(spec, 0.05, SimulationConfig(seed=3, sigma=0.02))
    b = simulate_sde(spec, 0.05, SimulationConfig(seed=3, sigma=0.02))
    c = simulate_sde(spec, 0.05, SimulationConfig(seed=4, sigma=0.02))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sde_noise_term_is_standard_normal():
    # with both rates zero the path is x_{k+1} = x_k (1 + sigma sqrt(h) z_k),
    # so the driving draws can be recovered and checked
    spec = single_interval(0.0, 0.0, 2000)
    traj = simulate_sde(spec, 0.5, SimulationConfig(seed=7, sigma=0.01))
    v = traj.values
    z = (v[1:] / v[:-1] - 1.0) / 0.01
    assert abs(z.mean()) < 0.1
    assert 0.9 < z.std() < 1.1
    assert traj.clamp_count == 0


def test_sde_zero_is_absorbing_and_counted():
    spec = single_interval(0.0, 0.0, 200)
    traj = simulate_sde(spec, 0.5, SimulationConfig(seed=1, sigma=0.8))
    v = traj.values
    assert traj.clamp_count >= 1
    assert v.min() == 0.0
    first_zero = int(np.argmax(v == 0.0))
    assert np.all(v[first_zero:] == 0.0)


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
