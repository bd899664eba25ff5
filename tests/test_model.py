import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridsis import (
    HybridModelSpec,
    IntervalParams,
    Scenario,
    Trajectory,
    UpdateSchedule,
    load_scenario,
    load_schedule,
    parameter_names,
    reproduction_number,
    save_scenario,
    theta_pack,
    theta_unpack,
)
from hybridsis.model import scenario_from_dict, scenario_to_dict, theta_slice

DEMO_SCHED = UpdateSchedule(update_steps=(30, 90), final_step=150, step_size=1.0)


def test_interval_params_coerce_and_freeze():
    p = IntervalParams(beta=1, gamma="0.2")
    assert isinstance(p.beta, float) and p.beta == 1.0
    assert p.gamma == 0.2
    assert p.alpha is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.beta = 2.0


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
    assert DEMO_SCHED.jump_step(1) == 30
    assert DEMO_SCHED.jump_step(2) == 90
    for bad in (0, 3):
        with pytest.raises(ValueError):
            DEMO_SCHED.jump_step(bad)
    assert [DEMO_SCHED.interval_start(i) for i in range(3)] == [0, 30, 90]


def test_sis_index_ranges():
    # every interval but the last stops one short of the next release; the
    # last keeps the tail
    assert DEMO_SCHED.sis_index_range(0) == range(0, 29)
    assert DEMO_SCHED.sis_index_range(1) == range(30, 89)
    assert DEMO_SCHED.sis_index_range(2) == range(90, 150)
    with pytest.raises(ValueError):
        DEMO_SCHED.sis_index_range(3)
    no_updates = UpdateSchedule((), 10, 1.0)
    assert no_updates.sis_index_range(0) == range(0, 10)


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
    src = np.array([0.1, 0.2, 0.3])
    traj = Trajectory(values=src, step_size=0.5)
    src[0] = 9.9
    assert traj.values[0] == 0.1
    with pytest.raises(ValueError):
        traj.values[0] = 0.0


def test_trajectory_counts_and_times():
    traj = Trajectory(values=[0.1, 0.25004, 0.5], step_size=2.0, population=10_000)
    np.testing.assert_array_equal(traj.to_counts(), [1000, 2500, 5000])
    assert len(traj) == 3 and traj.n_steps == 2
    bare = Trajectory(values=[0.1, 0.2], step_size=1.0)
    with pytest.raises(ValueError):
        bare.to_counts()


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
    with pytest.raises(ValueError):
        Scenario(spec=demo_scenario.spec, x0=1.5)
    with pytest.raises(ValueError):
        Scenario(spec=demo_scenario.spec, x0=0.5, population=-3)


def test_scenario_json_roundtrip(tmp_path, demo_scenario):
    path = tmp_path / "s.json"
    scen = Scenario(spec=demo_scenario.spec, x0=0.05, population=2_000_000)
    save_scenario(scen, path)
    again = load_scenario(path)
    assert again == scen
    # file ends with a newline and holds plain JSON
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["final_step"] == 150


def test_scenario_dict_strictness(demo_scenario):
    d = scenario_to_dict(demo_scenario)
    assert scenario_from_dict(d) == demo_scenario

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
    save_scenario(demo_scenario, path)
    sched = load_schedule(path)
    assert sched == demo_scenario.spec.schedule
