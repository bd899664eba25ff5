import importlib

import pytest

import hybridsis

PARTS = ("model", "simulate", "estimate", "ingest", "experiments")
MODULES = ["hybridsis"] + [f"hybridsis.{name}" for name in PARTS]

# the package's export list before it was built from the modules' own lists
EXPORTED_BEFORE = [
    "__version__", "IntervalParams", "UpdateSchedule", "HybridModelSpec", "Trajectory",
    "Scenario", "theta_pack", "theta_unpack", "parameter_names", "reproduction_number",
    "load_scenario", "load_schedule", "StabilityWarning", "simulate_dt", "simulate_ct",
    "simulate_sde", "add_observation_noise", "write_trajectory_csv", "read_trajectory_csv",
    "RegressionSystem", "build_regression", "IdentifiabilityReport", "check_identifiability",
    "RankDeficiencyWarning", "EstimationResult", "estimate", "error_metrics", "forecast",
    "RawSeries", "AlignedDataset", "load_series", "load_update_dates", "align",
    "ExperimentPlan", "load_plan", "derive_seed", "NoiseStudyResult", "run_noise_study",
    "FitReport", "run_realdata_study",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # a name deleted from a module but left in an export list breaks star imports
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_the_package_exports_each_modules_list_once():
    lists = [importlib.import_module(f"hybridsis.{name}").__all__ for name in PARTS]
    assert hybridsis.__all__ == ["__version__"] + [name for names in lists for name in names]
    assert len(set(hybridsis.__all__)) == len(hybridsis.__all__)
    assert set(EXPORTED_BEFORE) <= set(hybridsis.__all__)
    # the package attribute is the function, not the submodule of the same name
    assert hybridsis.estimate is importlib.import_module("hybridsis.estimate").estimate
