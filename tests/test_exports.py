import importlib

import pytest

MODULES = ["hybridsis"] + [
    f"hybridsis.{name}" for name in ("model", "simulate", "estimate", "ingest", "experiments")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # a name deleted from a module but left in an export list breaks star imports
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
