import tracemalloc
from pathlib import Path

import pytest

from hybridsis import Scenario, load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_PATH = ROOT / "scenarios" / "two_updates.json"

# one PASS/FAIL line per acceptance test, echoed after the run so the
# verdicts are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def study_cell(result, regime: str, h: float):
    """The one cell of a noise-study result for a regime and step size."""
    (cell,) = [c for c in result.cells if c.regime == regime and c.h == h]
    return cell


def forbid_row_loop(monkeypatch, module) -> None:
    """Make module's CSV reads fail if they reach the line-by-line row loop,
    so a test can show that a file was accepted by the C parser alone."""
    read_csv = module._read_csv

    def c_parser_only(path, check_header, dtype, parse, row_loop, usecols=None):
        def row_loop_reached(records):
            raise AssertionError(f"{path} reached the row loop")

        return read_csv(path, check_header, dtype, parse, row_loop_reached, usecols)

    monkeypatch.setattr(module, "_read_csv", c_parser_only)


def heap_peak_mib(call) -> float:
    """The tracemalloc peak of one call, made after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def demo_scenario() -> Scenario:
    """The bundled two-release demo: h=1, releases at steps 30 and 90,
    final step 150, x0=0.05."""
    return load_scenario(SCENARIO_PATH)
