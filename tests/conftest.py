import pytest
from hypothesis import HealthCheck, settings

from oracles import bfs_levels

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_acceptance_lines = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "bench: fingerprint smoke test of the benchmark workloads"
    )


def record_acceptance(number, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    _acceptance_lines.append(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'}{tail}")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_acceptance_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def enum_small():
    """Length-graded elements, unit-test scale: k=2 up to length 6."""
    return bfs_levels(2, 6)


@pytest.fixture(scope="session")
def enum_by_rank():
    """Length-graded elements for k in 1..3, acceptance scale (length 8)."""
    return {k: bfs_levels(k, 8) for k in (1, 2, 3)}
