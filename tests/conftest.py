"""Shared fixtures: precision configs and pre-solved minimax problems.

The session-scoped solver fixtures exist because several structural checks
(asymptotic sweeps, profile convergence, the acceptance gate) want the same
degree-10 and degree-20 solutions, and each is solved only once.
"""

import pytest

from bernlab.precision import PrecisionConfig
from bernlab.remez import build_power_problem, build_sgn_problem, solve


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance criterion, printed outside capture."""
    import sys

    lines = []
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "CRITERION_LINES", [])
            break
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg128():
    return PrecisionConfig(mantissa_bits=128)


@pytest.fixture(scope="session")
def cfg192():
    return PrecisionConfig(mantissa_bits=192)


@pytest.fixture(scope="session")
def cfg256():
    return PrecisionConfig(mantissa_bits=256)


@pytest.fixture(scope="session")
def solved_power(cfg256):
    """(problem, solution) for |x|^1.5 on a=1/2 at degrees 10 and 20."""
    out = {}
    for m in (10, 20):
        problem = build_power_problem("1.5", "0.5", m)
        out[m] = (problem, solve(problem, cfg256))
    return out


@pytest.fixture(scope="session")
def solved_sgn(cfg256):
    """(problem, solution) for the sgn Laurent family, k=1, a=1/2."""
    out = {}
    for m in (10, 20):
        problem = build_sgn_problem(1, "0.5", m)
        out[m] = (problem, solve(problem, cfg256))
    return out
