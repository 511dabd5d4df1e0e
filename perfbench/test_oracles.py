"""The benchmark's checks pass on real program output and fail on output
perturbed by far less than any workload's tolerance would hide.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from bernlab import conformal, conjecture  # noqa: E402
from bernlab.precision import PrecisionConfig  # noqa: E402
from bernlab.specialfn import cauchy_boundary, gamma_density  # noqa: E402

import oracles  # noqa: E402
from workloads import cli  # noqa: E402


@pytest.fixture(scope="module")
def solve_report():
    text = cli("solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "4")
    doc = json.loads(text)
    return doc["results"], doc["inputs"]


def _minimax(results, inputs):
    return oracles.check_minimax("solve", "absxp", inputs, results, random.Random(0))


def test_minimax_check_passes_on_solver_output(solve_report):
    assert _minimax(*solve_report) == []


def test_minimax_check_fails_when_E_is_scaled(solve_report):
    results, inputs = solve_report
    with mp.workprec(oracles.WORKPREC):
        scaled = dict(results, error_E=mp.mpf(results["error_E"]) * (1 + mp.mpf("1e-12")))
    assert any("differs from E" in f for f in _minimax(scaled, inputs))


def test_minimax_check_fails_when_a_coefficient_moves(solve_report):
    results, inputs = solve_report
    with mp.workprec(oracles.WORKPREC):
        coeffs = list(results["coefficients"])
        coeffs[-1] = mp.mpf(coeffs[-1]) + mp.mpf(results["error_E"]) * mp.mpf("1e-6")
    assert _minimax(dict(results, coefficients=coeffs), inputs) != []


def test_akhiezer_closed_form_has_teeth():
    text = cli("solve", "--family", "akhiezer", "--s", "1", "--b", "2", "--m", "6")
    error = json.loads(text)["results"]["error_E"]
    assert oracles.check_akhiezer_closed_form("akhiezer", error, "2", 6) == []
    with mp.workprec(oracles.WORKPREC):
        off = mp.mpf(error) * (1 + mp.mpf("1e-15"))
    assert oracles.check_akhiezer_closed_form("akhiezer", off, "2", 6) != []


def test_cauchy_check_fails_when_the_principal_value_shifts():
    cfg = PrecisionConfig(mantissa_bits=256)
    value = cauchy_boundary(gamma_density(mp.mpf(1) / 2), 2, cfg)
    with mp.workprec(oracles.WORKPREC):
        expected = oracles.gamma_cauchy_boundary(mp.mpf(1) / 2, mp.mpf(2))
        shifted = value + mp.mpf("1e-20")
        assert oracles.check_close("pv", value, expected, oracles.CAUCHY_TOL) == []
        assert oracles.check_close("pv", shifted, expected, oracles.CAUCHY_TOL) != []


@pytest.mark.parametrize("route", sorted(oracles.OFFSET_TOLS))
def test_far_offset_check_fails_when_a_route_shifts(route):
    # The closed form and the far-field fit come from the program; the
    # integral route (15 s) is stood in for by the closed form.
    cfg = PrecisionConfig(mantissa_bits=192)
    closed = conformal.far_offset_closed(1, cfg)
    routes = {
        "closed_form": closed,
        "far_field": conformal.far_offset_far_field(1, cfg),
        "integral": closed,
    }
    assert oracles.check_far_offsets("offsets", 1, routes) == []
    with mp.workprec(oracles.WORKPREC):
        routes[route] = routes[route] + mp.mpf("1e-5")
    assert oracles.check_far_offsets("offsets", 1, routes) != []


def test_phase_check_fails_when_L_moves():
    state = conjecture.solve_phase_equation(1, nodes=512, tol=1e-8)
    assert state.converged
    assert oracles.check_phase_state("phase", state.grid, state.rho, state.L, 1e-8) == []
    assert oracles.check_phase_state("phase", state.grid, state.rho, state.L * (1 + 1e-7), 1e-8)


def test_direct_hilbert_matches_the_known_pair():
    # (1/pi) PV int 1/(1+t^2) / (x - t) dt = x / (1 + x^2)
    x = np.linspace(-200, 200, 4000)
    got = oracles.direct_hilbert(1 / (1 + x * x))
    inner = np.abs(x) < 5
    assert np.max(np.abs(got[inner] - (x / (1 + x * x))[inner])) < 1e-3
