"""Nonlinear phase-equation solver: convergence, symmetry, refinement."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bernlab
from bernlab import conjecture
from bernlab.conjecture import ConjectureState, phase_residual, solve_phase_equation
from bernlab.errors import InvalidProblemError


@pytest.fixture(scope="module")
def solved():
    return solve_phase_equation(1, nodes=1024)


def test_converges_to_tolerance(solved):
    assert solved.converged
    assert solved.residual_norm < 1e-8
    assert 0.28 < solved.L < 0.30
    assert solved.iterations == len(solved.history) > 0


def test_profile_symmetry(solved):
    # rho is built on the half grid and mirrored, so evenness is exact;
    # the transform of an even function is odd up to rounding.
    assert np.array_equal(solved.rho, solved.rho[::-1])
    assert np.max(np.abs(solved.rho_tilde + solved.rho_tilde[::-1])) < 1e-12


def test_profile_shape(solved):
    assert np.min(solved.rho) >= 0.0
    assert np.max(solved.rho) > 2.5
    assert np.max(solved.rho) < np.pi
    # The phase dies off exponentially toward the window edge.
    assert solved.rho[-1] < 1e-10
    # Center value extrapolates to pi through the square-root cusp basis.
    n = solved.grid.size
    xs = solved.grid[n // 2 : n // 2 + 3]
    basis = np.vstack([np.ones(3), np.sqrt(xs), xs]).T
    weights = np.linalg.inv(basis)[0]
    defect = np.pi - weights @ solved.rho[n // 2 : n // 2 + 3]
    assert abs(defect) < 1e-12


def test_residual_history_tail_is_monotone(solved):
    tail = tuple(row[1] for row in solved.history if row[0] == solved.grid.size)
    tail = tail[-min(10, len(tail)) :]
    assert len(tail) >= 2
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_history_rows_are_labelled(solved):
    sizes = [row[0] for row in solved.history]
    # Continuation runs coarse to fine.
    assert sizes == sorted(sizes)
    assert sizes[-1] == solved.grid.size


def test_height_form_agrees_with_phase_form(solved):
    assert abs(phase_residual(solved) - solved.residual_norm) < 1e-12


def test_residual_of_flat_state_is_interior_sup():
    grid = np.linspace(-5.0, 5.0, 16)
    state = ConjectureState(
        grid=grid,
        rho=np.zeros_like(grid),
        rho_tilde=np.zeros_like(grid),
        L=1.0,
        residual_norm=0.0,
    )
    assert phase_residual(state) == abs(grid[1])


def test_exponent_is_recorded_but_reduced_problem_is_shared():
    # The reduction eliminates the exponent; two values of p must give the
    # same level constant bit for bit while keeping their own p field.
    a = solve_phase_equation(1, nodes=512)
    b = solve_phase_equation("1.5", nodes=512)
    assert a.p == 1.0
    assert b.p == 1.5
    assert a.L == b.L


def test_refinement_ratio_in_first_order_band(solved):
    coarse = solve_phase_equation(1, nodes=512)
    fine = solve_phase_equation(1, nodes=2048)
    assert coarse.converged and solved.converged and fine.converged
    # Richardson ratio: 2^q for a level parameter of order q in the grid step.
    ratio = (coarse.L - solved.L) / (solved.L - fine.L)
    assert 2.0 <= ratio <= 6.0


def test_level_constant_stable_under_window_doubling():
    narrow = solve_phase_equation(1, x_max=20.0, nodes=1024)
    wide = solve_phase_equation(1, x_max=40.0, nodes=2048)
    assert narrow.converged and wide.converged
    assert abs(narrow.L - wide.L) / wide.L < 0.01


def test_starved_iteration_budget_reports_failure(monkeypatch):
    monkeypatch.setattr(conjecture, "_NEWTON_MAX_ITERS", 0)
    state = solve_phase_equation(1, nodes=512)
    assert not state.converged
    assert np.isfinite(state.residual_norm)


def test_parameter_validation():
    with pytest.raises(InvalidProblemError):
        solve_phase_equation(2, nodes=512)
    with pytest.raises(InvalidProblemError):
        solve_phase_equation(0, nodes=512)
    with pytest.raises(InvalidProblemError):
        solve_phase_equation(1, nodes=511)
    with pytest.raises(InvalidProblemError):
        solve_phase_equation(1, nodes=16)
    with pytest.raises(InvalidProblemError):
        solve_phase_equation(1, nodes=512, x_max=-1)


def test_state_validation():
    grid = np.linspace(-5.0, 5.0, 16)
    zeros = np.zeros_like(grid)
    with pytest.raises(InvalidProblemError):
        ConjectureState(grid=grid[:4], rho=zeros[:4], rho_tilde=zeros[:4], L=1.0, residual_norm=0.0)
    with pytest.raises(InvalidProblemError):
        ConjectureState(grid=grid, rho=zeros[:-1], rho_tilde=zeros, L=1.0, residual_norm=0.0)
    with pytest.raises(InvalidProblemError):
        ConjectureState(grid=grid + 1.0, rho=zeros, rho_tilde=zeros, L=1.0, residual_norm=0.0)
    with pytest.raises(InvalidProblemError):
        ConjectureState(grid=grid, rho=zeros + 4.0, rho_tilde=zeros, L=1.0, residual_norm=0.0)


def _dense_half_stencil(nodes):
    # The odd-offset stencil (2/pi)/k folded onto the positive half grid for
    # even profiles: the mirror of positive node j sits k = i + j + 1 away.
    i, j = np.indices((nodes // 2, nodes // 2))
    kernel = lambda k: np.where(k % 2 != 0, (2.0 / np.pi) / np.where(k == 0, 1, k), 0.0)
    return kernel(i - j) + kernel(i + j + 1)


@pytest.mark.parametrize("nodes", [64, 388, 1024, 4096])
def test_half_operator_matches_dense_stencil(nodes):
    v = np.random.default_rng(nodes).standard_normal(nodes // 2)
    got = conjecture._half_operator(nodes)(v)
    assert np.max(np.abs(got - _dense_half_stencil(nodes) @ v)) < 1e-14 * np.max(np.abs(v))


@pytest.mark.parametrize(
    "nodes, frozen", [(1024, 0.288053882912753), (2048, 0.28396816084052473)]
)
def test_level_matches_dense_newton_values(nodes, frozen):
    # Frozen from the dense-LU Newton solver that the Krylov solver replaced.
    state = solve_phase_equation(1, nodes=nodes)
    assert abs(state.L - frozen) < 1e-13 * frozen


def _count_gmres_products(monkeypatch):
    # Operator products of each GMRES run, one per GMRES iteration.
    counts = []
    gmres = conjecture._gmres

    def counted(apply, *args):
        counts.append(0)

        def counted_apply(z):
            counts[-1] += 1
            return apply(z)

        return gmres(counted_apply, *args)

    monkeypatch.setattr(conjecture, "_gmres", counted)
    return counts


@pytest.mark.parametrize("nodes", [512, 4096])
def test_gmres_iterations_per_newton_step_stay_flat(nodes, monkeypatch):
    counts = _count_gmres_products(monkeypatch)
    state = solve_phase_equation(1, nodes=nodes)
    assert state.converged
    assert len(counts) == len(state.history)
    assert max(counts) <= 20


def test_forcing_terms_bound_the_operator_products(monkeypatch):
    # Steps far from the root ask GMRES only for a relative residual of
    # min(0.1, merit); a fixed 1e-10 took 236 products here.
    counts = _count_gmres_products(monkeypatch)
    assert solve_phase_equation(1, nodes=2048).converged
    assert sum(counts) <= 180


@pytest.mark.parametrize("nodes", [2048, 4096])
def test_far_field_keeps_relative_accuracy(nodes):
    # Where rho is near 1e-15 a preconditioner that lets the Hilbert
    # operator's rounding through leaves residuals near 1e-6.
    assert solve_phase_equation(1, nodes=nodes).residual_norm <= 1e-11


def test_gmres_iteration_cap_reports_failure(monkeypatch):
    monkeypatch.setattr(conjecture, "_GMRES_MAX_ITERS", 2)
    state = solve_phase_equation(1, nodes=512)
    assert not state.converged
    assert state.history == ()


@pytest.mark.parametrize(
    "nodes, x_max",
    [(32, 40.0), (388, 40.0), (1024, 2.0), (1024, 20.0), (1024, 160.0), (4096, 40.0)],
)
def test_newton_alone_converges_from_the_gaussian_start(nodes, x_max):
    # No warm-up sweep precedes Newton: every history row is a Newton step,
    # and a dozen of them suffice on every continuation level.
    state = solve_phase_equation(1, nodes=nodes, x_max=x_max)
    assert state.converged
    assert state.residual_norm <= 1e-11
    assert max(Counter(row[0] for row in state.history).values()) <= 12


def test_package_exports_the_conjecture_layer_lazily():
    src = str(Path(bernlab.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, bernlab; print(sorted(m for m in sys.modules if m.startswith('bernlab.')))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert loaded.stdout.strip() == "[]"
    namespace = {}
    exec("from bernlab import *", namespace)
    assert set(bernlab.__all__) <= set(namespace)
    assert bernlab.solve_phase_equation is bernlab.conjecture.solve_phase_equation
    for layer, names in bernlab._EXPORTS.items():
        module = getattr(bernlab, layer)
        for name in names.split():
            assert getattr(bernlab, name) is getattr(module, name), name
    assert set(bernlab.__all__) <= set(dir(bernlab))
    with pytest.raises(AttributeError):
        bernlab.no_such_name


def test_report_does_not_depend_on_blas_threads():
    src = str(Path(bernlab.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "bernlab.cli", "conjecture", "--nodes", "512"],
            capture_output=True, text=True, check=True, env=env,
        )
        reports.append(json.loads(out.stdout))
    assert reports[0] == reports[1]
