"""Exploratory solver for the phase equation of the unweighted whole-line
limit problem.

The unknown is an even phase profile rho on a symmetric grid together with
a positive level parameter L, coupled through the discrete Hilbert
transform:

    L * sin(rho(x)) * sinh(rho_tilde(x) + x) = x,

with rho_tilde = hilbert_grid(rho) and the normalization that the profile
extrapolates to pi at x = 0 (the map's centering condition).  Nothing here
claims existence or uniqueness of a solution; the module reports residuals
of candidate profiles and nothing more.

Solution scheme: a bordered Newton iteration on the half grid solves the
discrete system to rounding, starting on a coarse grid from the Gaussian
rho = (pi/2) exp(-x^2) with L = 1/2; the grid is then doubled, each level
seeded by linear interpolation of the last, until the requested
resolution is reached.  Everything runs in double precision, matching the
Hilbert stencil.

Newton is matrix-free (inexact Newton-Krylov).  On the half grid the
scaled Jacobian is D1 + D2*K, with diagonals D1 = L cos(rho) sinh(u) and
D2 = L sin(rho) cosh(u) (u = x + rho_tilde, rows scaled) and K the
half-grid Hilbert operator: the stencil folded onto the positive nodes,
one rfft/irfft pair of length nodes per product (folded_hilbert_operator).
Each Newton system is solved by GMRES, right-preconditioned by
(D1 - D2*K) * W with W = 1/(D1^2 + D2^2): since K^2 = -I for the
continuous transform (the classical regularization of singular integral
equations), the product (D1 + D2*K)(D1 - D2*K) is close to D1^2 + D2^2
wherever the diagonals vary slowly, and GMRES needs about ten iterations
at every grid size.  D2 must
stay outside K.  In the far field rho is about 1e-15, and D2 ~ sin(rho)
there scales the K term, rounding included, down to the size of rho.  The
other ordering, (D1 - K*D2) * W, takes as few iterations, but K then
spreads the near-field rounding, of order 1e-16, onto far nodes where rho
itself is about 1e-15; the unscaled residual ends between 1e-7 and 1e-5
instead of near 5e-13.

GMRES stops at the forcing term min(0.1, merit), at least _GMRES_RTOL, of
relative residual: a forcing term no larger than the residual keeps
Newton's quadratic convergence with fewer Krylov iterations far from the
root (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError
from .precision import check_exponent
from .specialfn import hilbert_grid
from .specialfn.hilbert import folded_hilbert_operator as _half_operator

# Tail of pi beyond double precision; sin(float pi) equals it to 1e-49.
_PI_TAIL = float(np.sin(np.pi))

# Newton steps allowed per continuation level.
_NEWTON_MAX_ITERS = 60

# Newton's linear solves: GMRES relative residual floor and iteration cap,
# and the largest forcing term (the relative residual asked of a step).
_GMRES_RTOL = 1e-10
_FORCING_MAX = 0.1
_GMRES_MAX_ITERS = 60


@dataclass(frozen=True)
class ConjectureState:
    """A candidate phase profile with its residual certificate.

    grid: uniform symmetric abscissas on [-X, X], even count so that x = 0
        falls between nodes (the profile has a root-type cusp there).
    rho: sampled phase in [0, pi], even in x for solver output.
    rho_tilde: discrete Hilbert transform of rho on the grid.
    L: level parameter of the equation.
    residual_norm: max equation residual over interior nodes.
    p: exponent the run was labelled with; the reduced equation itself is
        parameter-free, so this is metadata for reports.
    iterations: Newton steps taken over all continuation levels.
    converged: whether Newton converged on the finest level and the
        residual met the requested tolerance.
    history: one row (nodes, residual, L) per Newton step across all
        continuation levels, coarse to fine.
    """

    grid: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    L: float
    residual_norm: float
    p: float = 1.0
    iterations: int = 0
    converged: bool = False
    history: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        tilde = np.asarray(self.rho_tilde, dtype=float)
        if grid.ndim != 1 or grid.size < 8:
            raise InvalidProblemError("grid must hold at least 8 nodes")
        if rho.shape != grid.shape or tilde.shape != grid.shape:
            raise InvalidProblemError("rho and rho_tilde must match the grid")
        if not np.all(np.diff(grid) > 0):
            raise InvalidProblemError("grid must be strictly increasing")
        span = max(abs(grid[0]), abs(grid[-1]))
        if abs(grid[0] + grid[-1]) > 1e-9 * span:
            raise InvalidProblemError("grid must be symmetric about 0")
        if np.min(rho) < 0 or np.max(rho) > np.pi:
            raise InvalidProblemError("rho must stay within [0, pi]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "rho_tilde", tilde)


def _half_grid(x_max: float, nodes: int) -> np.ndarray:
    return np.linspace(-x_max, x_max, nodes)[nodes // 2 :]


def _gmres(apply, rhs, rtol, max_iters):
    """GMRES from zero for apply(x) = rhs, without restart.

    Arnoldi uses classical Gram-Schmidt applied twice (CGS2); Givens
    rotations keep the least-squares residual of the Hessenberg system,
    which is the residual norm of the iterate.  Returns (x, converged),
    converged meaning that norm fell to rtol*|rhs| within max_iters
    products.
    """
    beta = np.linalg.norm(rhs)
    basis = np.zeros((max_iters + 1, rhs.size))
    hess = np.zeros((max_iters + 1, max_iters))
    cos_g, sin_g = np.zeros(max_iters), np.zeros(max_iters)
    g = np.zeros(max_iters + 1)
    g[0] = beta
    basis[0] = rhs / beta
    k = 0
    converged = False
    while k < max_iters and not converged:
        w = apply(basis[k])
        for _ in range(2):
            coef = basis[: k + 1] @ w
            w -= coef @ basis[: k + 1]
            hess[: k + 1, k] += coef
        hess[k + 1, k] = np.linalg.norm(w)
        basis[k + 1] = w / hess[k + 1, k]
        for i in range(k):
            hess[i : i + 2, k] = (
                cos_g[i] * hess[i, k] + sin_g[i] * hess[i + 1, k],
                cos_g[i] * hess[i + 1, k] - sin_g[i] * hess[i, k],
            )
        radius = np.hypot(hess[k, k], hess[k + 1, k])
        cos_g[k], sin_g[k] = hess[k, k] / radius, hess[k + 1, k] / radius
        hess[k, k] = radius
        g[k + 1] = -sin_g[k] * g[k]
        g[k] *= cos_g[k]
        k += 1
        converged = abs(g[k]) <= rtol * beta
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - hess[i, i + 1 : k] @ y[i + 1 :]) / hess[i, i]
    return y @ basis[:k], converged


def _defect_weights(xpos: np.ndarray) -> np.ndarray:
    """Extrapolation weights for rho(0) from the three innermost nodes.

    The profile approaches pi with a square-root cusp, so the fit basis is
    {1, sqrt(x), x}; the centering defect is pi - weights @ rho[:3].
    """
    xs = xpos[:3]
    basis = np.vstack([np.ones(3), np.sqrt(xs), xs]).T
    return np.linalg.inv(basis)[0]


def _interior_max(values: np.ndarray) -> float:
    # Half-grid residual vector: drop only the outermost node, where the
    # domain truncation lives; by symmetry the negative side is identical.
    return float(np.max(np.abs(values[:-1])))


def _newton_phase(xpos, rho, L, half_op, history, nodes):
    """Bordered Newton solve of the discrete system on the half grid.

    Unknowns are (rho at positive nodes, L); the extra row enforces the pi
    centering defect, the extra column carries dF/dL.  Rows are scaled by
    1/(L(|sinh u|+1)) so the huge far-field entries do not swamp the
    linear algebra.  The Jacobian is never formed: its product with
    (v, dL) is D1*v + D2*K(v) + dF/dL*dL, with the centering row, and GMRES
    solves each step right-preconditioned by (D1 - D2*K)/(D1^2 + D2^2) on
    the profile block (identity on L; see the module docstring for why D2
    stays outside K).  A GMRES run that hits its iteration cap ends the
    level unconverged, as a singular system would.  Line search accepts
    only merit decreases.
    """
    m = xpos.size
    weights = _defect_weights(xpos)

    def assemble(rho_v, L_v):
        u = xpos + half_op(rho_v)
        sinh_u, cosh_u = np.sinh(u), np.cosh(u)
        f = L_v * np.sin(rho_v) * sinh_u - xpos
        scale = 1.0 / (L_v * (np.abs(sinh_u) + 1.0))
        defect = np.pi - weights @ rho_v[:3]
        return f, sinh_u, cosh_u, scale, defect

    f, sinh_u, cosh_u, scale, defect = assemble(rho, L)
    merit = np.max(np.abs(f * scale)) + abs(defect)
    converged = False
    for _ in range(_NEWTON_MAX_ITERS):
        sin_r = np.sin(rho)
        d1 = L * np.cos(rho) * sinh_u * scale
        d2 = L * sin_r * cosh_u * scale
        col = sin_r * sinh_u * scale
        inv_norm = 1.0 / (d1 * d1 + d2 * d2)

        def precondition(z):
            w = z[:m] * inv_norm
            return np.append(d1 * w - d2 * half_op(w), z[m])

        def jacobian_times_precondition(z):
            pz = precondition(z)
            v = pz[:m]
            return np.append(d1 * v + d2 * half_op(v) + col * pz[m], -weights @ v[:3])

        rhs = np.append(-f * scale, -defect)
        forcing = max(_GMRES_RTOL, min(_FORCING_MAX, merit))
        y, solved = _gmres(jacobian_times_precondition, rhs, forcing, _GMRES_MAX_ITERS)
        if not solved:
            break
        delta = precondition(y)
        # Trust region: cap the profile step and the relative L step.
        step = 1.0
        biggest = np.max(np.abs(delta[:m]))
        if biggest > 0.3:
            step = 0.3 / biggest
        if abs(delta[m]) * step > 0.2 * L:
            step = 0.2 * L / abs(delta[m])
        accepted = False
        for _ in range(30):
            rho_try = np.clip(rho + step * delta[:m], 1e-300, np.pi * (1 - 1e-15))
            L_try = L + step * delta[m]
            if L_try > 0:
                f_t, sinh_t, cosh_t, scale_t, defect_t = assemble(rho_try, L_try)
                merit_t = np.max(np.abs(f_t * scale_t)) + abs(defect_t)
                if merit_t < merit * (1 - 1e-4 * step) or merit_t < 1e-14:
                    rho, L = rho_try, L_try
                    f, sinh_u, cosh_u, scale, defect = f_t, sinh_t, cosh_t, scale_t, defect_t
                    merit = merit_t
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        history.append((nodes, _interior_max(f), L))
        if merit < 1e-13:
            converged = True
            break
    return rho, L, converged


def solve_phase_equation(
    p,
    x_max: float = 40.0,
    nodes: int = 4096,
    *,
    tol: float = 1e-8,
) -> ConjectureState:
    """Solve the discrete phase equation on [-x_max, x_max].

    The exponent p is validated and recorded but does not enter the
    reduced equation.  tol is the interior residual defining convergence.
    Coarse-to-fine continuation halves the cost and keeps Newton inside
    its basin: the grid is halved while it exceeds 384 nodes and stays
    divisible by 4, Newton starts on that coarsest level from
    rho = (pi/2) exp(-x^2) with L = 1/2, and each doubling is seeded by
    linear interpolation.  Each level allows _NEWTON_MAX_ITERS steps.

    Never raises on non-convergence: the best state found is returned
    with converged False, so the caller can inspect the trace.
    """
    p_f = check_exponent(p)
    if not x_max > 0:
        raise InvalidProblemError("x_max must be positive")
    if nodes < 32 or nodes % 2 != 0:
        raise InvalidProblemError(
            "nodes must be an even count of at least 32 (x = 0 falls between nodes)"
        )

    levels = [nodes]
    while levels[0] > 384 and levels[0] % 4 == 0:
        levels.insert(0, levels[0] // 2)

    history: list = []
    xpos = _half_grid(x_max, levels[0])
    rho = 0.5 * np.pi * np.exp(-xpos * xpos)
    L = 0.5
    for level in levels:
        x_new = _half_grid(x_max, level)
        # The identity on the coarsest level; seeds each finer one.
        rho = np.interp(x_new, xpos, rho)
        xpos = x_new
        rho, L, converged = _newton_phase(xpos, rho, L, _half_operator(level), history, level)

    full_grid = np.linspace(-x_max, x_max, nodes)
    full_rho = np.concatenate([rho[::-1], rho])
    tilde = hilbert_grid(full_rho, full_grid)
    residual = L * np.sin(full_rho) * np.sinh(tilde + full_grid) - full_grid
    residual_norm = float(np.max(np.abs(residual[1:-1])))
    return ConjectureState(
        grid=full_grid,
        rho=full_rho,
        rho_tilde=tilde,
        L=L,
        residual_norm=residual_norm,
        p=p_f,
        iterations=len(history),
        converged=converged and residual_norm <= tol,
        history=tuple(history),
    )


def phase_residual(state: ConjectureState) -> float:
    """Max interior residual of the stored state in the height variable
    v = pi - rho: the equation through sin(pi - rho) = sin(rho), an
    algebraic cross-check of residual_norm."""
    u = state.rho_tilde + state.grid
    # A bare pi - rho loses 1e-16 of angle, which cosh(u) at the far
    # nodes amplifies to order one; compensate the subtraction with
    # pi's double-precision tail so the sine identity survives.
    v = np.pi - state.rho
    residue = (-state.rho) - (v - np.pi)
    sin_angle = np.sin(v) + (residue + _PI_TAIL) * np.cos(v)
    residual = state.L * sin_angle * np.sinh(u) - state.grid
    return float(np.max(np.abs(residual[1:-1])))
