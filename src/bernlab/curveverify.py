"""Structural verification of computed minimax solutions.

Three independent checks tie a solved two-interval |x|^p problem back to
its conformal-map structure:

* the phase arccos((-1)^[p/2] (P(z) - z^p)/E) continues to a curve in the
  half-strip u in (0, (m+1) pi), v > 0 along z = iy, and on that curve
  E sin(u) sinh(v) equals |sin(pi p/2)| y^p identically, so the residual
  measures nothing but numerical error.  The continuation accepts a step
  when the phase moves by at most 1/2, picking between two candidates
  (the preimage nearest the previous point for each sign of arccos);
  it bisects a rejected step geometrically, and sizes its steps ahead
  from the last accepted rate of change in log y, so that a predicted
  step moves the phase by 0.4 and is rarely rejected;
* the coefficient sequence of P(x) - x^p - tE, ordered by exponent, shows
  exactly m+1 sign changes (a total-positivity fact), with prescribed
  endpoint signs (numpy's cheb2poly on mpf objects gives P's monomials);
  sign_pattern_check returns the row that `bernlab verify-curve --sign-t`
  prints for each t, a dict keyed t, sign_changes, expected_changes,
  first_sign, last_sign and passed;
* rescaled extremal functions approach the explicit limit profiles as the
  degree grows; profile_convergence returns the rows that `bernlab
  profiles` prints, one dict per degree keyed m, sup_distance and
  lambda_at_sup.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .conformal import power_limit_profile, sgn_limit_profile
from .errors import BranchTrackingError, InvalidProblemError, PrecisionBudgetError
from .precision import DEFAULT_CONFIG, PrecisionConfig, check_degrees
from .remez import (
    MinimaxProblem,
    MinimaxSolution,
    ProblemKind,
    build_problem,
    clenshaw,
    eval_solution,
    solve,
)

_MAX_REFINE = 48
# The phase move a predicted stride aims at: below the acceptance bound 1/2
# with room for the rate to grow along the step.
_STRIDE = 0.4


def _check_y_grid(ys):
    """Reject a y grid unless it is non-empty, positive and strictly
    increasing; return it."""
    if not ys or ys[0] <= 0 or any(b <= a for a, b in zip(ys, ys[1:])):
        raise InvalidProblemError("y_grid must be non-empty, positive and strictly increasing")
    return ys


@dataclass(frozen=True)
class PhaseTrace:
    """The phase along z = iy: u + iv = phi(iy) with branch bookkeeping.

    branch_windings packs the arccos branch per point as 2n for
    phi = acos(g) + 2 pi n and 2n + 1 for phi = -acos(g) + 2 pi n.
    """

    y_grid: tuple
    u: tuple
    v: tuple
    branch_windings: tuple

    def __post_init__(self):
        _check_y_grid(self.y_grid)
        for vv in self.v:
            if not vv > 0:
                raise InvalidProblemError("trace left the open upper half-strip")
        for left, right in zip(self.u, self.u[1:]):
            if abs(right - left) >= mp.pi / 2:
                raise InvalidProblemError(
                    "u jumps by >= pi/2 between neighbors; grid too coarse"
                )


def _phase_samples(sol: MinimaxSolution, problem: MinimaxProblem):
    """Closure y -> (-1)^[p/2] (P(iy) - (iy)^p) / E, the arccos argument."""
    if problem.kind is not ProblemKind.POWER:
        raise InvalidProblemError("phase reconstruction expects a power problem")
    p = mp.mpf(problem.p)
    sign = 1 if int(mp.floor(p / 2)) % 2 == 0 else -1
    err = sol.error
    if err <= 0:
        raise InvalidProblemError("degenerate solution: zero error")
    cosf = mp.cospi(p / 2)
    sinf = mp.sinpi(p / 2)
    coeffs = sol.coeffs
    interval = sol.interval

    def g(y):
        # P(iy) is real since P is even; (iy)^p on the principal branch.
        poly = clenshaw(coeffs, interval, -y * y)
        yp = y**p
        return sign * mp.mpc(poly - cosf * yp, -sinf * yp) / err

    return g


def _nearest_branch(base, prev):
    """(phi, winding code, |phi - prev|) for the arccos preimage phi of
    base nearest prev.

    The preimages are s base + 2 pi n for s = +/-1.  For each s only the
    real part depends on n, so n = round((Re prev - s Re base) / 2 pi)
    gives the nearest; the nearer of the two wins, s = +1 on an exact tie.
    """
    two_pi = 2 * mp.pi
    cands = []
    for s, parity in ((1, 0), (-1, 1)):
        n = int(mp.nint((mp.re(prev) - s * mp.re(base)) / two_pi))
        phi = s * base + two_pi * n
        cands.append((phi, 2 * n + parity, abs(phi - prev)))
    return min(cands, key=lambda c: c[2])


def reconstruct_phase(
    sol: MinimaxSolution,
    problem: MinimaxProblem,
    y_grid,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> PhaseTrace:
    """Continue the phase along z = iy over an increasing grid.

    The branch is seeded at the smallest y by the boundary correspondence
    (phi climbs the left edge u = 0 as z runs down (0, a)).  Each step
    keeps the preimage +/-acos(g) + 2 pi n closest to the previous point,
    one candidate per sign (`_nearest_branch`), and is accepted when the
    phase moves by at most 1/2; otherwise the gap in y is bisected
    geometrically, at most _MAX_REFINE times per grid point.  Before a
    point is tried, the last accepted step's |d phi| per unit of log y
    predicts the move; when it would exceed _STRIDE, an intermediate
    point where it equals _STRIDE is tried first.
    """
    with cfg.workprec():
        ys = _check_y_grid([mp.mpf(y) for y in y_grid])
        g = _phase_samples(sol, problem)

        def principal(y):
            return mp.acos(g(y))

        # Seed: the limit point at y -> 0+ sits on the edge u = 0, so pick
        # the preimage with positive imaginary part and smallest |Re|.
        base = principal(ys[0])
        first = base if mp.im(base) > 0 else -base
        if abs(mp.re(first)) > mp.pi / 2:
            raise BranchTrackingError(
                "seed phase unexpectedly far from the u = 0 edge; "
                "start the grid at smaller y"
            )
        winding0 = 0 if mp.im(base) > 0 else 1
        windings = [winding0]

        half = mp.mpf(1) / 2
        rate = 0  # |d phi| / d log y over the last accepted step
        prev_y, prev_phi = ys[0], first
        out_u, out_v = [mp.re(first)], [mp.im(first)]
        for y_target in ys[1:]:
            pending = [y_target]  # points still to reach; the last is next
            refines = 0
            while pending:
                y = pending[-1]
                dlog = mp.log(y / prev_y)
                if rate * dlog > _STRIDE:
                    dlog = _STRIDE / rate
                    y = prev_y * mp.exp(dlog)
                    pending.append(y)
                phi, code, step = _nearest_branch(principal(y), prev_phi)
                if step <= half:
                    rate = step / dlog
                    prev_y, prev_phi = y, phi
                    pending.pop()
                else:
                    refines += 1
                    if refines > _MAX_REFINE:
                        raise BranchTrackingError(
                            f"phase continuation stalled near y = {mp.nstr(y, 8)}"
                        )
                    pending.append(mp.sqrt(prev_y * y))  # geometric midpoint
            out_u.append(mp.re(phi))
            out_v.append(mp.im(phi))
            windings.append(code)
        return PhaseTrace(
            y_grid=tuple(ys),
            u=tuple(out_u),
            v=tuple(out_v),
            branch_windings=tuple(windings),
        )


def curve_residuals(trace: PhaseTrace, error, p, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Relative residuals of the curve equation along the trace:

        (E sin u sinh v - |sin(pi p/2)| y^p) / (|sin(pi p/2)| y^p).

    The equation is an exact identity of the extremal polynomial, so the
    residual is a pure numerical-error measure.
    """
    with cfg.workprec():
        error = mp.mpf(error)
        p = mp.mpf(p)
        scale = abs(mp.sinpi(p / 2))
        if scale == 0:
            raise InvalidProblemError("even integer p degenerates the curve equation")
        out = []
        for y, u, v in zip(trace.y_grid, trace.u, trace.v):
            rhs = scale * y**p
            out.append((error * mp.sin(u) * mp.sinh(v) - rhs) / rhs)
        return tuple(out)


def _monomial_coefficients(coeffs, interval):
    """Monomial coefficients in y of a Chebyshev-basis polynomial on interval.

    numpy's cheb2poly, run on mpf objects, gives the coefficients in
    s = (2y - (a+b))/(b-a); Horner in s = c0 + c1 y turns them into
    coefficients in y.  The caller runs this at doubled working precision:
    the conversion's conditioning grows exponentially with the degree,
    hence its degree cap.
    """
    import numpy as np
    from numpy.polynomial import chebyshev, polynomial

    a, b = interval
    s_to_y = [-(b + a) / (b - a), 2 / (b - a)]
    in_s = chebyshev.cheb2poly(np.array(coeffs, dtype=object))
    out = in_s[-1:]
    for c in in_s[-2::-1]:
        out = polynomial.polyadd(polynomial.polymul(out, s_to_y), [c])
    return out


def sign_pattern_check(
    sol: MinimaxSolution,
    problem: MinimaxProblem,
    t,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> dict:
    """Count coefficient sign changes of P(x) - x^p - tE by exponent order.

    In the reduced variable y = x^2 the sequence interleaves the monomial
    coefficients of Q(y) with a -1 at exponent p/2 and shifts the constant
    by -tE.  For |t| < 1 the count must be exactly m+1 with endpoint signs
    (-1)^[p/2] and (-1)^([p/2]+m+1).  The row, as verify-curve prints it:
    t; sign_changes; expected_changes, m+1; first_sign and last_sign, the
    first and last nonzero signs (0 if there are none); and passed, whether
    the count and both endpoint signs are as predicted.
    """
    return _sign_pattern_counter(sol, problem, cfg)(t)


def _sign_pattern_counter(sol, problem, cfg):
    """sign_pattern_check's t -> row for one solution, with P converted to
    monomials once, so that several t cost one conversion."""
    if problem.kind is not ProblemKind.POWER:
        raise InvalidProblemError("sign pattern applies to the power problem")
    m = problem.degree
    if m > 16:
        raise PrecisionBudgetError(
            "monomial conversion is limited to degree 16; conditioning grows "
            "exponentially"
        )
    with cfg.workprec(extra=cfg.mantissa_bits):
        half_p = mp.mpf(problem.p) / 2
        mono = _monomial_coefficients(sol.coeffs, sol.interval)
    floor_half = int(mp.floor(half_p))
    expected_first = 1 if floor_half % 2 == 0 else -1
    expected_last = 1 if (floor_half + m + 1) % 2 == 0 else -1

    def count(t):
        with cfg.workprec(extra=cfg.mantissa_bits):
            t = mp.mpf(t)
            if not abs(t) < 1:
                raise InvalidProblemError("t must lie in (-1, 1)")
            entries = [(mp.mpf(j), c) for j, c in enumerate([mono[0] - t * sol.error, *mono[1:]])]
            entries.append((half_p, mp.mpf(-1)))
            entries.sort(key=lambda e: e[0])
            nz = [1 if v > 0 else -1 for _, v in entries if v != 0]
            changes = sum(1 for x, y in zip(nz, nz[1:]) if x != y)
            first, last = (nz[0], nz[-1]) if nz else (0, 0)
            return {
                "t": t,
                "sign_changes": changes,
                "expected_changes": m + 1,
                "first_sign": first,
                "last_sign": last,
                "passed": (changes, first, last) == (m + 1, expected_first, expected_last),
            }

    return count


def profile_convergence(
    family: ProblemKind,
    params: dict,
    m_list,
    lambda_grid,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
):
    """Sup-distance between rescaled extremal values and the limit profile:
    one row per degree, in increasing order, keyed as the profiles report
    prints it.  m is the degree, sup_distance the largest distance over
    lambda_grid and lambda_at_sup the first lambda that attains it.

    POWER: (m/a)^(p/2) P(sqrt(a/m) lambda) against the power profile.
    SGN_LAURENT: f(sqrt(2a/(2m-1)) lambda) against the sgn profile.
    Each degree may appear once and is solved here.  Any other family,
    a repeated degree or a bad lambda is rejected before the first solve.
    """
    family = ProblemKind(family)
    if family not in (ProblemKind.POWER, ProblemKind.SGN_LAURENT):
        raise InvalidProblemError("profiles exist for the power and sgn families")
    degrees = check_degrees(m_list)
    rows = []
    with cfg.workprec():
        lams = [mp.mpf(x) for x in lambda_grid]
        a = mp.mpf(params["a"])
        # The profile does not depend on m: evaluate it once per lambda, and
        # reject a bad lambda before any solve runs.
        if family is ProblemKind.POWER:
            p = mp.mpf(params["p"])
            targets = [power_limit_profile(p, lam, cfg) for lam in lams]
        else:
            targets = [sgn_limit_profile(params["k"], lam, cfg) for lam in lams]
        for m in degrees:
            problem = build_problem(family, params, m)
            sol = solve(problem, cfg)
            if family is ProblemKind.POWER:
                step, gain = mp.sqrt(a / m), (mp.mpf(m) / a) ** (p / 2)
            else:
                step, gain = mp.sqrt(2 * a / (2 * m - 1)), 1
            best = mp.mpf(-1)
            best_lam = lams[0]
            for lam, target in zip(lams, targets):
                dist = abs(gain * eval_solution(sol, problem, step * lam) - target)
                if dist > best:
                    best, best_lam = dist, lam
            rows.append({"m": m, "sup_distance": best, "lambda_at_sup": best_lam})
    return rows
