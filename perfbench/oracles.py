"""Independent oracles for the benchmark's correctness checks.

Nothing here imports bernlab.  Every expected value is recomputed from the
mathematics with mpmath's own special functions and with a Chebyshev
evaluation of the benchmark's own (T_j(t) = cos(j acos t)), never with
remez.clenshaw.  Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

# Bits for every oracle computation: the 256-bit reports plus headroom for
# the cancellation in target - polynomial.
WORKPREC = 352

# |r| on the reported reference must equal E to this relative accuracy.  The
# solver stops once min|r|/max|r| >= 1 - 1e-19 at 256 bits, so 1e-15 leaves
# four orders of margin while a 1e-12 error in E still fails.
LEVEL_TOL = "1e-15"
# Allowed excess of max|r| on a dense grid over E (de la Vallee Poussin).
DENSE_TOL = "1e-15"
# Relative agreement of E with Chebyshev's closed form for (b+x)^-1.
AKHIEZER_TOL = "1e-20"
# Relative agreement of a Cauchy transform with the DLMF 8.6 form.
CAUCHY_TOL = "1e-40"
# Far-offset routes against log Gamma(k+1/2) - log pi: the closed form is
# exact, the far-field route is a three-radius Richardson fit (about 1e-14
# today) and the integral route runs at 96 bits with rel_tol 1e-10.
OFFSET_TOLS = {"closed_form": "1e-40", "far_field": "1e-10", "integral": "1e-7"}
# Limit constants and the power profile at lambda = 0.
CONSTANT_TOL = "1e-30"
# Relative residual of the curve equation E sin u sinh v = |sin(pi p/2)| y^p.
CURVE_TOL = "1e-30"


def chebyshev_sum(coeffs, interval, y):
    """sum_j c_j T_j(t), t the image of y in [-1, 1], with T_j = cos(j acos t)."""
    lo, hi = interval
    t = (2 * y - (lo + hi)) / (hi - lo)
    theta = mp.acos(min(max(t, -1), 1))
    return mp.fsum(c * mp.cos(j * theta) for j, c in enumerate(coeffs))


def weighted_residual(family, params, coeffs, interval, y):
    """Weighted deviation of the reduced problem at y, from its definition.

    absxp: y^(p/2) - P(y) on [a^2, 1]; sgn-laurent: 1 - P(y) y^(1/2-k)
    (the odd Laurent sum divided by sgn); akhiezer: (b+y)^-s - P(y).
    """
    poly = chebyshev_sum(coeffs, interval, y)
    if family == "absxp":
        return y ** (mp.mpf(params["p"]) / 2) - poly
    if family == "sgn-laurent":
        return 1 - poly * y ** (mp.mpf(1) / 2 - int(params["k"]))
    return (mp.mpf(params["b"]) + y) ** (-mp.mpf(params["s"])) - poly


def check_minimax(label, family, params, sol, rng, *, dense_per_point=20):
    """Equioscillation and the de la Vallee Poussin bound for one solution.

    sol carries coefficients, interval, alternation, signs and error_E as
    numbers or decimal strings.  Three checks: the weighted residual
    alternates in sign on the reported points with the reported signs; its
    size there equals E; its maximum over Chebyshev points (dense_per_point
    per reference point) plus one seeded random point per reference point is
    at most E (1 + DENSE_TOL).
    """
    fails = []
    with mp.workprec(WORKPREC):
        coeffs = [mp.mpf(c) for c in sol["coefficients"]]
        lo, hi = (mp.mpf(v) for v in sol["interval"])
        err = mp.mpf(sol["error_E"])
        ref = [mp.mpf(y) for y in sol["alternation"]]
        signs = [int(s) for s in sol["signs"]]
        if len(ref) != len(coeffs) + 1 or len(signs) != len(ref):
            return [f"{label}: {len(ref)} reference points for degree {len(coeffs) - 1}"]
        res = [weighted_residual(family, params, coeffs, (lo, hi), y) for y in ref]
        for i, (r, s) in enumerate(zip(res, signs)):
            if mp.sign(r) != s or (i and s != -signs[i - 1]):
                fails.append(f"{label}: residual does not alternate at point {i}")
                break
        level = max(abs(abs(r) / err - 1) for r in res)
        if level > mp.mpf(LEVEL_TOL):
            fails.append(f"{label}: |r| on the reference differs from E by {mp.nstr(level, 3)}")
        count = dense_per_point * len(ref)
        grid = [
            (lo + hi) / 2 - (hi - lo) / 2 * mp.cospi(mp.mpf(i) / (count - 1))
            for i in range(count)
        ]
        grid += [lo + (hi - lo) * mp.mpf(rng.random()) for _ in ref]
        peak = max(abs(weighted_residual(family, params, coeffs, (lo, hi), y)) for y in grid)
        excess = peak / err - 1
        if excess > mp.mpf(DENSE_TOL):
            fails.append(f"{label}: dense max|r| exceeds E by {mp.nstr(excess, 3)} relative")
    return fails


def check_akhiezer_closed_form(label, error, b, degree):
    """Chebyshev: E_l((b+x)^-1) on [-1, 1] = (b - sqrt(b^2-1))^l / (b^2 - 1)."""
    with mp.workprec(WORKPREC):
        b = mp.mpf(b)
        exact = (b - mp.sqrt(b * b - 1)) ** degree / (b * b - 1)
        rel = abs(mp.mpf(error) / exact - 1)
        if rel > mp.mpf(AKHIEZER_TOL):
            return [f"{label}: E differs from the closed form by {mp.nstr(rel, 3)} relative"]
    return []


def check_sweep(label, rows):
    """E decreases in m, and E/predicted ends nearer 1 than it starts."""
    fails = []
    with mp.workprec(WORKPREC):
        errs = [mp.mpf(r["E"]) for r in rows]
        ratios = [mp.mpf(r["ratio"]) for r in rows]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            fails.append(f"{label}: E does not decrease in m")
        if not abs(ratios[-1] - 1) < abs(ratios[0] - 1):
            fails.append(
                f"{label}: E/predicted moved away from 1 "
                f"({mp.nstr(ratios[0], 5)} -> {mp.nstr(ratios[-1], 5)})"
            )
    return fails


def gamma_cauchy(alpha, zeta):
    """(1/pi) int_0^inf t^alpha e^-t / (t - zeta) dt for zeta off [0, inf),
    in the incomplete-gamma form of DLMF 8.6:
    Gamma(alpha+1) (-zeta)^alpha e^-zeta Gamma(-alpha, -zeta) / pi."""
    w = -zeta
    return mp.gamma(alpha + 1) * w**alpha * mp.exp(w) * mp.gammainc(-alpha, w) / mp.pi


def gamma_cauchy_boundary(alpha, xi):
    """Value at xi + i0, xi > 0.  mpmath's principal branch at -zeta = -xi
    is the limit from below the cut; the density is real, so the value
    from above is its complex conjugate."""
    return mp.conj(gamma_cauchy(alpha, xi))


def check_close(label, got, expected, tol):
    """Relative agreement |got - expected| <= tol |expected|."""
    with mp.workprec(WORKPREC):
        rel = abs(mp.mpmathify(got) - expected) / abs(expected)
        if rel > mp.mpf(tol):
            return [f"{label}: off by {mp.nstr(rel, 3)} relative (tolerance {tol})"]
    return []


def check_far_offsets(label, k, routes):
    """Every route against log Gamma(k+1/2) - log pi from mp.loggamma."""
    fails = []
    with mp.workprec(WORKPREC):
        exact = mp.loggamma(mp.mpf(2 * k + 1) / 2) - mp.log(mp.pi)
        for name, tol in OFFSET_TOLS.items():
            gap = abs(mp.mpf(routes[name]) - exact)
            if gap > mp.mpf(tol):
                fails.append(f"{label}: {name} off by {mp.nstr(gap, 3)} (tolerance {tol})")
    return fails


def limit_scale(p):
    """Lambda = |sin(pi p/2)| Gamma(p/2) / pi."""
    p = mp.mpf(p)
    return abs(mp.sinpi(p / 2)) * mp.gamma(p / 2) / mp.pi


def check_limit_constants(label, p, boundary_scale, expansion_constant):
    """Lambda as above, and c = log(p/2), since exp(c) = |sin| Gamma(p/2+1)/(pi Lambda)."""
    with mp.workprec(WORKPREC):
        fails = check_close(f"{label} scale", boundary_scale, limit_scale(p), CONSTANT_TOL)
        gap = abs(mp.mpf(expansion_constant) - mp.log(mp.mpf(p) / 2))
        if gap > mp.mpf(CONSTANT_TOL):
            fails.append(f"{label} constant: off by {mp.nstr(gap, 3)}")
    return fails


def check_profile_origin(label, p, value):
    """The power profile at lambda = 0 equals sin(pi p/2) Gamma(p/2) / pi."""
    with mp.workprec(WORKPREC):
        p = mp.mpf(p)
        return check_close(label, value, mp.sinpi(p / 2) * mp.gamma(p / 2) / mp.pi, CONSTANT_TOL)


def check_profile_rows(label, rows):
    """The sup-distance to the limit profile drops as m grows."""
    with mp.workprec(WORKPREC):
        dist = [mp.mpf(r["sup_distance"]) for r in rows]
    if any(b >= a for a, b in zip(dist, dist[1:])):
        return [f"{label}: sup-distance does not drop in m: {[mp.nstr(d, 4) for d in dist]}"]
    return []


def check_curve(label, results, p, sign_count):
    """verify-curve: the curve equation recomputed from the reported trace,
    the reported maximum, and every sign-pattern entry."""
    fails = []
    with mp.workprec(WORKPREC):
        p = mp.mpf(p)
        err = mp.mpf(results["error_E"])
        scale = abs(mp.sinpi(p / 2))
        worst = mp.mpf(0)
        for row in results["trace"]:
            y, u, v = (mp.mpf(row[key]) for key in ("y", "u", "v"))
            rhs = scale * y**p
            worst = max(worst, abs((err * mp.sin(u) * mp.sinh(v) - rhs) / rhs))
        reported = mp.mpf(results["max_relative_residual"])
        for name, value in (("recomputed", worst), ("reported", reported)):
            if value > mp.mpf(CURVE_TOL):
                fails.append(f"{label}: {name} curve residual {mp.nstr(value, 3)}")
    pattern = results.get("sign_pattern", [])
    if len(pattern) != sign_count or not all(entry["passed"] for entry in pattern):
        fails.append(f"{label}: sign-pattern entries failed or missing: {pattern}")
    return fails


def direct_hilbert(rho):
    """(2/pi) sum over odd offsets q of rho[j - q] / q, by direct convolution."""
    n = rho.size
    offsets = np.arange(-(n - 1), n)
    kernel = np.zeros(2 * n - 1)
    odd = offsets % 2 != 0
    kernel[odd] = (2.0 / np.pi) / offsets[odd]
    return np.convolve(rho, kernel, mode="full")[n - 1 : 2 * n - 1]


def check_phase_state(label, grid, rho, level, tol):
    """max over interior nodes of |L sin(rho) sinh(rho~ + x) - x| <= tol, with
    rho~ recomputed here from rho."""
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(rho, dtype=float)
    residual = level * np.sin(rho) * np.sinh(direct_hilbert(rho) + grid) - grid
    worst = float(np.max(np.abs(residual[1:-1])))
    if not worst <= tol:
        return [f"{label}: recomputed phase residual {worst:.3e} exceeds {tol:g}"]
    return []
