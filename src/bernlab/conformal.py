"""Explicit conformal maps built from Cauchy transforms of gamma-type
densities, their normalization constants, and the limit profiles of the
rescaled approximants.

The slit map of index k >= 0 is

    zeta - (k - 1/2) * log(-zeta) + log{ (1/pi) Int t^(k-1/2) e^-t / (t - zeta) dt },

a Nevanlinna map of the upper half-plane onto a half-plane with one
horizontal slit; log(-zeta) is the principal branch, so the cut sits on
[0, inf).  The limit map for the |x|^p problem replaces the density by
(|sin(pi p/2)| / scale) * t^(p/2) e^-t with the scale fixed so the mass of
tau(t)/t is pi.

Both maps are zeta - c log(-zeta) + log(scale C(zeta)), with C the closed
Cauchy transform of t^alpha e^-t, at (alpha, scale, c) = (k - 1/2, 1, k - 1/2)
for the slit map and (p/2, pi/Gamma(p/2), 0) for the limit map.  One
evaluator works off the cut (gamma_cauchy_integral), one on the upper edge
(gamma_cauchy_boundary), so no map runs a quadrature.  tooth_density and
limit_density give the same densities as DensitySpecs for the quadrature
route, cauchy_integral and cauchy_boundary, which checks the closed form.

The limit profiles of the rescaled approximants are the same closed-form
transforms on the negative axis: substituting t = mu^2 turns each profile
integral into gamma_cauchy_integral at zeta = -lambda^2.  The only
quadratures left here are checks: the far-offset integral route on one Kummer
evaluator, and limit_constants' unit mass in its substituted variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import InvalidProblemError, QuadratureError
from .precision import DEFAULT_CONFIG, PrecisionConfig, check_exponent
from .remez import bracketed_root
from .specialfn import (
    gamma_cauchy_boundary,
    gamma_cauchy_integral,
    gamma_density,
    integrate_finite,
    log_gamma,
)
from .specialfn.cauchy import _kummer_boundary
from .specialfn.quadrature import _substitution_order


@dataclass(frozen=True)
class ConformalSample:
    """One evaluation of a conformal map: the point zeta, the map's value,
    and cauchy_part, the log of the Cauchy transform inside the value."""

    zeta: object
    value: object
    cauchy_part: object


@dataclass(frozen=True)
class MapConstants:
    """Normalization constants of the limit map.

    boundary_scale: scale of the limit-map density (Lambda).
    expansion_constant: constant c in limit_map(zeta) ~ zeta - log(-zeta) + c.
    """

    boundary_scale: object
    expansion_constant: object


def _tooth_exponent(k: int):
    if not isinstance(k, int) or k < 0:
        raise InvalidProblemError("k must be a nonnegative integer")
    return mp.mpf(2 * k - 1) / 2


def tooth_density(k: int):
    """The density t^(k-1/2) e^-t behind the slit map of index k."""
    return gamma_density(_tooth_exponent(k))


def _map_off_cut(alpha, scale, log_coeff, zeta, cfg):
    """The map of the module docstring, c = log_coeff, off the cut."""
    with cfg.workprec():
        zeta = mp.mpmathify(zeta)
        if mp.im(zeta) == 0:
            if mp.re(zeta) >= 0:
                raise InvalidProblemError("zeta lies on the cut [0, inf)")
            zeta = mp.re(zeta)
        cauchy_part = mp.log(scale * gamma_cauchy_integral(alpha, zeta, cfg))
        log_term = log_coeff * mp.log(-zeta) if log_coeff else 0
        return ConformalSample(zeta, zeta - log_term + cauchy_part, cauchy_part)


def _map_boundary(alpha, scale, log_coeff, xi, cfg):
    """The same map at xi + i0, xi > 0: log(-zeta) is log(xi) - i*pi there."""
    with cfg.workprec():
        xi = mp.mpf(xi)
        cauchy_part = mp.log(scale * gamma_cauchy_boundary(alpha, xi, cfg))
        log_term = log_coeff * (mp.log(xi) - mp.mpc(0, mp.pi)) if log_coeff else 0
        return ConformalSample(mp.mpc(xi, 0), xi - log_term + cauchy_part, cauchy_part)


def slit_map(k: int, zeta, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ConformalSample:
    """Evaluate the slit map of index k off the cut.

    For k = 0 the map is normalized so its value tends to 0 as zeta -> 0
    along the negative axis.
    """
    alpha = _tooth_exponent(k)
    return _map_off_cut(alpha, 1, alpha, zeta, cfg)


def slit_map_boundary(k: int, xi, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ConformalSample:
    """Boundary value of the slit map at xi + i0, xi > 0."""
    alpha = _tooth_exponent(k)
    return _map_boundary(alpha, 1, alpha, xi, cfg)


def _phase(k: int, cfg: PrecisionConfig):
    """t -> phase_density(k, t, cfg) at the caller's precision."""
    alpha = _tooth_exponent(k)
    boundary = _kummer_boundary(alpha, cfg)

    def phase(t):
        pv, density = boundary(t)
        return alpha + mp.atan2(density, pv) / mp.pi

    return phase


def phase_density(k: int, t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(1/pi) * Im of the slit map on the upper edge of the cut.

    There -(k - 1/2) log(-zeta) adds (k - 1/2) pi and the log of the Cauchy
    transform C adds arg C, so this is k - 1/2 + atan2(Im C, Re C)/pi, with
    no complex log.  Ranges over (k - 1/2, k + 1/2) and tends to k + 1/2 as
    t -> inf.
    """
    with cfg.workprec():
        return _phase(k, cfg)(t)


def slit_map_zero(k: int, cfg: PrecisionConfig = DEFAULT_CONFIG, *, bracket=(1e-6, 1e6)):
    """The point -D on the negative axis where the slit map vanishes.

    The map is strictly increasing along the negative axis, so the bracket
    [-hi, -lo] holds one sign change.  Its two end values, computed for
    that check, seed remez.bracketed_root, which finds D without
    evaluating the map at either end again.
    """
    with cfg.workprec():
        lo, hi = (mp.mpf(bracket[0]), mp.mpf(bracket[1]))

        def value(d):
            return slit_map(k, -d, cfg).value

        f_lo, f_hi = value(lo), value(hi)
        if not (f_lo > 0 > f_hi):
            raise InvalidProblemError(
                f"no sign change on the bracket: f(-{lo})={mp.nstr(f_lo, 6)}, "
                f"f(-{hi})={mp.nstr(f_hi, 6)}"
            )
        return bracketed_root(value, lo, hi, f_lo, f_hi)


def far_offset_closed(k: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Closed form of the far-field offset: log Gamma(k + 1/2) - log pi."""
    with cfg.workprec():
        return log_gamma(mp.mpf(2 * k + 1) / 2, cfg).log_abs - mp.log(mp.pi)


def far_offset_far_field(k: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Far-field route: evaluate the map at zeta = -R and extrapolate.

    The correction decays like 1/R, so a three-point Richardson fit in
    R0/R removes the first two orders.
    """
    with cfg.workprec():
        half = mp.mpf(1) / 2
        rs = [mp.mpf(r) for r in (1e4, 1e5, 1e6)]
        ys = [slit_map(k, -r, cfg).value + r + (k + half) * mp.log(r) for r in rs]
        # Fit y = Y + c1*u + c2*u^2 with u = rs[0]/r and read off Y.
        us = [rs[0] / r for r in rs]
        rows = [[mp.mpf(1), u, u * u] for u in us]
        sol = mp.lu_solve(mp.matrix(rows), mp.matrix(ys))
        return sol[0]


# Precision of the integral route's inner work: its accuracy is set by the
# quadrature's rel_tol of 1e-10, far above 96-bit rounding.
_INTEGRAL_ROUTE_BITS = 96


def far_offset_integral(k: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Integral route through the zero of the map:

        D + (k+1/2) log D - Int_0^inf (rho_k(t) - (k+1/2)) / (t + D) dt,

    with rho_k the phase density.  D and the integral are computed at
    _INTEGRAL_ROUTE_BITS, to the quadrature's relative tolerance of 1e-10.
    """
    inner = PrecisionConfig(mantissa_bits=_INTEGRAL_ROUTE_BITS)
    with cfg.workprec():
        d = slit_map_zero(k, inner)
        top = k + mp.mpf(1) / 2
        phase = _phase(k, inner)

        # The phase density rises from k-1/2 with a sqrt(t) term, so
        # integrate in u = sqrt(t), where the integrand is analytic.
        def integrand(u):
            t = u * u
            return (phase(t) - top) / (t + d) * 2 * u

        # The integrand decays like t^(k+3/2) e^-t; 50 + 10k suppresses the
        # tail far below the route's accuracy.
        cut = 50.0 + 10.0 * k
        with inner.workprec():
            corr = integrate_finite(integrand, 0, mp.sqrt(cut), inner, rel_tol=mp.mpf(1e-10))
        return d + top * mp.log(d) - corr


def _limit_exponent_and_scale(p, cfg):
    """p/2 and pi / Gamma(p/2) at cfg's precision, after rejecting a bad p."""
    check_exponent(p)
    with cfg.workprec():
        half = mp.mpf(p) / 2
        return half, mp.pi / mp.gamma(half)


def limit_density(p, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Density (|sin(pi p/2)| / Lambda) t^(p/2) e^-t of the limit map.

    With Lambda = |sin(pi p/2)| Gamma(p/2) / pi the sine factors cancel,
    so the scale is pi / Gamma(p/2).
    """
    return gamma_density(*_limit_exponent_and_scale(p, cfg))


def limit_constants(p, cfg: PrecisionConfig = DEFAULT_CONFIG, *, check=True) -> MapConstants:
    """Scale and far-field constant of the limit map.

    boundary_scale = |sin(pi p/2)| Gamma(p/2) / pi, fixed by requiring unit
    mass of tau(t)/t against 1/pi; expansion_constant c = log(p/2), as
    exp(c) = |sin(pi p/2)| Gamma(p/2 + 1) / (pi * scale) = Gamma(p/2 + 1) /
    Gamma(p/2).  check=True re-verifies the unit mass of the maps' density
    to 10^-max(10, digits/3), by quadrature to a thousandth of that of
    q scale u^(q p/2 - 1) e^(-u^q), t = u^q, q an order of p/2 or 1/(p/2).
    """
    half, scale = _limit_exponent_and_scale(p, cfg)
    with cfg.workprec():
        lam = abs(mp.sinpi(half)) / scale
        c = mp.log(half)
        if check:
            bound = mp.mpf(10) ** (-max(10, cfg.decimal_digits // 3))
            # q p/2 is an integer (a p/2 only near a small fraction has no order).
            order = _substitution_order(float(half))
            q = order if order and mp.isint(order * half) else 1 / half
            n = int(mp.nint(q * half)) - 1

            def integrand(u):
                return q * scale * u**n * mp.exp(-(u**q))

            cut = mp.mpf(cfg.tail_cut_for(half - 1)) ** (mp.mpf(1) / q)
            mass = integrate_finite(integrand, 0, cut, cfg, rel_tol=bound / 1000) / mp.pi
            if abs(mass - 1) > bound:
                raise QuadratureError(
                    f"unit-mass cross-check failed: mass = {mp.nstr(mass, 20)}"
                )
        return MapConstants(boundary_scale=lam, expansion_constant=c)


def limit_map(p, zeta, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ConformalSample:
    """The limit map zeta + log of the Cauchy transform of the limit density."""
    return _map_off_cut(*_limit_exponent_and_scale(p, cfg), 0, zeta, cfg)


def limit_map_boundary(p, xi, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ConformalSample:
    """Boundary value of the limit map at xi + i0, xi > 0."""
    return _map_boundary(*_limit_exponent_and_scale(p, cfg), 0, xi, cfg)


def sgn_limit_profile(k: int, lam, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Pointwise limit of the rescaled sgn approximant at lambda > 0:

        1 + ((-1)^(k+1)/pi) Int (mu/lambda)^(2k-1) e^-(lambda^2+mu^2)
                                 * 2 mu / (lambda^2 + mu^2) dmu.

    With t = mu^2 this is a gamma-density Cauchy transform at -lambda^2:

        1 + (-1)^(k+1) e^-lambda^2 lambda^(1-2k) gamma_cauchy_integral(k - 1/2, -lambda^2).
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidProblemError("k must be a positive integer")
    with cfg.workprec():
        lam = mp.mpf(lam)
        if lam <= 0:
            raise InvalidProblemError("lambda must be positive")
        lam2 = lam * lam
        cau = gamma_cauchy_integral(_tooth_exponent(k), -lam2, cfg)
        sign = 1 if k % 2 == 1 else -1
        return 1 + sign * mp.exp(-lam2) * lam ** (1 - 2 * k) * cau


def power_limit_profile(p, lam, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Pointwise limit of the rescaled |x|^p approximant at lambda >= 0:

        lambda^p + (sin(pi p/2)/pi) Int mu^p e^-(lambda^2+mu^2)
                                        * 2 mu / (lambda^2 + mu^2) dmu.

    With t = mu^2 this is a gamma-density Cauchy transform at -lambda^2:

        lambda^p + sin(pi p/2) e^-lambda^2 gamma_cauchy_integral(p/2, -lambda^2).

    At lambda = 0 the value collapses to sin(pi p/2) Gamma(p/2) / pi.
    """
    check_exponent(p)
    with cfg.workprec():
        p = mp.mpf(p)
        lam = mp.mpf(lam)
        if lam < 0:
            raise InvalidProblemError("lambda must be nonnegative")
        half = p / 2
        if lam == 0:
            return mp.sinpi(half) * mp.gamma(half) / mp.pi
        lam2 = lam * lam
        cau = gamma_cauchy_integral(half, -lam2, cfg)
        return lam**p + mp.sinpi(half) * mp.exp(-lam2) * cau
