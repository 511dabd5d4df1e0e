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

Every map here evaluates its Cauchy transform in closed form, through
specialfn's gamma_cauchy_integral (off the cut) and gamma_cauchy_boundary
(on the upper edge), so no map runs a quadrature.  tooth_density and
limit_density give the same densities as DensitySpecs for the quadrature
route, cauchy_integral and cauchy_boundary, which checks the closed form.
The far-offset integral, the unit-mass check of limit_constants and the
limit profiles are quadratures of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import InvalidProblemError, QuadratureError
from .precision import DEFAULT_CONFIG, PrecisionConfig, as_mpf, check_exponent
from .specialfn import (
    DensitySpec,
    gamma_cauchy_boundary,
    gamma_cauchy_integral,
    gamma_density,
    gamma_value,
    integrate_finite,
    integrate_halfline,
    log_gamma,
)


@dataclass(frozen=True)
class ConformalSample:
    """One evaluation of a conformal map, split into its three terms."""

    zeta: object
    value: object
    linear_part: object
    log_part: object
    cauchy_part: object


@dataclass(frozen=True)
class MapConstants:
    """Normalization constants of a slit map or of the limit map.

    zero_location: D > 0 with slit_map(-D) = 0.
    far_offset: constant term of the expansion on the far negative axis.
    boundary_scale: scale of the limit-map density (Lambda).
    expansion_constant: constant c in limit_map(zeta) ~ zeta - log(-zeta) + c.
    """

    k: int | None = None
    p: object = None
    zero_location: object = None
    far_offset: object = None
    boundary_scale: object = None
    expansion_constant: object = None


def _require_off_cut(zeta):
    if mp.im(zeta) == 0 and mp.re(zeta) >= 0:
        raise InvalidProblemError("zeta lies on the cut [0, inf)")


def _tooth_exponent(k: int):
    if not isinstance(k, int) or k < 0:
        raise InvalidProblemError("k must be a nonnegative integer")
    return mp.mpf(2 * k - 1) / 2


def tooth_density(k: int):
    """The density t^(k-1/2) e^-t behind the slit map of index k."""
    return gamma_density(_tooth_exponent(k))


def slit_map(k: int, zeta, cfg: PrecisionConfig | None = None) -> ConformalSample:
    """Evaluate the slit map of index k off the cut.

    For k = 0 the map is normalized so its value tends to 0 as zeta -> 0
    along the negative axis.
    """
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        zeta = mp.mpmathify(zeta)
        _require_off_cut(zeta)
        if mp.im(zeta) == 0:
            zeta = mp.re(zeta)
        cau = gamma_cauchy_integral(_tooth_exponent(k), zeta, cfg)
        half = mp.mpf(1) / 2
        log_part = -(k - half) * mp.log(-zeta)
        cauchy_part = mp.log(cau)
        value = zeta + log_part + cauchy_part
        return ConformalSample(zeta, value, zeta, log_part, cauchy_part)


def slit_map_boundary(k: int, xi, cfg: PrecisionConfig | None = None) -> ConformalSample:
    """Boundary value of the slit map at xi + i0, xi > 0.

    log(-zeta) continues to log(xi) - i*pi from above the cut.
    """
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        xi = as_mpf(xi)
        cau = gamma_cauchy_boundary(_tooth_exponent(k), xi, cfg)
        half = mp.mpf(1) / 2
        log_part = -(k - half) * (mp.log(xi) - mp.mpc(0, mp.pi))
        cauchy_part = mp.log(cau)
        value = xi + log_part + cauchy_part
        return ConformalSample(mp.mpc(xi, 0), value, mp.mpc(xi, 0), log_part, cauchy_part)


def phase_density(k: int, t, cfg: PrecisionConfig | None = None):
    """(1/pi) * Im of the slit map on the upper edge of the cut.

    Ranges over (k - 1/2, k + 1/2) and tends to k + 1/2 as t -> inf.
    """
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        return mp.im(slit_map_boundary(k, t, cfg).value) / mp.pi


def slit_map_zero(k: int, cfg: PrecisionConfig | None = None, *, bracket=(1e-6, 1e6)):
    """The point -D on the negative axis where the slit map vanishes.

    The map is strictly increasing along the negative axis, so the bracket
    [-hi, -lo] holds one sign change and mpmath's bracketed findroot is
    safe.
    """
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        lo, hi = (as_mpf(bracket[0]), as_mpf(bracket[1]))

        def value(d):
            return slit_map(k, -d, cfg).value

        f_lo, f_hi = value(lo), value(hi)
        if not (f_lo > 0 > f_hi):
            raise InvalidProblemError(
                f"no sign change on the bracket: f(-{lo})={mp.nstr(f_lo, 6)}, "
                f"f(-{hi})={mp.nstr(f_hi, 6)}"
            )
        return mp.findroot(value, (lo, hi), solver="anderson", verify=False)


def far_offset_closed(k: int, cfg: PrecisionConfig | None = None):
    """Closed form of the far-field offset: log Gamma(k + 1/2) - log pi."""
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        return log_gamma(mp.mpf(2 * k + 1) / 2, cfg).log_abs - mp.log(mp.pi)


def far_offset_far_field(k: int, cfg: PrecisionConfig | None = None, *, radii=(1e4, 1e5, 1e6)):
    """Far-field route: evaluate the map at zeta = -R and extrapolate.

    The correction decays like 1/R, so a three-point Richardson fit in
    R0/R removes the first two orders.
    """
    cfg = cfg or DEFAULT_CONFIG
    if len(radii) != 3:
        raise InvalidProblemError("need exactly three radii")
    with cfg.workprec():
        half = mp.mpf(1) / 2
        rs = [as_mpf(r) for r in radii]
        ys = [slit_map(k, -r, cfg).value + r + (k + half) * mp.log(r) for r in rs]
        # Fit y = Y + c1*u + c2*u^2 with u = rs[0]/r and read off Y.
        us = [rs[0] / r for r in rs]
        rows = [[mp.mpf(1), u, u * u] for u in us]
        sol = mp.lu_solve(mp.matrix(rows), mp.matrix(ys))
        return sol[0]


# Precision of the integral route's inner work: its accuracy is set by the
# quadrature's rel_tol of 1e-10, far above 96-bit rounding.
_INTEGRAL_ROUTE_BITS = 96


def far_offset_integral(k: int, cfg: PrecisionConfig | None = None):
    """Integral route through the zero of the map:

        D + (k+1/2) log D - Int_0^inf (rho_k(t) - (k+1/2)) / (t + D) dt,

    with rho_k the phase density.  D and the integral are computed at
    _INTEGRAL_ROUTE_BITS, to the quadrature's relative tolerance of 1e-10.
    """
    cfg = cfg or DEFAULT_CONFIG
    inner = PrecisionConfig(mantissa_bits=_INTEGRAL_ROUTE_BITS)
    with cfg.workprec():
        half = mp.mpf(1) / 2
        d = slit_map_zero(k, inner)
        top = k + half

        # The phase density rises from k-1/2 with a sqrt(t) term, so
        # integrate in u = sqrt(t), where the integrand is analytic.
        def integrand(u):
            t = u * u
            return (phase_density(k, t, inner) - top) / (t + d) * 2 * u

        # The integrand decays like t^(k+3/2) e^-t; 50 + 10k suppresses the
        # tail far below the route's accuracy.
        cut = 50.0 + 10.0 * k
        with inner.workprec():
            corr = integrate_finite(
                integrand, 0, mp.sqrt(cut), inner, rel_tol=mp.mpf(1e-10)
            )
        return d + top * mp.log(d) - corr


def _limit_exponent_and_scale(p, cfg: PrecisionConfig):
    """p/2 and pi / Gamma(p/2), after rejecting a bad p; call inside workprec."""
    check_exponent(p)
    half = as_mpf(p) / 2
    return half, mp.pi / gamma_value(half, cfg)


def limit_density(p, cfg: PrecisionConfig | None = None):
    """Density (|sin(pi p/2)| / Lambda) t^(p/2) e^-t of the limit map.

    With Lambda = |sin(pi p/2)| Gamma(p/2) / pi the sine factors cancel,
    so the scale is pi / Gamma(p/2).
    """
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        return gamma_density(*_limit_exponent_and_scale(p, cfg))


def limit_constants(p, cfg: PrecisionConfig | None = None, *, check=True) -> MapConstants:
    """Scale and far-field constant of the limit map.

    boundary_scale = |sin(pi p/2)| Gamma(p/2) / pi, fixed by requiring unit
    mass of tau(t)/t against 1/pi; expansion_constant from
    exp(c) = |sin(pi p/2)| Gamma(p/2 + 1) / (pi * scale).  With check=True
    the unit-mass condition is re-verified by quadrature.
    """
    cfg = cfg or DEFAULT_CONFIG
    check_exponent(p)
    with cfg.workprec():
        p = as_mpf(p)
        sin_abs = abs(mp.sinpi(p / 2))
        lam = sin_abs * mp.exp(log_gamma(p / 2, cfg).log_abs) / mp.pi
        c = (
            mp.log(sin_abs)
            + log_gamma(p / 2 + 1, cfg).log_abs
            - mp.log(mp.pi)
            - mp.log(lam)
        )
        if check:
            dens = gamma_density(p / 2, scale=sin_abs / lam)
            mass = integrate_halfline(
                DensitySpec(float(p / 2) - 1, lambda t: dens(t) / t), cfg
            ) / mp.pi
            if abs(mass - 1) > mp.mpf(10) ** (-max(10, cfg.decimal_digits // 3)):
                raise QuadratureError(
                    f"unit-mass cross-check failed: mass = {mp.nstr(mass, 20)}"
                )
        return MapConstants(p=p, boundary_scale=lam, expansion_constant=c)


def limit_map(p, zeta, cfg: PrecisionConfig | None = None) -> ConformalSample:
    """The limit map zeta + log of the Cauchy transform of the limit density."""
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        zeta = mp.mpmathify(zeta)
        _require_off_cut(zeta)
        if mp.im(zeta) == 0:
            zeta = mp.re(zeta)
        half, scale = _limit_exponent_and_scale(p, cfg)
        cau = scale * gamma_cauchy_integral(half, zeta, cfg)
        cauchy_part = mp.log(cau)
        value = zeta + cauchy_part
        return ConformalSample(zeta, value, zeta, mp.mpf(0), cauchy_part)


def limit_map_boundary(p, xi, cfg: PrecisionConfig | None = None) -> ConformalSample:
    """Boundary value of the limit map at xi + i0, xi > 0."""
    cfg = cfg or DEFAULT_CONFIG
    with cfg.workprec():
        xi = as_mpf(xi)
        half, scale = _limit_exponent_and_scale(p, cfg)
        cau = scale * gamma_cauchy_boundary(half, xi, cfg)
        cauchy_part = mp.log(cau)
        value = xi + cauchy_part
        return ConformalSample(mp.mpc(xi, 0), value, mp.mpc(xi, 0), mp.mpf(0), cauchy_part)


def sgn_limit_profile(k: int, lam, cfg: PrecisionConfig | None = None):
    """Pointwise limit of the rescaled sgn approximant at lambda > 0:

        1 + ((-1)^(k+1)/pi) Int (mu/lambda)^(2k-1) e^-(lambda^2+mu^2)
                                 * 2 mu / (lambda^2 + mu^2) dmu.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not isinstance(k, int) or k < 1:
        raise InvalidProblemError("k must be a positive integer")
    with cfg.workprec():
        lam = as_mpf(lam)
        if lam <= 0:
            raise InvalidProblemError("lambda must be positive")
        lam2 = lam * lam
        expo = 2 * k - 1

        def f(mu):
            mu2 = mu * mu
            return (mu / lam) ** expo * mp.exp(-(lam2 + mu2)) * 2 * mu / (lam2 + mu2)

        cut = mp.sqrt(cfg.tail_cut_for(expo)) + 2
        integral = integrate_finite(f, 0, cut, cfg)
        sign = 1 if (k + 1) % 2 == 0 else -1
        return 1 + sign * integral / mp.pi


def power_limit_profile(p, lam, cfg: PrecisionConfig | None = None):
    """Pointwise limit of the rescaled |x|^p approximant at lambda >= 0:

        lambda^p + (sin(pi p/2)/pi) Int mu^p e^-(lambda^2+mu^2)
                                        * 2 mu / (lambda^2 + mu^2) dmu.

    At lambda = 0 the value collapses to sin(pi p/2) Gamma(p/2) / pi.
    """
    cfg = cfg or DEFAULT_CONFIG
    check_exponent(p)
    with cfg.workprec():
        p = as_mpf(p)
        lam = as_mpf(lam)
        if lam < 0:
            raise InvalidProblemError("lambda must be nonnegative")
        lam2 = lam * lam
        cut = mp.sqrt(cfg.tail_cut_for(p)) + 2
        if lam == 0:
            # The kernel reduces to 2 mu^(p-1) e^-mu^2.
            def f0(mu):
                return 2 * mu ** (p - 1) * mp.exp(-mu * mu)

            integral = integrate_finite(f0, 0, cut, cfg, alpha=p - 1)
        else:

            def f(mu):
                mu2 = mu * mu
                return mu**p * mp.exp(-(lam2 + mu2)) * 2 * mu / (lam2 + mu2)

            integral = integrate_finite(f, 0, cut, cfg, alpha=p + 1)
        return lam**p + mp.sinpi(p / 2) * integral / mp.pi
