"""Cauchy transforms of densities supported on (0, inf).

Two routes compute the same transforms.  The quadrature route takes any
DensitySpec: cauchy_integral evaluates (1/pi) * integral of tau(t)/(t - zeta)
dt off the cut, and cauchy_boundary evaluates the boundary value from above
on the cut as an explicit principal value plus i*tau(xi), rather than by
approaching the cut with a small imaginary offset.

The closed-form route covers the gamma densities t^alpha e^-t behind every
conformal map in this package, through the incomplete-gamma form of DLMF 8.6,

    (1/pi) Int_0^inf t^alpha e^-t / (t - zeta) dt
        = Gamma(alpha+1) w^alpha e^w Gamma(-alpha, w) / pi,   w = -zeta,

on mpmath's principal branches, whose cuts lie on w <= 0, the support.
On the cut, DLMF 8.5.1, gamma(a, z) = a^-1 z^a e^-z M(1, 1+a, z), turns the
real part at xi + i0 into one real Kummer function,

    PV/pi = Gamma(alpha) M(1, 1-alpha, -xi) / pi
            - cot(pi alpha) xi^alpha e^-xi,

so one Kummer evaluator per exponent, _kummer_boundary, serves
gamma_cauchy_boundary and the phase density.  gamma_cauchy_integral and
gamma_cauchy_boundary mirror the quadrature pair; the maps use them, and the
quadrature pair is their oracle.
"""

from __future__ import annotations

from mpmath import mp

from ..errors import CutViolationError
from ..precision import DEFAULT_CONFIG, PrecisionConfig
from .quadrature import DensitySpec, integrate_finite, integrate_halfline

# Extra guard bits for the regularized principal-value window, where the
# difference quotient (tau(t) - tau(xi))/(t - xi) cancels leading digits.
_PV_EXTRA_BITS = 64

# Half-width of that window, shrunk to xi/2 near the origin.
_PV_EPSILON = 0.25


def _off_support(zeta):
    """zeta as an mpf when real, else mpc; raises on the support [0, inf)."""
    zeta = mp.mpmathify(zeta)
    if mp.im(zeta) == 0:
        zeta = mp.re(zeta)
        if zeta >= 0:
            raise CutViolationError(
                "zeta lies on the support [0, inf); use the boundary value"
            )
    return zeta


def _on_support(xi):
    xi = mp.mpf(xi)
    if xi <= 0:
        raise CutViolationError("boundary values are defined for xi > 0")
    return xi


def cauchy_integral(density: DensitySpec, zeta, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(1/pi) * integral over (0, inf) of density(t) / (t - zeta) dt.

    zeta must lie off the support [0, inf); use cauchy_boundary for points
    on the cut.  Real zeta < 0 stays in real arithmetic.
    """
    with cfg.workprec():
        zeta = _off_support(zeta)

        def f(t, _d=density, _z=zeta):
            return _d(t) / (t - _z)

        return integrate_halfline(
            DensitySpec(density.exponent_alpha, f), cfg
        ) / mp.pi


def cauchy_boundary(density: DensitySpec, xi, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Boundary value of the Cauchy transform at xi + i0, xi > 0.

    Returns PV/pi + i*density(xi), where PV is the principal-value integral
    of density(t)/(t - xi).  The window [xi-eps, xi+eps] is integrated in
    the regularized form (tau(t) - tau(xi))/(t - xi) plus the analytic log
    term tau(xi)*log((r-xi)/(xi-l)), which vanishes for a symmetric window.
    """
    with cfg.workprec(extra=_PV_EXTRA_BITS):
        xi = _on_support(xi)
        eps = min(mp.mpf(_PV_EPSILON), xi / 2)
        left, right = xi - eps, xi + eps
        tau_xi = density(xi)
        # Keep the truncation point clear of the singularity window; for xi
        # deep in the tail the density there is negligible but the pieces
        # must still be laid out in order.
        cut = max(cfg.tail_cut_for(density.exponent_alpha), right + 50)

        def outer(t, _d=density, _x=xi):
            return _d(t) / (t - _x)

        def window(t, _d=density, _x=xi, _v=tau_xi):
            return (_d(t) - _v) / (t - _x)

        pv = integrate_finite(outer, 0, left, cfg, alpha=density.exponent_alpha)
        # Split the window at xi so no quadrature node can land exactly on
        # the removable singularity (odd panel orders place a node at the
        # panel midpoint).
        pv += integrate_finite(window, left, xi, cfg)
        pv += integrate_finite(window, xi, right, cfg)
        pv += tau_xi * mp.log((right - xi) / (xi - left))
        pv += integrate_finite(outer, right, cut, cfg)
        return mp.mpc(pv / mp.pi, tau_xi)


def gamma_cauchy_integral(alpha, zeta, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(1/pi) * integral over (0, inf) of t^alpha e^-t / (t - zeta) dt, alpha > -1.

    The closed-form counterpart of cauchy_integral for gamma_density(alpha);
    zeta must lie off the support [0, inf).  Real zeta < 0 gives a real value.
    """
    with cfg.workprec():
        alpha, w = mp.mpf(alpha), -_off_support(zeta)
        return mp.gamma(alpha + 1) * w**alpha * mp.exp(w) * mp.gammainc(-alpha, w) / mp.pi


def _kummer_boundary(alpha, cfg: PrecisionConfig):
    """xi -> (PV/pi, xi^alpha e^-xi) at xi + i0 for t^alpha e^-t, alpha > -1
    not an integer, with Gamma(alpha) and cot(pi alpha) computed once.  The
    cot term is exactly 0 at half-integer alpha (every slit map, the limit
    map for odd p).  Near an integer alpha both terms have a pole that
    cancels, and the evaluator adds as many bits as it costs."""
    with cfg.workprec():
        alpha = mp.mpf(alpha)
        offset = alpha - mp.nint(alpha)
        if not offset:
            raise ValueError("the Kummer form needs a non-integer exponent alpha")
        mp.prec = prec = mp.prec + max(0, -mp.mag(offset))
        gamma, cot = mp.gamma(alpha), mp.cospi(alpha) / mp.sinpi(alpha)

    def evaluate(xi):
        with mp.workprec(prec):
            xi = _on_support(xi)
            density = xi**alpha * mp.exp(-xi)
            return gamma * mp.hyp1f1(1, 1 - alpha, -xi) / mp.pi - cot * density, density

    return evaluate


def gamma_cauchy_boundary(alpha, xi, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Boundary value at xi + i0, xi > 0, of gamma_cauchy_integral, alpha > -1
    and not an integer: PV/pi in the Kummer form plus i xi^alpha e^-xi, as in
    cauchy_boundary.  No map has an integer exponent (check_exponent)."""
    with cfg.workprec():
        return mp.mpc(*_kummer_boundary(alpha, cfg)(mp.mpf(xi)))
