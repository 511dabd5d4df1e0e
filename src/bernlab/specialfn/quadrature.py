"""Adaptive Gauss-Legendre panel quadrature at arbitrary precision.

Panels are bisected until two successive refinements agree; endpoint power
singularities t^alpha at the origin are removed by substitution before any
panel is laid down.  When m*alpha is an integer for a small m the map
t = u^m makes the integrand analytic at 0 (every exponent used in this
package is a half or quarter integer, so this is the common path); other
exponents fall back to t = u^beta with beta = 12/(1+alpha), which turns
the power factor into beta*u^11, analytic, and a smooth factor h(t) into
h(u^beta), smooth to order floor(beta) at 0.  Integrals over (0, inf) of
exponentially decaying densities are truncated at a tail point chosen
from the precision budget.

Every map and profile in the package has a closed form, so run-time
quadrature now serves only checks: the far-offset integral route
(far_offset_integral), the unit-mass check of limit_constants(check=True),
and the boundary residuals of ``bernlab conformal --task boundary``, through
the quadrature Cauchy transforms.  The tests use it as the oracle for the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, round_nearest, to_fixed

from ..errors import QuadratureError
from ..precision import DEFAULT_CONFIG, PrecisionConfig

_node_cache: dict[tuple[int, int], tuple[list, list]] = {}

# Guard bits of the fixed-point Newton in gauss_legendre_nodes.
_GL_GUARD_BITS = 32


def _substitution_order(alpha_f: float) -> int | None:
    """Smallest m <= 12 with m*alpha integral, or None if no such m works."""
    for m in range(1, 13):
        if abs(m * alpha_f - round(m * alpha_f)) < 1e-9 * m:
            return m
    return None


def _legendre_pair(x: float, n: int):
    """P_n(x) and P_(n-1)(x) in double precision, n >= 1."""
    p_prev, p_cur = 1.0, x
    for j in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
    return p_cur, p_prev


def _fixed_legendre_pair(x: int, n: int, wbits: int):
    """P_n(x) and P_(n-1)(x) for x, and the results, Python ints scaled by 2^wbits."""
    p_prev, p_cur = 1 << wbits, x
    for j in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * j - 1) * ((x * p_cur) >> wbits) - (j - 1) * p_prev) // j
    return p_cur, p_prev


def gauss_legendre_nodes(n: int):
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1].

    Each positive node starts from a Tricomi-style guess, is refined by
    Newton on the Legendre recurrence in double precision, and then by
    Newton in fixed point: Python ints scaled by 2^W, W = mp.prec plus
    _GL_GUARD_BITS = 32 guard bits, which absorb the recurrence's
    per-step rounding (a few units of 2^-W over n steps).  The weight
    2 (1 - x^2) / (n (x P_n - P_(n-1)))^2 is formed at W bits too, and each
    node and weight is rounded once at mp.prec.  Odd n has the middle node 0
    exactly.  Cached per (precision, n).  Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013), for the seed-then-Newton scheme.
    """
    key = (mp.prec, n)
    cached = _node_cache.get(key)
    if cached is not None:
        return cached
    prec = mp.prec
    wbits = prec + _GL_GUARD_BITS
    one = 1 << wbits
    nodes = [mp.mpf(0)] * n
    weights = [mp.mpf(0)] * n
    for i in range((n + 1) // 2):
        x = 0
        if 2 * i + 1 < n:
            xf = math.cos(math.pi * (i + 0.75) / (n + 0.5))
            for _ in range(8):
                p_cur, p_prev = _legendre_pair(xf, n)
                dx = p_cur * (xf * xf - 1) / (n * (xf * p_cur - p_prev))
                xf -= dx
                if abs(dx) < 1e-15:
                    break
            x = to_fixed(from_float(xf), wbits)
            for _ in range(wbits.bit_length() + 4):
                p_cur, p_prev = _fixed_legendre_pair(x, n, wbits)
                dx = p_cur * (((x * x) >> wbits) - one) // (n * (((x * p_cur) >> wbits) - p_prev))
                x -= dx
                # A step under 2^(16 - W) leaves an error of order its
                # square: far below the final rounding.
                if abs(dx) < 1 << (_GL_GUARD_BITS // 2):
                    break
        p_cur, p_prev = _fixed_legendre_pair(x, n, wbits)
        d = ((x * p_cur) >> wbits) - p_prev
        w = ((one - ((x * x) >> wbits)) << (2 * wbits + 1)) // (n * n * d * d)
        node = mp.make_mpf(from_man_exp(x, -wbits, prec, round_nearest))
        weight = mp.make_mpf(from_man_exp(w, -wbits, prec, round_nearest))
        nodes[i], weights[i] = -node, weight
        nodes[n - 1 - i], weights[n - 1 - i] = node, weight
    _node_cache[key] = (nodes, weights)
    return nodes, weights


def _panel(f, a, b, nodes, weights):
    half = (b - a) / 2
    mid = (a + b) / 2
    total = 0
    for x, w in zip(nodes, weights):
        total += w * f(mid + half * x)
    return total * half


def integrate_finite_err(
    f: Callable,
    lo,
    hi,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
    *,
    alpha=None,
    rel_tol=None,
    max_depth: int | None = None,
):
    """Integrate f on [lo, hi]; returns (value, error_estimate).

    alpha declares a power singularity f ~ t^alpha at lo (supported for
    lo == 0 only); it is removed by substitution before panels are laid
    down.  Raises QuadratureError when bisection cannot reach the target.
    """
    with cfg.workprec():
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        if hi <= lo:
            raise ValueError("empty or reversed integration interval")
        if rel_tol is None:
            rel_tol = cfg.rel_tol
        else:
            rel_tol = mp.mpf(rel_tol)
        if max_depth is None:
            max_depth = cfg.mantissa_bits + 64
        g = f
        if alpha is not None and mp.mpf(alpha) != 0:
            alpha = mp.mpf(alpha)
            if alpha <= -1:
                raise ValueError("endpoint exponent must exceed -1")
            if lo != 0:
                raise ValueError("power-singularity removal assumes lo == 0")
            order = _substitution_order(float(alpha))
            if order == 1:
                pass  # alpha is a positive integer: nothing singular to remove
            elif order is not None:
                # t = u^m turns t^alpha dt into u^(m(1+alpha)-1) du with an
                # integer exponent >= 0, so the integrand is analytic at 0.
                hi = hi ** (mp.mpf(1) / order)

                def g(u, _f=f, _m=order):
                    return _f(u**_m) * _m * u ** (_m - 1)

            else:
                # t = u^beta turns t^alpha dt into beta u^11 du.
                beta = 12 / (1 + alpha)
                hi = hi ** (1 / beta)

                def g(u, _f=f, _beta=beta):
                    t = u**_beta
                    return _f(t) * _beta * t / u

        nodes, weights = gauss_legendre_nodes(cfg.quad_order)
        width = hi - lo
        # The coarse pass over the whole interval sets the absolute scale.
        coarse = _panel(g, lo, hi, nodes, weights)
        stack = [(lo, hi, coarse, 0)]
        scale = max(abs(coarse), mp.mpf(2) ** (-cfg.mantissa_bits))
        total = mp.mpf(0)
        err = mp.mpf(0)
        while stack:
            a, b, coarse, depth = stack.pop()
            m = (a + b) / 2
            left = _panel(g, a, m, nodes, weights)
            right = _panel(g, m, b, nodes, weights)
            fine = left + right
            delta = abs(fine - coarse)
            budget = rel_tol * scale * ((b - a) / width)
            if delta <= budget or depth >= max_depth:
                if depth >= max_depth and delta > budget:
                    raise QuadratureError(
                        f"no convergence after {max_depth} bisections on "
                        f"[{mp.nstr(a, 8)}, {mp.nstr(b, 8)}] (delta {mp.nstr(delta, 4)})"
                    )
                total += fine
                err += delta
                scale = max(scale, abs(total))
            else:
                stack.append((a, m, left, depth + 1))
                stack.append((m, b, right, depth + 1))
        return total, err


def integrate_finite(f, lo, hi, cfg=DEFAULT_CONFIG, *, alpha=None, rel_tol=None, max_depth=None):
    """Adaptive panel integral of f over [lo, hi]; see integrate_finite_err."""
    value, _ = integrate_finite_err(
        f, lo, hi, cfg, alpha=alpha, rel_tol=rel_tol, max_depth=max_depth
    )
    return value


@dataclass(frozen=True)
class DensitySpec:
    """A density on (0, inf) that decays like exp(-t).

    values(t) behaves like t^exponent_alpha near 0, the exponent kept exact
    for the substitution at 0; only the order and tail cut use its float.
    """

    exponent_alpha: object
    values: Callable = field(repr=False)

    def __post_init__(self):
        if float(self.exponent_alpha) <= -1:
            raise ValueError("exponent_alpha must exceed -1 for integrability")

    def __call__(self, t):
        return self.values(t)


def gamma_density(alpha, scale=1) -> DensitySpec:
    """The density scale * t^alpha * exp(-t)."""

    half_steps = 2 * float(alpha)
    if abs(half_steps - round(half_steps)) < 1e-12:
        # Half-integer exponents dominate this package; sqrt plus an
        # integer power is several times cheaper than a general pow.
        def values(t, _s=scale, _h=int(round(half_steps))):
            return mp.mpf(_s) * mp.sqrt(t) ** _h * mp.exp(-t)

    else:

        def values(t, _a=alpha, _s=scale):
            return mp.mpf(_s) * t ** mp.mpf(_a) * mp.exp(-t)

    return DensitySpec(exponent_alpha=alpha, values=values)


def integrate_halfline(density, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Integral of density(t) over (0, inf).

    The density must decay like exp(-t); the integral is truncated at
    cfg.tail_cut_for(alpha), beyond which the discarded mass is below the
    working precision.
    """
    if not isinstance(density, DensitySpec):
        raise TypeError("integrate_halfline expects a DensitySpec")
    with cfg.workprec():
        cut = cfg.tail_cut_for(density.exponent_alpha)
        return integrate_finite(density, 0, cut, cfg, alpha=density.exponent_alpha)
