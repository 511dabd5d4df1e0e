"""Adaptive quadrature: exact integrals, singular endpoints, error reporting."""

import pytest
from mpmath import mp

from bernlab.errors import QuadratureError
from bernlab.specialfn import (
    DensitySpec,
    gamma_density,
    gauss_legendre_nodes,
    integrate_finite,
    integrate_finite_err,
    integrate_halfline,
)

GAMMA_3_2 = "0.886226925452758013649083741670572591398774728061193564106904"


def test_gauss_legendre_exactness(cfg128):
    # n-point rule integrates degree 2n-1 exactly; weights sum to 2.
    with cfg128.workprec():
        nodes, weights = gauss_legendre_nodes(8)
        assert abs(sum(weights) - 2) < mp.mpf("1e-35")
        total = sum(w * x**14 for x, w in zip(nodes, weights))
        assert abs(total - mp.mpf(2) / 15) < mp.mpf("1e-35")


@pytest.mark.parametrize("prec, n", [(64, 1), (64, 7), (128, 21), (288, 42), (1088, 60)])
def test_gauss_legendre_nodes_are_correctly_rounded(prec, n):
    # Every node and weight within 2 ulps of a build at 2*prec + 64 bits;
    # odd rules have the middle node 0 exactly, and the weights sum to 2.
    with mp.workprec(2 * prec + 64):
        ref_nodes, ref_weights = gauss_legendre_nodes(n)
    with mp.workprec(prec):
        nodes, weights = gauss_legendre_nodes(n)
    if n % 2:
        assert nodes[n // 2] == 0
    with mp.workprec(2 * prec + 64):
        for got, ref in zip(nodes + weights, ref_nodes + ref_weights):
            assert got == ref == 0 or abs(got - ref) <= 2 * mp.mpf(2) ** (mp.mag(ref) - prec)
        assert abs(mp.fsum(weights) - 2) <= mp.mpf(2) ** (3 - prec)


def test_unit_interval_constant(cfg256):
    with cfg256.workprec():
        got = integrate_finite(lambda t: mp.mpf(1), 0, 1, cfg256)
        assert abs(got - 1) < mp.mpf("1e-70")


def test_inverse_sqrt_singularity(cfg256):
    with cfg256.workprec():
        got = integrate_finite(lambda t: 1 / mp.sqrt(t), 0, 1, cfg256, alpha="-0.5")
        assert abs(got - 2) < mp.mpf("1e-70")


def test_quarter_power_substitution(cfg256):
    # alpha = 1/4 exercises the t = u^4 analytic-substitution path.
    with cfg256.workprec():
        got = integrate_finite(
            lambda t: t ** mp.mpf("0.25"), 0, 1, cfg256, alpha="0.25"
        )
        assert abs(got - mp.mpf(4) / 5) < mp.mpf("1e-70")


def test_irrational_power_fallback(cfg256):
    # No small m makes m*alpha integral, so the fallback map is used.
    with cfg256.workprec():
        alpha = 1 / mp.sqrt(2)
        got = integrate_finite(lambda t: t**alpha, 0, 1, cfg256, alpha=alpha)
        assert abs(got - 1 / (1 + alpha)) < mp.mpf("1e-70")


@pytest.mark.parametrize(
    "alpha",
    [
        lambda: mp.mpf("0.65"),
        lambda: 1 / mp.sqrt(2),
        lambda: mp.mpf("5.55"),
        lambda: mp.mpf("-0.95"),
    ],
    ids=["0.65", "1/sqrt2", "5.55", "-0.95"],
)
def test_fallback_substitution_keeps_the_density_smooth(cfg256, alpha):
    # No order m <= 12 makes m*alpha integral.  The fallback map must leave
    # e^-t smooth at 0 too, or the bisection runs tens of thousands of
    # evaluations deep (or out of depth at alpha = 5.55).
    calls = 0
    with cfg256.workprec():
        alpha = alpha()
        density = gamma_density(alpha)

        def counted(t):
            nonlocal calls
            calls += 1
            return density(t)

        got = integrate_halfline(DensitySpec(alpha, counted), cfg256)
        ref = mp.gamma(1 + alpha)
        assert abs(got - ref) / ref <= cfg256.rel_tol
    assert calls <= 2000


def test_halfline_gamma_three_halves(cfg256):
    with cfg256.workprec():
        got = integrate_halfline(gamma_density("0.5"), cfg256)
        ref = mp.mpf(GAMMA_3_2)
        assert abs(got - ref) / ref < mp.mpf("1e-55")


def test_halfline_with_weight(cfg256):
    # int_0^inf sqrt(t) e^-t * t dt = Gamma(5/2) = (3/2) Gamma(3/2).
    with cfg256.workprec():
        dens = gamma_density("0.5")
        got = integrate_halfline(DensitySpec(1.5, lambda t: dens(t) * t), cfg256)
        ref = mp.mpf(GAMMA_3_2) * mp.mpf(3) / 2
        assert abs(got - ref) / ref < mp.mpf("1e-55")


def test_error_estimate_bounds_true_error(cfg256):
    with cfg256.workprec():
        exact = mp.sin(mp.mpf(4)) / 2  # int_0^2 cos(2t) dt
        got, err = integrate_finite_err(lambda t: mp.cos(2 * t), 0, 2, cfg256)
        assert abs(got - exact) < max(err * 10, mp.mpf("1e-75"))


def test_nonconvergent_integrand_raises(cfg256):
    # A jump at an irrational point defeats bisection; a small depth cap
    # must surface QuadratureError instead of silently returning.  At the
    # default cap of mantissa_bits + 64 the same jump integrates to the right
    # value with a zero error estimate and never raises, so max_depth is the
    # only way to reach QuadratureError here.
    with cfg256.workprec():
        step = lambda t: mp.mpf(1) if t > 1 / mp.pi else mp.mpf(0)
        with pytest.raises(QuadratureError):
            integrate_finite(step, 0, 1, cfg256, max_depth=8)


def test_reversed_interval_rejected(cfg256):
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, 1, 0, cfg256)


def test_density_validation():
    with pytest.raises(ValueError):
        DensitySpec(-1.5, lambda t: t)
