"""Cauchy transforms off and on the positive half-line."""

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from bernlab.errors import CutViolationError
from bernlab.precision import GUARD_BITS, PrecisionConfig
from bernlab.specialfn import (
    DensitySpec,
    cauchy_boundary,
    cauchy_integral,
    gamma_cauchy_boundary,
    gamma_cauchy_integral,
    gamma_density,
)

# (1/pi) int_0^inf e^-t/(t+1) dt = e*E1(1)/pi, frozen from a 400-bit
# exponential-integral evaluation.
E_E1_PI = "0.18982326102709968315054042615512269459285227480015"
# PV int_0^inf e^-t/(t-2) dt, frozen from a 400-bit odd-window oracle
# (regularized core plus analytic log term plus raw tail).
PV_EXP_XI2 = "-0.67048270979007328104322380808390334751748775610597"


def _exp_density():
    return DensitySpec(0.0, lambda t: mp.exp(-t))


def test_exponential_density_at_minus_one(cfg256):
    with cfg256.workprec():
        got = cauchy_integral(_exp_density(), -1, cfg256)
        ref = mp.mpf(E_E1_PI)
        assert abs(got - ref) / ref < mp.mpf("1e-45")


def test_conjugate_symmetry(cfg256):
    with cfg256.workprec():
        dens = _exp_density()
        up = cauchy_integral(dens, mp.mpc(1, 1), cfg256)
        down = cauchy_integral(dens, mp.mpc(1, -1), cfg256)
        assert abs(up - mp.conj(down)) < mp.mpf("1e-60")


def test_upper_half_plane_maps_to_upper_half_plane(cfg256):
    # Positive density: the transform is Herglotz, Im > 0 above the axis.
    with cfg256.workprec():
        dens = _exp_density()
        for zeta in (mp.mpc(1, 1), mp.mpc(-2, 3), mp.mpc(5, "0.1")):
            assert mp.im(cauchy_integral(dens, zeta, cfg256)) > 0


def test_far_field_decay(cfg256):
    # Far from the support the transform is mass/(pi * distance) + O(R^-2).
    with cfg256.workprec():
        dens = gamma_density("0.5")
        radius = mp.mpf(10) ** 6
        got = cauchy_integral(dens, -radius, cfg256)
        lead = mp.gamma(mp.mpf(3) / 2) / (mp.pi * radius)
        assert abs(got - lead) / lead < mp.mpf("1e-3")


def test_boundary_imaginary_part_is_density(cfg256):
    with cfg256.workprec():
        got = cauchy_boundary(_exp_density(), 1, cfg256)
        assert abs(mp.im(got) - mp.exp(-1)) < mp.mpf("1e-70")


def test_boundary_principal_value_matches_oracle(cfg256):
    with cfg256.workprec():
        got = cauchy_boundary(_exp_density(), 2, cfg256)
        ref = mp.mpf(PV_EXP_XI2)
        assert abs(mp.re(got) * mp.pi - ref) < mp.mpf("1e-45")


@pytest.mark.parametrize("xi", ["0.1", "2", "10"])
@pytest.mark.parametrize("alpha", ["0.5", "1.5"])
def test_boundary_matches_incomplete_gamma_form(alpha, xi):
    # The conformal layer's densities t^alpha e^-t have the DLMF 8.6 upper-edge
    # transform conj(Gamma(alpha+1) w^alpha e^w Gamma(-alpha, w) / pi) at
    # w = -xi; the real part is the principal value.
    cfg = PrecisionConfig(mantissa_bits=128)
    with cfg.workprec():
        a, w = mp.mpf(alpha), -mp.mpf(xi)
        got = cauchy_boundary(gamma_density(a), -w, cfg)
        ref = mp.conj(mp.gamma(a + 1) * w**a * mp.exp(w) * mp.gammainc(-a, w) / mp.pi)
        assert abs(mp.re(got) - mp.re(ref)) < mp.mpf("1e-25") * abs(mp.re(ref))
        assert abs(got - ref) < mp.mpf("1e-25") * abs(ref)


def test_boundary_handles_odd_panel_orders():
    # 128-bit budgets use an odd Gauss order whose middle node would sit on
    # the singularity if the principal-value window were not split there.
    cfg = PrecisionConfig(mantissa_bits=128)
    with cfg.workprec():
        got = cauchy_boundary(_exp_density(), 2, cfg)
        ref = mp.mpf(PV_EXP_XI2)
        assert mp.isfinite(mp.re(got))
        assert abs(mp.re(got) * mp.pi - ref) < mp.mpf("1e-25")


def test_support_points_rejected(cfg256):
    dens = _exp_density()
    with pytest.raises(CutViolationError):
        cauchy_integral(dens, 1, cfg256)
    with pytest.raises(CutViolationError):
        cauchy_integral(dens, 0, cfg256)
    with pytest.raises(CutViolationError):
        cauchy_boundary(dens, -1, cfg256)


def test_closed_form_rejects_support_points(cfg256):
    with pytest.raises(CutViolationError):
        gamma_cauchy_integral("0.5", 1, cfg256)
    with pytest.raises(CutViolationError):
        gamma_cauchy_integral("0.5", 0, cfg256)
    with pytest.raises(CutViolationError):
        gamma_cauchy_boundary("0.5", -1, cfg256)


def test_closed_boundary_rejects_integer_exponent(cfg256):
    # Both Kummer terms have a pole at integer alpha.
    with pytest.raises(ValueError):
        gamma_cauchy_boundary(1, 2, cfg256)


def _incomplete_gamma_route(alpha, xi, bits):
    """Gamma(alpha+1) w^alpha e^w Gamma(-alpha, w) at w = -xi (DLMF 8.6) at
    2*bits + 100 bits."""
    with mp.workprec(2 * bits + 100):
        w = -xi
        return mp.gamma(alpha + 1) * w**alpha * mp.exp(w) * mp.gammainc(-alpha, w)


def _tiny_alpha_route(alpha, xi, bits):
    """The same product for 0 < alpha < 2^-64 and xi <= 1, by the series of
    the lower incomplete gamma:

        e^w [(Gamma(1+alpha) - pi alpha w^alpha / sin(pi alpha)) / alpha
             - Gamma(1+alpha) sum_{k>=1} xi^k / (k! (k - alpha))].

    The first bracket loses -log2(alpha) bits to cancellation, so it runs
    that much (plus 20 bits) above 2*bits + 100.  Gamma(1+alpha) comes from
    the Maclaurin series -euler alpha + sum_{k>=2} zeta(k) (-alpha)^k / k of
    its logarithm: mp.gamma first builds a cache at that precision, which
    takes seconds."""
    with mp.workprec(2 * bits + 100 + (1 - mp.mag(alpha)) + 20):
        log_gamma1, k = -mp.euler * alpha, 1
        while True:
            k += 1
            piece = mp.zeta(k) * (-alpha) ** k / k
            log_gamma1 += piece
            if abs(piece) <= mp.eps * abs(log_gamma1):
                break
        gamma1 = mp.exp(log_gamma1)
        term, total, k = mp.mpf(1), mp.mpf(0), 0
        while True:
            k += 1
            term *= xi / k
            piece = term / (k - alpha)
            total += piece
            if piece <= mp.eps * total:
                break
        w = -xi
        head = (gamma1 - mp.pi * alpha * w**alpha / mp.sinpi(alpha)) / alpha
        return mp.exp(w) * (head - gamma1 * total)


def _kummer_reference(alpha, xi, bits):
    """conj(Gamma(alpha+1) w^alpha e^w Gamma(-alpha, w)) / pi at w = -xi, to
    2*bits + 100 bits.  mpmath's gammainc needs thousands of bits and
    seconds at alpha ~ 1e-324, so alpha < 2^-64 with xi <= 1 takes the
    series instead."""
    if 0 < alpha < mp.mpf(2) ** -64 and xi <= 1:
        value = _tiny_alpha_route(alpha, xi, bits)
    else:
        value = _incomplete_gamma_route(alpha, xi, bits)
    with mp.workprec(2 * bits + 100):
        return mp.conj(value / mp.pi)


def test_tiny_alpha_series_matches_incomplete_gamma():
    # The two reference routes at a tiny alpha where gammainc is still cheap.
    alpha, xi, bits = mp.mpf("5e-31"), mp.mpf("1e-6"), 64
    series = _tiny_alpha_route(alpha, xi, bits)
    direct = _incomplete_gamma_route(alpha, xi, bits)
    with mp.workprec(2 * bits + 100):
        assert abs(series - direct) <= mp.mpf(2) ** (mp.mag(direct) - 2 * bits - 100 + 5)


# The 60 examples the seeded, derandomized draw below ran in a full Tier-1
# run before they were fixed here, as (2 alpha, log10_xi, bits); alpha =
# 5e-324 / 2 is the smallest double halved.  Hypothesis 6.155 mixes the
# literal constants of every loaded local module into its draws, so a
# drawn set moved with each edit anywhere in src/ or tests/.  Only these
# explicit examples run; the strategies show the ranges they came from.
_KUMMER_EXAMPLES = [
    (-1.0, 0.0, 64), (5e-324, 0.0, 64), (4.464097068754896, 3.9999999999999996, 256),
    (4.033841544228073, 0.0, 64), (4.033841544228073, 0.3, 64), (3.0, 0.0, 64),
    (3.0, -1.6688461902278282, 64), (2.2186829887622603, -4.317133172885975, 256),
    (2.245513246132612, -1.6020917350474173, 256), (5.363944748063541, 3.57071483239098, 64),
    (4.7977156053522805, 0.015533354507937247, 256), (4.7977156053522805, 0.0, 256),
    (5e-324, 0.0, 256), (5e-324, 5e-324, 256), (-1.0, -3.7442662601761154, 1024),
    (1.0, -3.220404779047772e-116, 256), (3.0, 3.9260206383532417, 64), (1.0, 1.5, 64),
    (5.0, -2.5859391342672375, 256), (5.282108883070619, -3.2637490411325607, 1024),
    (5e-324, -3.2637490411325607, 1024), (5e-324, 5e-324, 1024), (3.324608894704637, 1e-06, 64),
    (3.324608894704637, 3.324608894704637, 64), (4.246381927874355, 0.3, 1024),
    (4.246381927874355, 0.0, 1024), (5e-324, 0.0, 1024), (5.0, 0.5, 64),
    (2.5185794166039566, -1.333313030613124, 1024), (2.5185794166039566, 2.5185794166039566, 1024),
    (3.1784972122838457, -2.797017935249054, 256), (3.1784972122838457, 3.1784972122838457, 256),
    (7.0, 1e-08, 64), (0.0404776786506913, -5.187870271027978, 64),
    (5e-324, -5.187870271027978, 64), (5e-324, 5e-324, 64), (3.0, 2.576493218932594, 256),
    (5.729141969307713, -5.907093937613493, 64), (5.729141969307713, 0.0, 64),
    (4.433543117032894, 2.43229845551547, 1024), (2.43229845551547, 2.43229845551547, 1024),
    (5.5637147079474065, 2.8971061074031876, 256), (2.8971061074031876, 2.8971061074031876, 256),
    (1.0, -1.192092896e-07, 1024), (7.0, 0.8002839790592304, 256),
    (3.0377573267870063e-89, -5.0, 64), (5e-324, -5.0, 64), (0.4, -1.9491120482898054, 256),
    (0.4, 0.4, 256), (3.5892893989973547, -1.175494351e-38, 1024),
    (3.5892893989973547, 3.5892893989973547, 1024), (5.0, -3.9787660767436814, 256),
    (2.7983670960550553, -5.831918653852287, 64), (5e-324, -5.831918653852287, 64),
    (2.454265847171797, 2.6512269430847795, 64), (2.454265847171797, 2.454265847171797, 64),
    (3.4242106330240905, 0.3333333333333333, 1024), (0.3333333333333333, 0.3333333333333333, 1024),
    (3.569657827367297, 2.056874132692088e-62, 1024),
    (2.056874132692088e-62, 2.056874132692088e-62, 1024),
]


def _with_kummer_examples(test):
    for two_alpha, log10_xi, bits in _KUMMER_EXAMPLES:
        test = example(alpha=mp.mpf(two_alpha) / 2, log10_xi=log10_xi, bits=bits)(test)
    return test


@settings(phases=[Phase.explicit], deadline=None, database=None)
@_with_kummer_examples
@given(
    alpha=st.one_of(
        st.sampled_from([mp.mpf(2 * k - 1) / 2 for k in range(5)]),
        st.floats(0, 6, exclude_min=True, exclude_max=True)
        .filter(lambda p: p != int(p))
        .map(lambda p: mp.mpf(p) / 2),
    ),
    log10_xi=st.floats(-6, 4),
    bits=st.sampled_from([64, 256, 1024]),
)
def test_boundary_kummer_form_matches_incomplete_gamma(alpha, log10_xi, bits):
    # The Kummer form on the cut against the DLMF 8.6 incomplete-gamma route
    # at 2*bits + 100 (the series of _tiny_alpha_route for alpha < 2^-64
    # and xi <= 1): within 32 units in the last place of the working
    # precision.  p/2 for non-integer p reaches integer alpha as closely as
    # a double allows, where both Kummer terms have a pole.
    cfg = PrecisionConfig(mantissa_bits=bits)
    xi = mp.mpf(10.0**log10_xi)
    got = gamma_cauchy_boundary(alpha, xi, cfg)
    ref = _kummer_reference(alpha, xi, bits)
    with mp.workprec(2 * bits + 100):
        ulp = mp.mpf(2) ** (mp.mag(ref) - bits - GUARD_BITS)
        assert abs(got - ref) <= 32 * ulp
    if 2 * alpha == int(2 * alpha):
        # cospi is exactly 0 at half-integers: the cot term adds nothing.
        with cfg.workprec():
            assert mp.re(got) == mp.gamma(alpha) * mp.hyp1f1(1, 1 - alpha, -xi) / mp.pi
