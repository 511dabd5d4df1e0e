"""Cauchy transforms off and on the positive half-line."""

import pytest
from hypothesis import given, seed, settings
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


# The seed is the one derandomize drew from this test's body before the
# tiny-alpha series route, so the examples are drawn as before.  Hypothesis
# also draws on the literal constants of the loaded local modules, so a few
# examples still move when those change.
@seed(0x2ED56E09917C8C40A9EF671CB0265003301C721690AF9A74953109B5E3D8E0010E766ACB34D0BBCD56CCF4ECBACBC2D4)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
