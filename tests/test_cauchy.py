"""Cauchy transforms off and on the positive half-line."""

import pytest
from hypothesis import given, settings
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
    # at 2*bits + 100: within 32 units in the last place of the working
    # precision.  p/2 for non-integer p reaches integer alpha as closely as
    # a double allows, where both Kummer terms have a pole.
    cfg = PrecisionConfig(mantissa_bits=bits)
    xi = mp.mpf(10.0**log10_xi)
    got = gamma_cauchy_boundary(alpha, xi, cfg)
    with mp.workprec(2 * bits + 100):
        w = -xi
        ref = mp.conj(
            mp.gamma(alpha + 1) * w**alpha * mp.exp(w) * mp.gammainc(-alpha, w) / mp.pi
        )
        ulp = mp.mpf(2) ** (mp.mag(ref) - bits - GUARD_BITS)
        assert abs(got - ref) <= 32 * ulp
    if 2 * alpha == int(2 * alpha):
        # cospi is exactly 0 at half-integers: the cot term adds nothing.
        with cfg.workprec():
            assert mp.re(got) == mp.gamma(alpha) * mp.hyp1f1(1, 1 - alpha, -xi) / mp.pi
