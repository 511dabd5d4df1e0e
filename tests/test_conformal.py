"""Slit maps, their normalization constants, and the two limit profiles."""

import pytest
from mpmath import mp

from bernlab import conformal as cf
from bernlab.errors import InvalidProblemError
from bernlab.precision import PrecisionConfig
from bernlab.specialfn import cauchy_boundary, cauchy_integral

INV_SQRT_PI = "0.564189583547756286948079451560772585844050629329"

# Points off the cut and on its upper edge where the closed-form maps are
# checked against the quadrature transforms.
OFF_CUT = ("-1e-6", "-1", "-1e4", ("-0.25", "2"), ("1.5", "-0.75"))
ON_CUT = ("0.01", "1", "10", "60")

# The maps run at 128 bits.  The quadrature oracle runs at 192, where its
# certified tolerance 2^-96 sits below the 1e-25 bound; at 128 bits it is
# only 2^-64, and xi = 60 for k = 3 measured 9e-24 there.
CFG_MAP = PrecisionConfig(mantissa_bits=128)
CFG_ORACLE = PrecisionConfig(mantissa_bits=192)


def _assert_closed_form_matches_quadrature(density, map_at, boundary_at):
    with CFG_ORACLE.workprec():
        for z in OFF_CUT:
            zeta = mp.mpc(*z) if isinstance(z, tuple) else mp.mpf(z)
            got = mp.exp(map_at(zeta).cauchy_part)
            ref = cauchy_integral(density, zeta, CFG_ORACLE)
            assert abs(got - ref) < mp.mpf("1e-25") * abs(ref), z
        for xi in ON_CUT:
            got = mp.exp(boundary_at(xi).cauchy_part)
            ref = cauchy_boundary(density, xi, CFG_ORACLE)
            assert abs(got - ref) < mp.mpf("1e-25") * abs(ref), xi


def test_real_and_increasing_on_negative_axis(cfg256):
    with cfg256.workprec():
        vals = [cf.slit_map(1, -mp.mpf(r), cfg256).value for r in ("10", "1", "0.1")]
        assert all(mp.im(v) == 0 for v in vals)
        assert vals[0] < vals[1] < vals[2]


def test_upper_half_plane_preserved(cfg256):
    with cfg256.workprec():
        for zeta in (mp.mpc(1, 1), mp.mpc(-2, "0.5"), mp.mpc(0, 3)):
            assert mp.im(cf.slit_map(1, zeta, cfg256).value) > 0
            assert mp.im(cf.slit_map(2, zeta, cfg256).value) > 0


def test_conjugate_symmetry(cfg256):
    with cfg256.workprec():
        zeta = mp.mpc("0.7", "1.3")
        up = cf.slit_map(1, zeta, cfg256).value
        down = cf.slit_map(1, mp.conj(zeta), cfg256).value
        assert abs(up - mp.conj(down)) < mp.mpf("1e-60")


def test_boundary_is_limit_of_interior_values(cfg256):
    # Independent route onto the cut: the principal-value boundary formula
    # must agree with the plain transform a hair above the cut, where the
    # gap scales linearly in the offset.
    with cfg256.workprec():
        for k, xi in ((1, mp.mpf(1)), (2, mp.mpf("0.5"))):
            edge = cf.slit_map_boundary(k, xi, cfg256).value
            near = cf.slit_map(k, mp.mpc(xi, mp.mpf("1e-20")), cfg256).value
            assert abs(near - edge) < mp.mpf("1e-18")


def test_boundary_imaginary_part_reproduces_density(cfg256):
    # On the upper edge the transform's imaginary part is the density; the
    # normalized residual must vanish to rounding for both families.
    with cfg256.workprec():
        for k in (1, 2):
            half = mp.mpf(2 * k - 1) / 2
            dens = cf.tooth_density(k)
            for xi in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(5)):
                cau = cauchy_boundary(dens, xi, cfg256)
                assert abs(mp.exp(xi) * xi**-half * mp.im(cau) - 1) < mp.mpf("1e-40")


def test_zeroth_map_vanishes_at_origin(cfg256):
    with cfg256.workprec():
        value = cf.slit_map(0, mp.mpf("-1e-6"), cfg256).value
        assert abs(value) < mp.mpf("1e-2")


def test_phase_density_range_and_limit(cfg256):
    with cfg256.workprec():
        for k in (1, 2):
            lo, hi = k - mp.mpf("0.5"), k + mp.mpf("0.5")
            samples = [cf.phase_density(k, t, cfg256) for t in (mp.mpf("0.5"), mp.mpf(2), mp.mpf(10))]
            assert all(lo < r < hi for r in samples)
            assert samples[0] < samples[1] < samples[2]
            assert abs(cf.phase_density(k, mp.mpf(10) ** 4, cfg256) - hi) < mp.mpf("0.01")


def test_zero_location_is_a_zero(cfg256):
    with cfg256.workprec():
        for k in (1, 2):
            d = cf.slit_map_zero(k, cfg256)
            assert d > 0
            assert abs(cf.slit_map(k, -d, cfg256).value) < mp.mpf("1e-10")


def test_zero_bracket_must_straddle(cfg256):
    with pytest.raises(InvalidProblemError):
        cf.slit_map_zero(1, cfg256, bracket=(1e-6, 1e-5))


def test_far_offset_routes_agree(cfg256):
    # Three genuinely different computations of the same constant: a gamma
    # closed form, Richardson extrapolation at large radius, and an
    # integral through the map's zero.
    with cfg256.workprec():
        closed = cf.far_offset_closed(1, cfg256)
        far = cf.far_offset_far_field(1, cfg256)
        integral = cf.far_offset_integral(1, cfg256)
        assert abs(closed - far) < mp.mpf("1e-8")
        assert abs(closed - integral) < mp.mpf("1e-8")


def test_limit_constants_p_one(cfg256):
    with cfg256.workprec():
        consts = cf.limit_constants(1, cfg256)
        assert abs(consts.boundary_scale - mp.mpf(INV_SQRT_PI)) < mp.mpf("1e-45")
        assert abs(mp.exp(consts.expansion_constant) - mp.mpf("0.5")) < mp.mpf("1e-45")


@pytest.mark.parametrize("p", ["0.5", "1.5", "3"])
def test_limit_constants_mass_check(cfg256, p):
    # check=True re-verifies the unit-mass normalization by quadrature and
    # raises if it drifts; surviving the call is the assertion.
    consts = cf.limit_constants(p, cfg256, check=True)
    with cfg256.workprec():
        assert consts.boundary_scale > 0


def test_limit_constants_product_identity(cfg256):
    # exp(c) * Lambda * |Gamma(-p/2)| = 1 ties all three constants together.
    from bernlab.specialfn import log_gamma

    with cfg256.workprec():
        for p in (mp.mpf("0.5"), mp.mpf(1), mp.mpf("1.5"), mp.mpf(3)):
            consts = cf.limit_constants(p, cfg256, check=False)
            gamma_neg = mp.exp(log_gamma(-p / 2, cfg256).log_abs)
            prod = mp.exp(consts.expansion_constant) * consts.boundary_scale * gamma_neg
            assert abs(prod - 1) < mp.mpf("1e-12")


def test_limit_map_far_field_expansion(cfg256):
    with cfg256.workprec():
        consts = cf.limit_constants(1, cfg256, check=False)
        radius = mp.mpf(10) ** 6
        value = cf.limit_map(1, -radius, cfg256).value
        predicted = -radius - mp.log(radius) + consts.expansion_constant
        assert abs(value - predicted) < mp.mpf("1e-4")


def test_limit_map_boundary_density_identity(cfg256):
    with cfg256.workprec():
        p = mp.mpf("1.5")
        consts = cf.limit_constants(p, cfg256, check=False)
        dens = cf.limit_density(p, cfg256)
        scale = consts.boundary_scale / abs(mp.sinpi(p / 2))
        xi = mp.mpf(2)
        cau = cauchy_boundary(dens, xi, cfg256)
        assert abs(scale * mp.exp(xi) * xi ** (-p / 2) * mp.im(cau) - 1) < mp.mpf("1e-40")


def test_power_profile_origin_value(cfg256):
    with cfg256.workprec():
        got = cf.power_limit_profile(1, 0, cfg256)
        assert abs(got - mp.mpf(INV_SQRT_PI)) < mp.mpf("1e-40")


def test_power_profile_large_argument(cfg256):
    # Far out the rescaled approximant hugs |lambda|^p from above.
    with cfg256.workprec():
        got = cf.power_limit_profile(1, 4, cfg256)
        assert 0 < got - 4 < mp.mpf("1e-4")


def test_sgn_profile_tends_to_one(cfg256):
    with cfg256.workprec():
        assert abs(cf.sgn_limit_profile(1, 6, cfg256) - 1) < mp.mpf("1e-8")


def test_sgn_profile_overshoot_sign_alternates_with_k(cfg256):
    with cfg256.workprec():
        assert cf.sgn_limit_profile(1, 1, cfg256) > 1
        assert cf.sgn_limit_profile(2, 1, cfg256) < 1


def test_sgn_profile_matches_substitution_oracle(cfg256):
    # Same integral after t = mu^2, done with an unrelated quadrature.
    with cfg256.workprec():
        got = cf.sgn_limit_profile(1, 1, cfg256)
        lam2 = mp.mpf(1)
        oracle = 1 + (1 / mp.pi) * mp.quad(
            lambda t: mp.sqrt(t / lam2) * mp.exp(-lam2 - t) / (lam2 + t),
            [0, mp.inf],
        )
        assert abs(got - oracle) < mp.mpf("1e-40")


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_slit_maps_match_quadrature(k):
    _assert_closed_form_matches_quadrature(
        cf.tooth_density(k),
        lambda zeta: cf.slit_map(k, zeta, CFG_MAP),
        lambda xi: cf.slit_map_boundary(k, xi, CFG_MAP),
    )


@pytest.mark.parametrize("p", ["0.5", "1", "1.5", "3"])
def test_limit_maps_match_quadrature(p):
    with CFG_ORACLE.workprec():
        density = cf.limit_density(p, CFG_ORACLE)
    _assert_closed_form_matches_quadrature(
        density,
        lambda zeta: cf.limit_map(p, zeta, CFG_MAP),
        lambda xi: cf.limit_map_boundary(p, xi, CFG_MAP),
    )


def test_maps_reject_bad_k_and_p():
    k_message = "k must be a nonnegative integer"
    p_message = "p must be positive and not an even integer"
    for bad_k in (-1, 1.5):
        with pytest.raises(InvalidProblemError, match=k_message):
            cf.slit_map(bad_k, -1)
        with pytest.raises(InvalidProblemError, match=k_message):
            cf.slit_map_boundary(bad_k, 1)
        with pytest.raises(InvalidProblemError, match=k_message):
            cf.phase_density(bad_k, 1)
    for bad_p in ("2", "-1", "0"):
        with pytest.raises(InvalidProblemError, match=p_message):
            cf.limit_map(bad_p, -1)
        with pytest.raises(InvalidProblemError, match=p_message):
            cf.limit_map_boundary(bad_p, 1)


def test_parameter_validation():
    with pytest.raises(InvalidProblemError):
        cf.tooth_density(-1)
    with pytest.raises(InvalidProblemError):
        cf.slit_map(1, mp.mpf(2))  # on the cut
    with pytest.raises(InvalidProblemError):
        cf.limit_constants(2)  # even integer exponent
    with pytest.raises(InvalidProblemError):
        cf.sgn_limit_profile(0, 1)
    with pytest.raises(InvalidProblemError):
        cf.sgn_limit_profile(1, 0)
    with pytest.raises(InvalidProblemError):
        cf.power_limit_profile(1, -1)
