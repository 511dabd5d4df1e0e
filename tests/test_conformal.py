"""Slit maps, their normalization constants, and the two limit profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bernlab import conformal as cf
from bernlab.errors import InvalidProblemError, QuadratureError
from bernlab.precision import PrecisionConfig
from bernlab.specialfn import cauchy_boundary, cauchy_integral, integrate_finite

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

# Points where the closed-form limit profiles are checked against the
# mu-integrals that define them; the sgn profile is defined for lambda > 0.
PROFILE_LAMBDAS = ("0", "0.1", "0.5", "1", "2", "3", "6")


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


def _power_profile_by_quadrature(p, lam, cfg):
    """lambda^p + (sin(pi p/2)/pi) Int mu^p e^-(lambda^2+mu^2) 2 mu / (lambda^2+mu^2) dmu
    by adaptive Gauss-Legendre quadrature in mu."""
    with cfg.workprec():
        p, lam = mp.mpf(p), mp.mpf(lam)
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


def _sgn_profile_by_quadrature(k, lam, cfg):
    """1 + ((-1)^(k+1)/pi) Int (mu/lambda)^(2k-1) e^-(lambda^2+mu^2)
    2 mu / (lambda^2+mu^2) dmu by adaptive Gauss-Legendre quadrature in mu."""
    with cfg.workprec():
        lam = mp.mpf(lam)
        lam2 = lam * lam
        expo = 2 * k - 1

        def f(mu):
            mu2 = mu * mu
            return (mu / lam) ** expo * mp.exp(-(lam2 + mu2)) * 2 * mu / (lam2 + mu2)

        cut = mp.sqrt(cfg.tail_cut_for(expo)) + 2
        integral = integrate_finite(f, 0, cut, cfg)
        return 1 + (-1) ** (k + 1) * integral / mp.pi


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


@pytest.mark.parametrize("bits", [96, 256])
def test_phase_density_is_the_argument_of_the_boundary_map(bits):
    # One atan2 of the transform against the imaginary part of the boundary
    # map, whose complex logs it replaces.  The density lies in
    # (k - 1/2, k + 1/2) and is a sum with k - 1/2, so ulps are of k + 1/2.
    cfg = PrecisionConfig(mantissa_bits=bits)
    with cfg.workprec():
        ts = [mp.mpf(10) ** (-4 + j * mp.log10(6e5) / 24) for j in range(25)]
        for k in range(4):
            ulp = mp.ldexp(k + mp.mpf(1) / 2, -mp.prec)
            for t in ts:
                want = mp.im(cf.slit_map_boundary(k, t, cfg).value) / mp.pi
                assert abs(cf.phase_density(k, t, cfg) - want) <= 8 * ulp


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


def test_integral_route_rounds_its_points_to_its_precision(monkeypatch, cfg256):
    # mpmath 1.3.0's mpf_log returns about d, not -log 4, for y = (1 + d)/4
    # stored with more bits than its precision (remez.solve rounds its
    # reference for this).  The integral route works at
    # _INTEGRAL_ROUTE_BITS inside a finer caller; every point it hands to
    # the Kummer evaluator of the phase density and to the map must carry
    # no more bits than that, and every integrand evaluation must reach
    # the evaluator.
    with PrecisionConfig(mantissa_bits=cf._INTEGRAL_ROUTE_BITS).workprec():
        route_prec = mp.prec
    kummer_bits, map_bits, integrand_calls = [], [], []
    kummer, slit_map, integrate = cf._kummer_boundary, cf.slit_map, cf.integrate_finite

    def recording_kummer(alpha, cfg):
        evaluate = kummer(alpha, cfg)

        def recording(xi):
            kummer_bits.append(xi._mpf_[3])
            return evaluate(xi)

        return recording

    def recording_map(k, zeta, cfg=None):
        map_bits.append(zeta._mpf_[3])
        return slit_map(k, zeta, cfg)

    def counting_integrate(f, *args, **kwargs):
        def counted(u):
            integrand_calls.append(u)
            return f(u)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(cf, "_kummer_boundary", recording_kummer)
    monkeypatch.setattr(cf, "slit_map", recording_map)
    monkeypatch.setattr(cf, "integrate_finite", counting_integrate)
    cf.far_offset_integral(1, cfg256)
    assert map_bits and integrand_calls
    assert len(kummer_bits) >= len(integrand_calls)
    assert max(kummer_bits + map_bits) <= route_prec


def test_integral_route_frozen_value(cfg192):
    # The 192-bit `integral` of `conformal --k 1 --task offsets --bits 192`,
    # rendered as the report renders it.
    integral = cf.far_offset_integral(1, cfg192)
    with mp.workprec(cfg192.mantissa_bits + 32):
        got = mp.nstr(integral, cfg192.decimal_digits, strip_zeros=True)
    assert got == "-1.26551212348464539648540974925507206101671361490788547562"


def test_limit_constants_p_one(cfg256):
    with cfg256.workprec():
        consts = cf.limit_constants(1, cfg256)
        assert abs(consts.boundary_scale - mp.mpf(INV_SQRT_PI)) < mp.mpf("1e-45")
        assert abs(mp.exp(consts.expansion_constant) - mp.mpf("0.5")) < mp.mpf("1e-45")


# 1.3: p/2 has no substitution order.  0.6666666666666667: the float p/2
# passes for 1/3, but three times the exact p/2 is not an integer.
@pytest.mark.parametrize("p", ["0.5", "1.5", "3", "1.3", "0.6666666666666667"])
def test_limit_constants_mass_check(cfg256, p):
    # check=True re-verifies the unit-mass normalization by quadrature and
    # raises if it drifts; surviving the call is the assertion.
    consts = cf.limit_constants(p, cfg256, check=True)
    with cfg256.workprec():
        assert consts.boundary_scale > 0


@pytest.mark.parametrize("p", ["0.5", "1.5", "3", "1.3"])
def test_mass_check_rejects_a_scale_off_by_its_bound(monkeypatch, cfg256, p):
    # The check's bound at 256 bits is 1e-25, and its quadrature runs to a
    # thousandth of that: a scale 1e-24 off must fail, one 1e-26 off must not.
    exact = cf._limit_exponent_and_scale

    def off_by(rel):
        def shifted(p, cfg):
            half, scale = exact(p, cfg)
            with cfg.workprec():
                return half, scale * (1 + mp.mpf(rel))

        return shifted

    monkeypatch.setattr(cf, "_limit_exponent_and_scale", off_by("1e-26"))
    cf.limit_constants(p, cfg256, check=True)
    monkeypatch.setattr(cf, "_limit_exponent_and_scale", off_by("1e-24"))
    with pytest.raises(QuadratureError):
        cf.limit_constants(p, cfg256, check=True)


def test_quadrature_boundary_at_an_exponent_without_a_small_order(cfg192):
    # p/2 = 0.65 has no substitution order up to 12, so the quadrature
    # removes the origin's power by t = u^(1/1.65); the density's exponent
    # must reach it exactly, or a factor u^(1e-17) stalls the bisection.
    # At 128 bits that factor hides below the tolerance of 2^-64.
    with cfg192.workprec():
        got = cauchy_boundary(cf.limit_density("1.3", cfg192), 1, cfg192)
        want = mp.exp(cf.limit_map_boundary("1.3", 1, cfg192).cauchy_part)
        assert abs(got - want) < mp.mpf("1e-25") * abs(want)


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


@pytest.mark.parametrize("p", ["0.5", "1.5", "3", "5"])
def test_power_profile_matches_quadrature(p):
    for lam in PROFILE_LAMBDAS:
        got = cf.power_limit_profile(p, lam, CFG_MAP)
        ref = _power_profile_by_quadrature(p, lam, CFG_ORACLE)
        with CFG_ORACLE.workprec():
            assert abs(got - ref) < mp.mpf("1e-25") * abs(ref), lam


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sgn_profile_matches_quadrature(k):
    for lam in PROFILE_LAMBDAS[1:]:
        got = cf.sgn_limit_profile(k, lam, CFG_MAP)
        ref = _sgn_profile_by_quadrature(k, lam, CFG_ORACLE)
        with CFG_ORACLE.workprec():
            assert abs(got - ref) < mp.mpf("1e-25") * abs(ref), lam


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(0.1, 6, exclude_min=True, exclude_max=True).filter(
        lambda p: p not in (2.0, 4.0)
    ),
    lam=st.floats(0.05, 6, exclude_min=True, exclude_max=True),
)
def test_power_profile_matches_t_form_by_mpmath(p, lam):
    # The t = mu^2 form of the profile integral, by mpmath's tanh-sinh
    # quadrature; split at lambda^2, the distance to the pole at -lambda^2.
    got = cf.power_limit_profile(p, lam, CFG_MAP)
    with CFG_MAP.workprec():
        p, lam = mp.mpf(p), mp.mpf(lam)
        lam2 = lam * lam
        integral = mp.quad(
            lambda t: t ** (p / 2) * mp.exp(-t) / (t + lam2), [0, lam2, 1 + lam2, mp.inf]
        )
        ref = lam**p + mp.sinpi(p / 2) * mp.exp(-lam2) * integral / mp.pi
        assert abs(got - ref) < mp.mpf("1e-25") * abs(ref)


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
