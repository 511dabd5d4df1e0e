"""Gamma evaluation against frozen references and classical identities."""

import pytest
from mpmath import mp

from bernlab.errors import GammaPoleError
from bernlab.specialfn import log_gamma

# References are the closed forms log sqrt(pi), sqrt(pi)/2 and sqrt(pi),
# frozen at 400 bits as strings so import-time precision is moot.
LOG_SQRT_PI = "0.572364942924700087071713675676529355823647406457655785756812"
GAMMA_3_2 = "0.886226925452758013649083741670572591398774728061193564106904"
GAMMA_1_2 = "1.77245385090551602729816748334114518279754945612238712821381"


def test_log_gamma_half_matches_frozen_reference(cfg256):
    with cfg256.workprec():
        ref = mp.mpf(LOG_SQRT_PI)
        got = log_gamma("0.5", cfg256)
        assert got.sign == 1
        assert abs(got.log_abs - ref) / abs(ref) < mp.mpf("1e-55")


def test_log_gamma_at_one_is_zero(cfg256):
    with cfg256.workprec():
        got = log_gamma(1, cfg256)
        assert got.sign == 1
        assert abs(got.log_abs) < mp.mpf("1e-70")


def test_gamma_value_three_halves(cfg256):
    with cfg256.workprec():
        for x, ref in (("1.5", GAMMA_3_2), ("0.5", GAMMA_1_2)):
            got = log_gamma(x, cfg256)
            assert got.sign == 1
            ref = mp.mpf(ref)
            assert abs(mp.exp(got.log_abs) - ref) / ref < mp.mpf("1e-55")


def test_negative_half_has_negative_sign(cfg256):
    with cfg256.workprec():
        got = log_gamma("-0.5", cfg256)
        assert got.sign == -1
        # Gamma(-1/2) = -2 sqrt(pi)
        value = got.sign * mp.exp(got.log_abs)
        assert abs(value + 2 * mp.sqrt(mp.pi)) < mp.mpf("1e-70")


@pytest.mark.parametrize("x", ["0.3", "1.7", "4.5"])
def test_recurrence_gamma_x_plus_one(cfg256, x):
    with cfg256.workprec():
        xv = mp.mpf(x)
        lhs = log_gamma(xv + 1, cfg256)
        rhs = log_gamma(xv, cfg256)
        assert lhs.sign == rhs.sign
        assert abs(lhs.log_abs - (rhs.log_abs + mp.log(xv))) < mp.mpf("1e-70")


@pytest.mark.parametrize("x", ["0.3", "-1.3", "2.6"])
def test_reflection_identity(cfg256, x):
    with cfg256.workprec():
        xv = mp.mpf(x)
        a = log_gamma(xv, cfg256)
        b = log_gamma(1 - xv, cfg256)
        lhs = a.log_abs + b.log_abs
        rhs = mp.log(abs(mp.pi / mp.sinpi(xv)))
        assert abs(lhs - rhs) < mp.mpf("1e-70")
        sign_ref = 1 if mp.sinpi(xv) > 0 else -1
        assert a.sign * b.sign == sign_ref


@pytest.mark.parametrize("x", [0, -1, -3])
def test_poles_raise(cfg256, x):
    with pytest.raises(GammaPoleError):
        log_gamma(x, cfg256)


def test_precision_tracks_config(cfg128, cfg256):
    # The same call at higher precision must agree with the lower-precision
    # answer to the lower budget, i.e. the result is not precision-starved.
    with cfg256.workprec():
        hi = log_gamma("3.25", cfg256).log_abs
    with cfg128.workprec():
        lo = log_gamma("3.25", cfg128).log_abs
        assert abs(hi - lo) < mp.mpf(2) ** (-120)
