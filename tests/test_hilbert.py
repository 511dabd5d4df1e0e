"""Discrete Hilbert transform on uniform symmetric grids."""

import numpy as np
import pytest

from bernlab.specialfn import hilbert_grid


def _grid(x_max, n):
    return np.linspace(-x_max, x_max, n)


def test_poisson_pair():
    # 1/(1+t^2) transforms to x/(1+x^2); interior nodes carry the accuracy,
    # the last decade near the cutoff is polluted by the truncated tail.
    x = _grid(200.0, 4001)
    got = hilbert_grid(1.0 / (1.0 + x * x), x)
    ref = x / (1.0 + x * x)
    inner = np.abs(x) <= 10.0
    assert np.max(np.abs(got - ref)[inner]) < 1e-6


def test_widening_window_cuts_truncation_error_cubically():
    # For the Poisson density the interior error is all tail truncation,
    # about 2x/(3 pi X^3), so doubling X at fixed spacing gains ~8x.
    errs = []
    for x_max, n in ((200.0, 4001), (400.0, 8001)):
        x = _grid(x_max, n)
        got = hilbert_grid(1.0 / (1.0 + x * x), x)
        ref = x / (1.0 + x * x)
        errs.append(np.max(np.abs(got - ref)[np.abs(x) <= 10.0]))
    assert errs[1] < errs[0] / 4.0


def test_gaussian_pair_reaches_rounding():
    # exp(-t^2) transforms to 2/sqrt(pi) * Dawson(x); the tail is gone by
    # |t| = 20 so the discrete kernel's full accuracy shows through.
    from scipy.special import dawsn

    x = _grid(20.0, 801)
    got = hilbert_grid(np.exp(-x * x), x)
    ref = 2.0 / np.sqrt(np.pi) * dawsn(x)
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("n", [64, 65])
def test_matches_direct_odd_offset_sum(n):
    # The FFT evaluates (2/pi) * sum over odd k of rho_{j-k} / k; compare it
    # with that sum taken term by term, on both grid parities.
    rho = np.random.default_rng(n).standard_normal(n)
    direct = [
        (2.0 / np.pi) * sum(rho[j - k] / k for k in range(j - n + 1, j + 1) if k % 2)
        for j in range(n)
    ]
    assert np.max(np.abs(hilbert_grid(rho) - direct)) < 1e-13 * np.max(np.abs(rho))


def test_zero_maps_to_zero():
    x = _grid(10.0, 257)
    out = hilbert_grid(np.zeros_like(x), x)
    assert np.all(out == 0.0)


def test_linearity():
    x = _grid(50.0, 2001)
    f = np.exp(-x * x)
    g = 1.0 / (1.0 + x * x)
    lhs = hilbert_grid(2.0 * f - 3.0 * g, x)
    rhs = 2.0 * hilbert_grid(f, x) - 3.0 * hilbert_grid(g, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_even_input_gives_odd_output():
    x = _grid(50.0, 2001)
    out = hilbert_grid(np.exp(-x * x), x)
    assert np.max(np.abs(out + out[::-1])) < 1e-14


def test_rejects_nonuniform_grid():
    x = np.linspace(-1.0, 1.0, 101) ** 3
    with pytest.raises(ValueError):
        hilbert_grid(np.ones_like(x), x)


def test_rejects_asymmetric_grid():
    x = np.linspace(-1.0, 2.0, 100)
    with pytest.raises(ValueError):
        hilbert_grid(np.ones_like(x), x)
