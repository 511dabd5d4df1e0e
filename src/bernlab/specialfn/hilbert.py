"""Discrete Hilbert transform on a uniform symmetric grid.

Convention: htilde(x) = (1/pi) * PV integral of rho(t)/(x - t) dt, so the
transform of 1/(1+x^2) is x/(1+x^2).

The quadrature uses midpoint panels of width 2h centered on the samples at
odd offsets from the evaluation node, so the singular node itself never
enters and the principal value cancels symmetrically:

    htilde_j = (2/pi) * sum over odd k of rho_{j-k} / k.

That sum is a convolution, evaluated by a zero-padded real FFT of size 2n;
for an even profile, folded_hilbert_operator gives the transform at the
positive nodes with real FFTs of size n.  Samples beyond the grid edge are
treated as zero; the caller controls the truncation error through the grid
half-width.  Double precision is used throughout: the transform feeds the
exploratory curve solver, whose targets sit far above 1e-12.  numpy is
imported inside the functions, so importing bernlab does not load it.
"""

from __future__ import annotations


def hilbert_grid(values, grid=None):
    """Discrete Hilbert transform of samples on a uniform symmetric grid.

    values: samples of rho; grid: the matching abscissas, used only to
    validate uniform spacing and symmetry about 0 (the transform itself is
    dilation invariant, so the step size drops out).
    """
    import numpy as np

    rho = np.asarray(values, dtype=float)
    if rho.ndim != 1 or rho.size < 4:
        raise ValueError("expected a 1-D array of at least 4 samples")
    n = rho.size
    if grid is not None:
        x = np.asarray(grid, dtype=float)
        if x.shape != rho.shape:
            raise ValueError("grid and values must have matching shapes")
        steps = np.diff(x)
        h = steps.mean()
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
            raise ValueError("grid must be uniform and increasing")
        if abs(x[0] + x[-1]) > 1e-9 * max(abs(x[0]), abs(x[-1])):
            raise ValueError("grid must be symmetric about 0")
    # The linear convolution with the 2n-1 taps has 3n-2 terms, of which the
    # n centred on the middle tap are the transform.  A circular convolution
    # of size 2n wraps only terms 2n..3n-3 onto 0..n-3, so it leaves those n
    # exact, and 2n is a well-factored FFT length where 3n-2 often is not.
    spectrum = np.fft.rfft(_stencil(np.arange(-(n - 1), n)), 2 * n)
    return np.fft.irfft(np.fft.rfft(rho, 2 * n) * spectrum, 2 * n)[n - 1 : 2 * n - 1]


def _stencil(offsets):
    """The taps (2/pi)/k at odd offsets k, 0 at even ones."""
    import numpy as np

    odd = offsets % 2 != 0
    return np.where(odd, (2.0 / np.pi) / np.where(odd, offsets, 1), 0.0)


def folded_hilbert_operator(nodes: int):
    """The transform of an even profile on an even count of nodes, as a
    function of its m = nodes/2 samples at the positive nodes, evaluated
    there.

    The fold is K = T + H, with Toeplitz taps kappa(i - j) and Hankel taps
    kappa(i + j + 1) of the stencil kappa, both circular convolutions of
    size nodes whose outputs m-1..2m-2 are exact.  H acts on the reversed
    samples, whose spectrum is conj(rfft(v)) shifted by m-1; rolling H's
    taps by that shift makes one product one rfft/irfft pair.
    """
    import numpy as np

    m = nodes // 2
    # Tap nodes-1 of either kernel reaches none of the kept outputs.
    taps = np.arange(nodes)
    toeplitz = np.fft.rfft(_stencil(taps - (m - 1)))
    hankel = np.fft.rfft(np.roll(_stencil(taps + 1), m - 1))

    def apply(v):
        spectrum = np.fft.rfft(v, nodes)
        folded = spectrum * toeplitz + spectrum.conj() * hankel
        return np.fft.irfft(folded, nodes)[m - 1 : nodes - 1]

    return apply
