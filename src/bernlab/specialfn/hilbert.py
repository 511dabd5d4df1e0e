"""Discrete Hilbert transform on a uniform symmetric grid.

Convention: htilde(x) = (1/pi) * PV integral of rho(t)/(x - t) dt, so the
transform of 1/(1+x^2) is x/(1+x^2).

The quadrature uses midpoint panels of width 2h centered on the samples at
odd offsets from the evaluation node, so the singular node itself never
enters and the principal value cancels symmetrically:

    htilde_j = (2/pi) * sum over odd k of rho_{j-k} / k.

That sum is a convolution, evaluated by a zero-padded real FFT of size 2n
(see hilbert_operator).  Samples beyond the grid edge are treated as zero;
the caller controls the truncation error through the grid half-width.
Double precision is used throughout: the transform feeds the exploratory
curve solver, whose targets sit far above 1e-12.  numpy is imported inside
the functions, so importing bernlab does not load it.
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
    return hilbert_operator(n)(rho)


def hilbert_operator(n: int):
    """The transform on n samples as a function of the samples.

    The kernel's spectrum is computed here once, so repeated transforms on
    one grid (the phase solver's Newton and GMRES steps) each cost one
    rfft/irfft pair.  The linear convolution of the samples with the
    2n-1 kernel taps has 3n-2 terms, of which the n centred on the
    kernel's middle tap are the transform.  A circular convolution of
    size 2n wraps only terms 2n..3n-3 onto 0..n-3, so it leaves those n
    outputs exact, and 2n is a well-factored FFT length where 3n-2
    often is not.
    """
    import numpy as np

    size = 2 * n
    offsets = np.arange(-(n - 1), n)
    kernel = np.zeros(2 * n - 1)
    odd = offsets % 2 != 0
    kernel[odd] = (2.0 / np.pi) / offsets[odd]
    spectrum = np.fft.rfft(kernel, size)

    def apply(rho):
        return np.fft.irfft(np.fft.rfft(rho, size) * spectrum, size)[n - 1 : 2 * n - 1]

    return apply
