"""Arbitrary-precision special functions, quadrature, and Cauchy transforms."""

from .gamma import SignedLog, log_gamma
from .quadrature import (
    DensitySpec,
    gamma_density,
    gauss_legendre_nodes,
    integrate_finite,
    integrate_finite_err,
    integrate_halfline,
)
from .cauchy import (
    cauchy_boundary,
    cauchy_integral,
    gamma_cauchy_boundary,
    gamma_cauchy_integral,
)
from .hilbert import hilbert_grid
