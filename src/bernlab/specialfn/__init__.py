"""Arbitrary-precision special functions, quadrature, and Cauchy transforms."""

from .gamma import SignedLog, gamma_value, log_gamma
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

__all__ = [
    "SignedLog",
    "log_gamma",
    "gamma_value",
    "DensitySpec",
    "gamma_density",
    "gauss_legendre_nodes",
    "integrate_finite",
    "integrate_finite_err",
    "integrate_halfline",
    "cauchy_integral",
    "cauchy_boundary",
    "gamma_cauchy_integral",
    "gamma_cauchy_boundary",
    "hilbert_grid",
]
