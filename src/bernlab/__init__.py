"""High-precision minimax approximation on symmetric intervals, the
conformal-map machinery behind its error asymptotics, and verification
tools for the structural identities tying the two together.

Layers, bottom up:

* specialfn: arbitrary-precision gamma, Gauss-Legendre quadrature with
  endpoint-singularity handling, Cauchy transforms with boundary values,
  and a double-precision discrete Hilbert transform.
* remez: weighted Remez exchange for the three problem families (even
  power approximation, odd sign-function Laurent approximation, shifted
  reciprocal-power approximation).
* conformal: slit maps of the upper half-plane built from gamma-type
  densities, their normalization constants, and the limit profiles of
  rescaled approximants.
* asymptotics: closed-form error predictors and sweep rows comparing
  them against solver output.
* curveverify: phase reconstruction along the imaginary axis, the curve
  functional-equation residual, coefficient sign-pattern checks, and
  profile-convergence measurements.
* conjecture: exploratory double-precision solver for the whole-line
  phase equation; reports residuals only.  It loads numpy.

``import bernlab`` loads no layer.  _EXPORTS names each layer's public
names once; a layer loads on first use, when one of its names or the layer
itself is first looked up on this package.
"""

import importlib

__version__ = "0.1.0"

# Layer module -> its public names, each exported from this package.
_EXPORTS = {
    "errors": """BernlabError BranchTrackingError CutViolationError GammaPoleError
        InvalidProblemError NonConvergenceError PrecisionBudgetError QuadratureError""",
    "precision": "DEFAULT_CONFIG PrecisionConfig",
    "specialfn": """DensitySpec SignedLog cauchy_boundary cauchy_integral gamma_density
        gauss_legendre_nodes hilbert_grid integrate_finite integrate_finite_err
        integrate_halfline log_gamma""",
    "remez": """MinimaxProblem MinimaxSolution ProblemKind build_problem clenshaw
        eval_solution reduced_deviation solve""",
    "conformal": """ConformalSample MapConstants far_offset_closed far_offset_far_field
        far_offset_integral limit_constants limit_density limit_map limit_map_boundary
        phase_density power_limit_profile sgn_limit_profile slit_map slit_map_boundary
        slit_map_zero tooth_density""",
    "asymptotics": """akhiezer_b_from_a akhiezer_convert compare monotone_tail
        predict_akhiezer_error predict_power_error predict_slit_height
        slit_height_from_error""",
    "curveverify": """PhaseTrace curve_residuals profile_convergence reconstruct_phase
        sign_pattern_check""",
    "conjecture": "ConjectureState phase_residual solve_phase_equation",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
