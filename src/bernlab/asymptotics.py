"""Closed-form error predictors for the two-interval minimax problems and
computed-vs-predicted sweep rows.

Conventions: the |x|^p problem uses polynomials of degree n = 2m on
[-1,-a] u [a,1]; the sgn problem uses Laurent polynomials of degree
(2k-1, 2m-1); the shifted-power problem approximates (b+x)^(-s) on [-1,1]
by polynomials of degree l.  The sgn error L relates to a slit height B
through L = 1/cosh(B).  Each predictor takes the parameters that the
solver's builder for its family accepts, and rejects the rest through it.

compare builds the rows that `bernlab sweep` prints, one dict per degree
keyed as the report prints it: m, E (the solve's own error), predicted
(the family's predictor) and ratio (E/predicted).  Sgn rows also carry
height (acosh(1/E)) and predicted_height (predict_slit_height); their
ratio compares the heights and predicted is 1/cosh(predicted_height).
monotone_tail judges the ratios' approach to 1 over a sweep's tail.
"""

from __future__ import annotations

from mpmath import mp

from .conformal import far_offset_closed
from .errors import InvalidProblemError
from .precision import DEFAULT_CONFIG, PrecisionConfig, check_degrees, check_gap
from .remez import (
    ProblemKind,
    build_akhiezer_problem,
    build_power_problem,
    build_problem,
    build_sgn_problem,
    solve,
)
from .specialfn import log_gamma


def predict_power_error(p, a, m: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Predicted minimax error of |x|^p on [-1,-a] u [a,1] at degree 2m:

        ((1-a)/(1+a))^(m+1) * m^(-p/2-1) * a^(p/2-1) (1+a)^2 / (2 |Gamma(-p/2)|).

    p is any exponent the builder accepts; at p = -2s this is
    akhiezer_convert of predict_akhiezer_error at degree m, exactly.
    """
    build_power_problem(p, a, m)
    with cfg.workprec():
        p = mp.mpf(p)
        a = mp.mpf(a)
        ratio = (1 - a) / (1 + a)
        # The builder keeps -p/2 off the poles of Gamma.
        const = a ** (p / 2 - 1) * (1 + a) ** 2 / (2 * abs(mp.gamma(-p / 2)))
        return ratio ** (m + 1) * mp.mpf(m) ** (-p / 2 - 1) * const


def predict_slit_height(k: int, a, m: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Predicted slit height B for the sgn problem of index (k, m):

        (m-1/2) log((1+a)/(1-a)) + (k+1/2) log(2m-1)
            + (k+1/2) log(2a/(1-a^2)) - log(Gamma(k+1/2)/pi).

    The constant inside the second log is 2a/(1-a^2): the height grows
    like (k+1/2) log(2 A) with A = a(2m-1)/(1-a^2).  The sgn minimax
    error then satisfies L ~ 1/cosh(B).  The last term is the far-field
    offset of the slit map of index k, conformal.far_offset_closed.

    The formula is leading order only: acosh(1/L) - B -> 0 as m grows,
    like O(1/m) (about 2.3/m at k = 1, a = 1/2).  The next-order term is
    left out, so no finite-degree accuracy is implied.
    """
    build_sgn_problem(k, a, m)
    with cfg.workprec():
        a = mp.mpf(a)
        half = mp.mpf(1) / 2
        return (
            (m - half) * mp.log((1 + a) / (1 - a))
            + (k + half) * mp.log(2 * m - 1)
            + (k + half) * mp.log(2 * a / (1 - a * a))
            - far_offset_closed(k, cfg)
        )


def slit_height_from_error(error, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Invert L = 1/cosh(B): the slit height realized by a sgn error L."""
    with cfg.workprec():
        error = mp.mpf(error)
        if not 0 < error < 1:
            raise InvalidProblemError("error must lie in (0, 1)")
        return mp.acosh(1 / error)


def akhiezer_b_from_a(a):
    """b = (1+a^2)/(1-a^2), the pole offset matching interval gap a."""
    check_gap(a)
    a = mp.mpf(a)
    return (1 + a * a) / (1 - a * a)


def akhiezer_convert(s, a, shifted_error):
    """Two-interval error from a shifted-power error, exactly:

        E_{2l}(-2s, a) = (1+b)^s * E_l[(b+x)^(-s)],  b = (1+a^2)/(1-a^2).

    The substitution y = (b+x)/(b+1) maps [-1,1] onto [a^2,1], so this
    identity holds at every degree l, not just asymptotically, and s is
    checked by the builder's rule at degree 1.  A negative error is rejected.
    """
    b = akhiezer_b_from_a(a)
    build_akhiezer_problem(s, b, 1)
    shifted_error = mp.mpf(shifted_error)
    if shifted_error < 0:
        raise InvalidProblemError("the shifted error must be nonnegative")
    return (1 + b) ** mp.mpf(s) * shifted_error


def predict_akhiezer_error(s, b, l: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Predicted minimax error of (b+x)^(-s) on [-1,1] at degree l:

        (l^(s-1)/|Gamma(s)|) (b - sqrt(b^2-1))^l / (b^2-1)^((s+1)/2).

    At s = 1 this is Chebyshev's closed form, exact at every degree.
    """
    build_akhiezer_problem(s, b, l)
    with cfg.workprec():
        s = mp.mpf(s)
        b = mp.mpf(b)
        root = mp.sqrt(b * b - 1)
        # log_gamma, not mp.gamma: s may sit on a pole, which must raise
        # GammaPoleError rather than mpmath's plain ValueError.
        return (
            mp.mpf(l) ** (s - 1)
            / mp.exp(log_gamma(s, cfg).log_abs)
            * (b - root) ** l
            / root ** (s + 1)
        )


def monotone_tail(ratios) -> bool:
    """Whether |log ratio| is non-increasing over the second half of a
    sweep's ratios (the theory fixes the limit, not an approach rate, so
    only the tail is judged).  A ratio <= 0 counts as infinitely far from 1."""
    devs = [abs(mp.log(r)) if r > 0 else mp.inf for r in ratios]
    tail = devs[len(devs) // 2 :]
    return all(x >= y - mp.mpf(10) ** -30 for x, y in zip(tail, tail[1:]))


def _solve_one(args):
    family, params, m, bits = args
    return m, solve(build_problem(family, params, m), PrecisionConfig(mantissa_bits=bits)).error


def compare(
    family: ProblemKind,
    parameters: dict,
    degrees,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
    *,
    jobs: int = 1,
) -> list:
    """Sweep the solver over degrees and compare with the predictor: one
    row per degree, in increasing order, keyed m, E, predicted and ratio,
    plus height and predicted_height for SGN_LAURENT, each as the module
    docstring says.  The leading-order slit height may be <= 0 at small
    a*m, and then so is that row's ratio.

    parameters: {p, a} for POWER, {k, a} for SGN_LAURENT, {s, b} for
    AKHIEZER.  Each degree may appear once.  Solver runs are independent,
    so jobs > 1 distributes them over at most one process per degree.
    Solver errors propagate.
    """
    family = ProblemKind(family)
    degrees = check_degrees(degrees)
    if jobs < 1:
        raise InvalidProblemError("jobs must be a positive integer")
    # Largest degree first: on a pool the longest solve then starts first.
    tasks = [(family, parameters, m, cfg.mantissa_bits) for m in reversed(degrees)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial sweep does not need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = dict(pool.map(_solve_one, tasks))
    else:
        solved = dict(map(_solve_one, tasks))

    rows = []
    with cfg.workprec():
        for m in degrees:
            err = solved[m]
            if family is ProblemKind.SGN_LAURENT:
                height = slit_height_from_error(err, cfg)
                pred = predict_slit_height(parameters["k"], parameters["a"], m, cfg)
                predicted, ratio = 1 / mp.cosh(pred), height / pred
                heights = {"height": height, "predicted_height": pred}
            else:
                if family is ProblemKind.POWER:
                    predicted = predict_power_error(parameters["p"], parameters["a"], m, cfg)
                else:
                    predicted = predict_akhiezer_error(parameters["s"], parameters["b"], m, cfg)
                ratio, heights = err / predicted, {}
            rows.append({"m": m, "E": err, "predicted": predicted, "ratio": ratio, **heights})
    return rows
