"""Exchange solver: closed-form oracles, optimality certificates, invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (
    finf,
    fone,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_le,
    mpf_pow,
    mpf_shift,
    mpf_sign,
    mpf_sub,
    round_nearest,
)

from bernlab import conformal, remez
from bernlab.errors import InvalidProblemError, PrecisionBudgetError
from bernlab.precision import GUARD_BITS, PrecisionConfig
from bernlab.remez import (
    MinimaxProblem,
    ProblemKind,
    bracketed_root,
    build_akhiezer_problem,
    build_power_problem,
    build_problem,
    build_sgn_problem,
    chebyshev_derivative,
    clenshaw,
    eval_solution,
    reduced_deviation,
    solve,
)


def test_degree_one_shifted_reciprocal_closed_form(cfg256):
    # Best linear fit to (2+y)^-1 on [-1,1]: convexity pins the alternation
    # at {-1, y0, 1} and gives E = (2 - sqrt 3)/3 exactly.
    with cfg256.workprec():
        sol = solve(build_akhiezer_problem(1, 2, 1), cfg256)
        ref = (2 - mp.sqrt(3)) / 3
        assert abs(sol.error - ref) / ref < mp.mpf("1e-70")
        assert len(sol.alternation) == 3


def test_polynomial_target_is_represented_exactly(cfg256):
    # s = -1 makes the target the degree-1 polynomial 2+y, so the deviation
    # must collapse to zero rather than equioscillate.
    with cfg256.workprec():
        sol = solve(build_akhiezer_problem(-1, 2, 1), cfg256)
        assert sol.error == 0
        assert sol.levelling_ratio == 1
        assert len(sol.alternation) == 3


def test_lowest_sgn_case_closed_form(cfg256):
    # k = m = 1 keeps only the powers 1/x and x.  The problem is invariant
    # under x -> a/x, so the optimum is symmetric and reduces by hand to
    # E = ((1-sqrt(a))/(1+sqrt(a)))^2, which is 17 - 12 sqrt(2) at a = 1/2.
    with cfg256.workprec():
        sol = solve(build_sgn_problem(1, "0.5", 1), cfg256)
        ref = 17 - 12 * mp.sqrt(2)
        assert abs(sol.error - ref) / ref < mp.mpf("1e-70")


def _chebyshev_error(b, l):
    # Chebyshev's best degree-l approximation of 1/(b + y) on [-1, 1].
    return (b - mp.sqrt(b * b - 1)) ** l / (b * b - 1)


def _exact_error(kind, params, m):
    if kind == "power":
        # |x|^-2 is 1/y on [a^2, 1], which is (1 + b)/(b + t) on t in [-1, 1].
        a = mp.mpf(params["a"])
        b = (1 + a * a) / (1 - a * a)
        return (1 + b) * _chebyshev_error(b, m)
    if params["s"] == 1:
        return _chebyshev_error(mp.mpf(params["b"]), m)
    # (b + y)^(m+1) is monic of degree m + 1: the error of 2^-m T_(m+1).
    return mp.mpf(2) ** -m


EXACT_CASES = (
    [pytest.param("akhiezer", {"s": 1, "b": b}, l, id=f"s1-b{b}-l{l}")
     for b in ("2", "1.25", "5") for l in (1, 4, 13)]
    + [pytest.param("akhiezer", {"s": -(l + 1), "b": b}, l, id=f"monic-b{b}-l{l}")
       for l in (3, 10) for b in ("2", "1.25")]
    + [pytest.param("power", {"p": -2, "a": "0.5"}, 6, id="power-p-2-m6")]
)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("kind, params, m", EXACT_CASES)
def test_exact_error_lies_in_the_bracket(kind, params, m, bits):
    # Targets whose best error is known at every degree (Akhiezer, Lectures
    # on Approximation Theory): de la Vallee Poussin puts the exact E between
    # min|r| at the alternation points and the returned E, up to rounding.
    cfg = PrecisionConfig(mantissa_bits=bits)
    problem = build_problem(kind, params, m)
    sol = solve(problem, cfg)
    with cfg.workprec():
        exact = _exact_error(kind, params, m)
        ulps = exact * mp.mpf(2) ** (4 - bits)
        low = min(abs(reduced_deviation(sol, problem, y)) for y in sol.alternation)
        assert low - ulps <= exact <= sol.error + ulps


def test_equioscillation_certificate(solved_power, cfg256):
    problem, sol = solved_power[10]
    with cfg256.workprec():
        assert len(sol.alternation) == problem.degree + 2
        assert len(sol.signs) == len(sol.alternation)
        for i in range(len(sol.signs) - 1):
            assert sol.signs[i] * sol.signs[i + 1] == -1
        assert sol.levelling_ratio > 1 - mp.mpf("1e-15")
        lo, hi = problem.interval_mp()
        pts = sol.alternation
        assert lo <= pts[0] and pts[-1] <= hi
        assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))
        # The deviation at each certified point hits +-E with its sign.
        for y, s in zip(pts, sol.signs):
            dev = reduced_deviation(sol, problem, y)
            assert mp.sign(dev) == s
            assert abs(abs(dev) - sol.error) < sol.error * mp.mpf("1e-12")


def test_de_la_vallee_poussin_bracket(solved_sgn, cfg256):
    # Perturbing the coefficients leaves an alternating deviation whose
    # extreme magnitudes must bracket the optimal E from both sides.
    problem, sol = solved_sgn[10]
    with cfg256.workprec():
        bump = sol.error * mp.mpf("1e-4")
        coeffs = list(sol.coeffs)
        coeffs[0] += bump
        wobble = [
            problem.weight(y)
            * (problem.target(y) - clenshaw(coeffs, sol.interval, y))
            for y in sol.alternation
        ]
        for i in range(len(wobble) - 1):
            assert mp.sign(wobble[i]) * mp.sign(wobble[i + 1]) == -1
        lows = min(abs(v) for v in wobble)
        highs = max(abs(v) for v in wobble)
        assert lows <= sol.error <= highs
        assert highs > lows  # genuinely perturbed


# Reference E at 256 bits, computed with a golden-section extremum search
# seeded by a 12-point scan of each segment.
FROZEN_ERRORS = [
    pytest.param(
        "power", {"p": "1.5", "a": "0.5"}, 8,
        "3.1725192695977446764322373921359541056612498265461683573533e-7",
        id="power",
    ),
    pytest.param(
        "sgn_laurent", {"k": 3, "a": "0.3"}, 6,
        "1.2544153645166908947128229687470901540751998691911452809940e-5",
        id="sgn",
    ),
    pytest.param(
        "akhiezer", {"s": "2.5", "b": "1.2"}, 10,
        "0.33474317070397294746688244989157513020953996316546995680915",
        id="akhiezer",
    ),
]


@pytest.fixture(scope="module")
def frozen_solution(cfg256):
    """(problem, solution) of a FROZEN_ERRORS case, solved once per module."""
    cache = {}

    def get(kind, params, m):
        if kind not in cache:
            problem = build_problem(kind, params, m)
            cache[kind] = (problem, solve(problem, cfg256))
        return cache[kind]

    return get


@pytest.mark.parametrize("kind, params, m, frozen", FROZEN_ERRORS)
def test_no_extremum_is_missed(kind, params, m, frozen, cfg256, frozen_solution):
    # A missed extremum leaves the deviation above E somewhere, so a dense
    # Chebyshev grid must stay within E, and E must not move.
    problem, sol = frozen_solution(kind, params, m)
    with cfg256.workprec():
        lo, hi = problem.interval_mp()
        count = 20 * (problem.degree + 2)
        grid = [
            (lo + hi) / 2 - (hi - lo) / 2 * mp.cos(mp.pi * j / (count - 1))
            for j in range(count)
        ]
        dense = max(abs(reduced_deviation(sol, problem, y)) for y in grid)
        assert dense <= sol.error * (1 + mp.mpf("1e-15"))
        assert abs(sol.error / mp.mpf(frozen) - 1) < mp.mpf("1e-40")


@pytest.mark.parametrize("kind, params, m, frozen", FROZEN_ERRORS)
def test_slope_matches_numerical_derivative(kind, params, m, frozen, cfg256, frozen_solution):
    # The exchange's closed-form slope against a difference quotient of the
    # deviation taken at twice the bits, at 20 interior points.
    problem, sol = frozen_solution(kind, params, m)
    with cfg256.workprec():
        lo, hi = sol.interval
        dcoeffs = chebyshev_derivative(sol.coeffs, sol.interval)
        for j in range(20):
            y = lo + (hi - lo) * (j + mp.mpf("0.5")) / 20
            poly = clenshaw(sol.coeffs, sol.interval, y)._mpf_
            dpoly = clenshaw(dcoeffs, sol.interval, y)._mpf_
            slope = remez._deviation(problem, lambda _: poly, lambda _: dpoly)[3]
            got = mp.make_mpf(slope(y._mpf_))
            with mp.workprec(2 * cfg256.mantissa_bits):
                want = mp.diff(lambda u: reduced_deviation(sol, problem, u), y)
            assert abs(got - want) <= mp.mpf("1e-60") * abs(want)


@pytest.mark.parametrize("kind, params, m, frozen", FROZEN_ERRORS)
def test_twice_the_bits_lands_inside_the_bracket(kind, params, m, frozen, cfg256, frozen_solution):
    # De la Vallee Poussin: the optimal E lies between min|r| over the
    # alternation set and max|r| over the interval, which the alternation set
    # holds once no extremum is missed.  This holds whatever path the exchange
    # took; a 512-bit solve stands in for the optimum.
    problem, sol = frozen_solution(kind, params, m)
    finer = solve(problem, PrecisionConfig(mantissa_bits=512)).error
    with mp.workprec(2 * cfg256.mantissa_bits):
        levels = [abs(reduced_deviation(sol, problem, y)) for y in sol.alternation]
        assert min(levels) <= finer <= max(levels)


@pytest.mark.parametrize("m", [1, 8, 40])
@pytest.mark.parametrize(
    "kind, params",
    [("power", {"p": "1.5", "a": "0.5"}), ("sgn_laurent", {"k": 2, "a": "0.3"}),
     ("akhiezer", {"s": "2.5", "b": "1.2"})],
)
def test_levelling_matches_dense_solve(kind, params, m, cfg256):
    # Oracle: the (n+2)^2 Chebyshev-Vandermonde system P(y_i) + s_i h / w(y_i)
    # = f(y_i), solved by LU on a non-optimal reference (Chebyshev points).
    problem = build_problem(kind, params, m)
    with cfg256.workprec():
        lo, hi = problem.interval_mp()
        n = problem.degree
        ref = [(lo + hi) / 2 - (hi - lo) / 2 * mp.cospi(mp.mpf(i) / (n + 1)) for i in range(n + 2)]
        rows = []
        for i, y in enumerate(ref):
            t = (2 * y - (lo + hi)) / (hi - lo)
            rows.append([mp.chebyt(j, t) for j in range(n + 1)] + [(-1) ** i / problem.weight(y)])
        dense = mp.lu_solve(mp.matrix(rows), mp.matrix([problem.target(y) for y in ref]))
        coeffs, h, _ = remez._solve_levelling(problem, ref)
        assert abs(h - dense[n + 1]) <= mp.mpf("1e-60") * abs(dense[n + 1])
        scale = max(abs(dense[j]) for j in range(n + 1))
        assert len(coeffs) == n + 1
        assert max(abs(c - dense[j]) for j, c in enumerate(coeffs)) <= mp.mpf("1e-60") * scale


def _mpf_levelling(problem, ref):
    """The levelling of _solve_levelling in mpf arithmetic: barycentric
    weights by fprod, h as a ratio of fdots, samples at the Chebyshev extreme
    points by the barycentric formula without node (n+1)//2, and a DCT-I."""
    lo, hi = problem.interval_mp()
    n = problem.degree
    t = [(2 * y - (lo + hi)) / (hi - lo) for y in ref]
    lam = [1 / mp.fprod(ti - tj for j, tj in enumerate(t) if j != i) for i, ti in enumerate(t)]
    f = [problem.target(y) for y in ref]
    sigma_w = [(1 if i % 2 == 0 else -1) / problem.weight(y) for i, y in enumerate(ref)]
    h = mp.fdot(lam, f) / mp.fdot(lam, sigma_w)
    d = (n + 1) // 2
    nodes = [(ti, li * (ti - t[d]), fi - h * si)
             for i, (ti, li, fi, si) in enumerate(zip(t, lam, f, sigma_w)) if i != d]
    cos_table = [mp.cospi(mp.mpf(j) / n) for j in range(2 * n)]
    samples = []
    for x in cos_table[: n + 1]:
        hit = [v for ti, _, v in nodes if ti == x]
        if hit:
            samples.append(hit[0])
            continue
        q = [mu / (x - ti) for ti, mu, _ in nodes]
        samples.append(mp.fdot(q, [v for *_, v in nodes]) / mp.fsum(q))
    samples[0] /= 2
    samples[n] /= 2
    coeffs = [
        2 * mp.fdot(samples, [cos_table[j * k % (2 * n)] for k in range(n + 1)]) / n
        for j in range(n + 1)
    ]
    coeffs[0] /= 2
    coeffs[n] /= 2
    return coeffs, h


_LEVELLING_FAMILIES = [
    ("power", {"p": "1.5", "a": "0.5"}),
    ("sgn_laurent", {"k": 2, "a": "0.3"}),
    ("akhiezer", {"s": "2.5", "b": "1.2"}),
]


@pytest.fixture(scope="module")
def converged_reference(cfg256):
    """The alternation set of a 256-bit solve, once per (family, m)."""
    cache = {}

    def get(kind, params, m):
        if (kind, m) not in cache:
            cache[kind, m] = solve(build_problem(kind, params, m), cfg256).alternation
        return cache[kind, m]

    return get


@pytest.mark.parametrize("start", ["chebyshev", "converged"])
@pytest.mark.parametrize("bits", [96, 288])
@pytest.mark.parametrize("m", [1, 2, 8, 40])
@pytest.mark.parametrize("kind, params", _LEVELLING_FAMILIES)
def test_integer_levelling_matches_mpf_levelling(kind, params, m, bits, start, converged_reference):
    # The block floating point levelling runs at bits + 40 and the mpf oracle
    # at bits, so they differ by the oracle's own rounding: at most 20 ulps
    # of max|c| on these cases, checked against 64.  96 and 288 are the
    # reduced and the full precision of a 256-bit solve at m = 8.
    problem = build_problem(kind, params, m)
    with mp.workprec(bits):
        lo, hi = problem.interval_mp()
        n = problem.degree
        if start == "chebyshev":
            ref = [(lo + hi) / 2 - (hi - lo) / 2 * mp.cospi(mp.mpf(i) / (n + 1)) for i in range(n + 2)]
        else:
            ref = [+y for y in converged_reference(kind, params, m)]
        coeffs, h, _ = remez._solve_levelling(problem, ref)
        want, want_h = _mpf_levelling(problem, ref)
        bound = 64 * mp.ldexp(1, mp.mag(max(abs(c) for c in want)) - bits)
        assert len(coeffs) == n + 1
        assert abs(h - want_h) <= bound
        assert max(abs(c - w) for c, w in zip(coeffs, want)) <= bound


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("kind, params", _LEVELLING_FAMILIES)
def test_levelling_returns_the_targets_max(kind, params, m):
    # solve judges h against max|f(y_i)|.  The levelling takes it from its
    # own f values, which must be those of the mpf wrapper, bit for bit.
    problem = build_problem(kind, params, m)
    with mp.workprec(96):
        lo, hi = problem.interval_mp()
        ref = [(lo + hi) / 2 - (hi - lo) / 2 * mp.cospi(mp.mpf(i) / (m + 1)) for i in range(m + 2)]
        *_, f_max = remez._solve_levelling(problem, ref)
        assert f_max == max(abs(problem.target(y)) for y in ref)


def test_early_iterations_run_at_reduced_precision(monkeypatch, cfg256):
    # The precision ramp: the first exchange steps search for extrema below
    # the working precision, and the last two at the full working precision.
    precisions = []
    locate = remez._locate_extrema

    def recording_locate(*args):
        precisions.append(mp.prec)
        return locate(*args)

    monkeypatch.setattr(remez, "_locate_extrema", recording_locate)
    sol = solve(build_power_problem("1.5", "0.5", 8), cfg256)
    full = cfg256.mantissa_bits + GUARD_BITS
    assert len(precisions) == sol.iterations
    assert precisions[0] < full
    assert precisions[-2:] == [full, full]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=14),
    lo=st.floats(-3, 2),
    width=st.floats(0.01, 5),
    u=st.floats(0, 1),
)
def test_chebyshev_derivative_series(coeffs, lo, width, u, cfg128):
    with cfg128.workprec():
        interval = (mp.mpf(lo), mp.mpf(lo) + mp.mpf(width))
        cs = [mp.mpf(c) for c in coeffs]
        y = interval[0] + mp.mpf(width) * mp.mpf(u)
        got = clenshaw(chebyshev_derivative(cs, interval), interval, y)
        with mp.workprec(2 * cfg128.mantissa_bits):
            want = mp.diff(lambda v: clenshaw(cs, interval, v), y)
        scale = sum(abs(c) for c in cs) * len(cs) ** 2 / mp.mpf(width)
        assert abs(got - want) <= mp.mpf("1e-30") * (abs(want) + scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.floats(-1, 1), min_size=1, max_size=61),
    scale=st.integers(-200, 200),
    bits=st.sampled_from([64, 256, 1024]),
    lo=st.floats(-3, 2),
    width=st.floats(0.01, 5),
    u=st.floats(-1, 2),
)
def test_fixed_point_clenshaw_matches_clenshaw(coeffs, scale, bits, lo, width, u):
    # Degrees 0-60 and coefficients of size 2^-200 to 2^200; u outside [0, 1]
    # puts y off the interval, where |T_n(t)| grows to rho^n.
    with mp.workprec(bits):
        interval = (mp.mpf(lo), mp.mpf(lo) + mp.mpf(width))
        cs = [mp.ldexp(mp.mpf(c), scale) for c in coeffs]
        y = interval[0] + mp.mpf(width) * mp.mpf(u)
        evaluate = remez._fixed_point_clenshaw(cs, interval)
        got = mp.make_mpf(evaluate(y._mpf_))
        assert mp.make_mpf(evaluate(y._mpf_)) == got
        assert mp.make_mpf(remez._fixed_point_clenshaw(cs, interval)(y._mpf_)) == got
        with mp.workprec(2 * bits + 64):
            want = clenshaw(cs, interval, y)
            t = abs(2 * y - (interval[0] + interval[1])) / mp.mpf(width)
            rho = t + mp.sqrt(t * t - 1) if t > 1 else 1
            n = len(cs) - 1
            bound = mp.ldexp(1, -bits) * (n + 1) ** 2 * max(abs(c) for c in cs) * rho**n
            assert abs(got - want) <= bound


_POWER_INPUT = {
    "mantissa": st.integers(1, 2**1100),
    "exponent": st.integers(-300, 300),
    "prec": st.sampled_from([64, 113, 288, 1056]),
}


def _raw_y(mantissa, exponent):
    # mantissa * 2^(exponent - its bits), exact: y in [2^(exponent-1), 2^exponent).
    return from_man_exp(mantissa, exponent - mantissa.bit_length())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(numerator=st.integers(-12, 12).filter(bool), **_POWER_INPUT)
def test_quarter_powers_are_within_an_ulp(numerator, mantissa, exponent, prec):
    # y^(n/4) on integer square roots against mpf_pow 64 bits finer; y
    # carries up to 1100 bits, more than the root's width at the low precisions.
    y = _raw_y(mantissa, exponent)
    e = from_rational(numerator, 4, 10)
    got = remez._power_of(e, prec)(y)
    want = mpf_pow(y, e, prec + 64, round_nearest)
    assert got[3] <= prec
    error = mpf_abs(mpf_sub(got, want))
    assert mpf_le(error, mpf_shift(fone, got[2] + got[3] - prec))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(exponent_text=st.sampled_from(["0.65", "-1.3", "5.55"]), **_POWER_INPUT)
def test_other_powers_are_mpf_pow(exponent_text, mantissa, exponent, prec):
    y = _raw_y(mantissa, exponent)
    e = mp.mpf(exponent_text)._mpf_
    assert remez._power_of(e, prec)(y) == mpf_pow(y, e, prec, round_nearest)


@pytest.mark.parametrize("e", [from_rational(n, 4, 10) for n in range(-12, 13) if n]
                         + [mp.mpf(t)._mpf_ for t in ("0.65", "-1.3", "5.55")])
def test_power_at_zero(e):
    # 0 for a positive exponent, +inf for a negative one; mpf_pow gives the
    # same where it returns, and divides by zero for -1/2 and negative integers.
    got = remez._power_of(e, 256)(fzero)
    assert got == (finf if mpf_sign(e) < 0 else fzero)
    try:
        assert got == mpf_pow(fzero, e, 256, round_nearest)
    except ZeroDivisionError:
        assert mpf_sign(e) < 0


# Increasing functions with h(0) = 0, so h(s (y - r)) has its one root at r
# and its sign there is exact at any precision.
_MONOTONE = {"cubic": lambda u: u**3 + u, "expm1": mp.expm1, "atan": mp.atan, "sinh": mp.sinh}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(sorted(_MONOTONE)),
    root_exp=st.floats(-8, 3),
    negative=st.booleans(),
    left_exp=st.floats(-6, 1),
    right_exp=st.floats(-6, 1),
    scale_exp=st.floats(-2, 2),
    rising=st.booleans(),
    bits=st.sampled_from([64, 256, 1024]),
    tol_bits=st.one_of(st.none(), st.integers(1, 200)),
)
# A secant step shorter than xtol, taken as the stop, ends the first search
# 1.4 xtol from the root; in the second the regula falsi keeps to the flat end
# of e^(-10 y), and mpmath's findroot stopped at its 30-step cap 8e-3 away.
@example("atan", 0.0, False, 0.0, 1.0, 1.0, False, 64, 4)
@example("expm1", 0.0, False, 0.0, 0.0, 1.0, False, 64, None)
def test_bracketed_root_finds_known_roots(
    shape, root_exp, negative, left_exp, right_exp, scale_exp, rising, bits, tol_bits
):
    # Roots of size 1e-8 to 1e3 at both ends of brackets 1e-6 to 10 wide on
    # either side, slopes spread over four decades, and expm1, whose two ends
    # differ by up to e^1000.  With xtol the result must be within xtol of
    # the root, by default within 4 ulps; f never runs at or beyond an end.
    with mp.workprec(bits):
        root = mp.mpf(10**root_exp) * (-1 if negative else 1)
        lo = root - mp.mpf(10**left_exp)
        hi = root + mp.mpf(10**right_exp)
        scale = mp.mpf(10**scale_exp) * (1 if rising else -1)
        seen = []

        def f(y):
            seen.append(y)
            return _MONOTONE[shape](scale * (y - root))

        f_lo, f_hi = f(lo), f(hi)
        seen.clear()
        xtol = None
        if tol_bits is not None:
            xtol = mp.ldexp(hi - lo, -min(tol_bits, bits // 2))
        got = bracketed_root(f, lo, hi, f_lo, f_hi, xtol)
        assert all(lo < y < hi for y in seen)
        if xtol is None:
            assert abs(got - root) <= mp.ldexp(abs(root), 2 - bits)
        else:
            assert abs(got - root) <= xtol


def test_search_loop_runs_no_mpf_arithmetic(monkeypatch):
    # The search steps on ints; its only mpf operation per step is the
    # conversion of the point handed to f.
    def forbidden(*args, **kwargs):
        raise AssertionError("mpf arithmetic inside the search loop")

    with mp.workprec(256):
        root = mp.mpf("0.3")

        def f(y):
            return mp.atan(3 * (mp.make_mpf(y) - root))._mpf_

        lo, hi = mp.mpf(-1), mp.mpf(2)
        f_lo, f_hi = f(lo._mpf_), f(hi._mpf_)
        for name in ("mpf_add", "mpf_sub", "mpf_mul", "mpf_div"):
            monkeypatch.setattr(remez, name, forbidden)
        got = mp.make_mpf(remez._bracket_search(f, lo._mpf_, hi._mpf_, f_lo, f_hi, mp.zero._mpf_))
        assert abs(got - root) <= mp.ldexp(root, 2 - mp.prec)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize(
    "lo, hi, root",
    [
        ("0", "1", "0.3"),  # an end at exact 0
        ("-1", "0", "-1e-30"),  # a default-xtol root next to the 0 end
        ("1e-300", "1e10", "1e-5"),  # ends about 1030 binades apart
        ("-1", "1", "1e-30"),  # the larger end shrinks by 100 binades
    ],
)
def test_search_handles_awkward_brackets(bits, lo, hi, root):
    # The root is root * sqrt(2), which no point at mp.prec bits hits, so the
    # search ends on its bracket's width.  Every point handed to f fits in
    # mp.prec bits and lies strictly inside the bracket of the points f saw
    # before it, and the search ends within 4 ulps of the root.
    with mp.workprec(bits):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        with mp.workprec(4 * bits):
            root = mp.mpf(root) * mp.sqrt(2)
        seen = []

        def f(y):
            seen.append(y)
            with mp.workprec(4 * bits):
                value = mp.atan(y - root)
            return +value

        f_lo, f_hi = f(lo), f(hi)
        seen.clear()
        got = bracketed_root(f, lo, hi, f_lo, f_hi)
        assert seen
        left, right = lo, hi
        for y in seen:
            assert left < y < right and y._mpf_[3] <= bits
            left, right = (y, right) if y < root else (left, y)
        with mp.workprec(4 * bits):
            assert abs(got - root) <= mp.ldexp(abs(root), 2 - bits)


def test_odd_degree_akhiezer_solve_keeps_its_error():
    # Nine starting points put the middle Chebyshev point at 1.8e-87, not 0,
    # so the first step's searches next to it start on a grid about 290 bits
    # below 1.  E is that of the search on mpf arithmetic it replaced, to
    # within that solve's own gap (E - min|r|)/E at the stop.
    cfg = PrecisionConfig(mantissa_bits=256)
    sol = solve(build_akhiezer_problem("1.5", "2", 7), cfg)
    with cfg.workprec():
        before = mp.mpf("0.00008512286913355366837809450947299795039927819702047389181109618")
        gap = mp.mpf("2.8038e-30")
        assert sol.iterations == 5
        assert abs(sol.error - before) <= gap * before


# E of |x|^p on [-1, 1] (a = 0, which the builders reject) at m = 8 and 256
# bits, from the exchange on mpf_pow, where each solve's own gap
# (E - min|r|)/E at the stop was 1.7e-29, 1.3e-25 and 1.0e-35.
@pytest.mark.parametrize("p, before", [
    ("1.5", "0.0027755122996517503103451759870937"),
    ("0.5", "0.087088930422989881749353331530805"),
    ("3", "0.00014371222662892290423092577946456"),
])
def test_power_problem_at_zero_gap_solves(p, before, cfg256):
    problem = MinimaxProblem(kind=ProblemKind.POWER, p=p, a=0, m=8)
    sol = solve(problem, cfg256)
    with cfg256.workprec():
        assert sol.alternation[0] == 0
        assert all(s * t < 0 for s, t in zip(sol.signs, sol.signs[1:]))
        assert sol.levelling_ratio >= 1 - mp.mpf(10) ** (-(cfg256.decimal_digits / 4))
        assert abs(sol.error - mp.mpf(before)) <= mp.mpf("1e-24") * sol.error


@pytest.fixture
def recorded_searches(monkeypatch):
    """Route every root search, the exchange's and bracketed_root's, through
    a recorder of f's arguments; collects (f's name, lo, hi, points f was
    evaluated at) per search, as mpf."""
    searches = []
    search = remez._bracket_search

    def recording_search(f, lo, hi, f_lo, f_hi, xtol):
        seen = []

        def recorder(y):
            seen.append(mp.make_mpf(y))
            return f(y)

        searches.append((f.__name__, mp.make_mpf(lo), mp.make_mpf(hi), seen))
        return search(recorder, lo, hi, f_lo, f_hi, xtol)

    monkeypatch.setattr(remez, "_bracket_search", recording_search)
    return searches


def test_exchange_never_reevaluates_bracket_ends(recorded_searches, monkeypatch, cfg256):
    def no_diff(*args, **kwargs):
        raise AssertionError("the exchange must not difference the residual")

    monkeypatch.setattr(mp, "diff", no_diff)
    solve(build_power_problem("1.5", "0.5", 8), cfg256)
    assert {name for name, *_ in recorded_searches} == {"residual", "slope"}
    for _, lo, hi, seen in recorded_searches:
        assert seen
        assert lo not in seen and hi not in seen


_BUDGET_PROBLEMS = pytest.mark.parametrize(
    "kind, params",
    [
        (ProblemKind.POWER, {"p": "1.5", "a": "0.5"}),
        (ProblemKind.SGN_LAURENT, {"k": 1, "a": "0.5"}),
        (ProblemKind.AKHIEZER, {"s": "1.5", "b": "2"}),
    ],
)


def _evaluations_per_search(searches, name):
    counts = [len(seen) for f_name, *_, seen in searches if f_name == name]
    assert counts
    return sum(counts) / len(counts), max(counts)


@_BUDGET_PROBLEMS
def test_residual_root_searches_stay_within_evaluation_budget(recorded_searches, kind, params, cfg256):
    # A residual root only bounds a segment, so its search stops at 2^-24 of
    # the gap between its reference points: 6.0 evaluations on average and at
    # most 8 at m = 8, where searches to full precision take 8.1 and 11.
    solve(build_problem(kind, params, 8), cfg256)
    mean, most = _evaluations_per_search(recorded_searches, "residual")
    assert mean <= 7
    assert most <= 14


@_BUDGET_PROBLEMS
def test_extremum_searches_stay_within_evaluation_budget(recorded_searches, kind, params, cfg256):
    # An extremum is located to 2^-(prec/2 + 16) of its segment, as the
    # residual is stationary there: 8.6-9.0 evaluations on average and at
    # most 12 at m = 8.  A search that runs into the slope's noise floor, or
    # toward the step cap, takes far more.
    solve(build_problem(kind, params, 8), cfg256)
    mean, most = _evaluations_per_search(recorded_searches, "slope")
    assert mean <= 10
    assert most <= 14


def test_reduced_steps_search_extrema_no_longer_than_full_steps(monkeypatch, cfg256):
    # At the reduced steps of this solve (156 bits) the slope's noise floor,
    # about 2^-(prec - decay_bits) = 2^-80 of a segment, lies above
    # 2^-(prec/2 + 16), so without the cap the extremum searches chased
    # rounding: 9.38 evaluations on average there against 8.98 at 288 bits.
    counts = {}
    search = remez._bracket_search

    def counting_search(f, *args):
        seen = []

        def counter(y):
            seen.append(y)
            return f(y)

        root = search(counter, *args)
        if f.__name__ == "slope":
            counts.setdefault(mp.prec, []).append(len(seen))
        return root

    monkeypatch.setattr(remez, "_bracket_search", counting_search)
    solve(build_akhiezer_problem("1.5", "2", 40), cfg256)
    full = counts.pop(cfg256.mantissa_bits + GUARD_BITS)
    reduced = [count for per_prec in counts.values() for count in per_prec]
    assert reduced
    assert sum(reduced) / len(reduced) <= sum(full) / len(full)


def test_zero_search_never_reevaluates_bracket_ends(recorded_searches, monkeypatch, cfg256):
    # slit_map_zero's sign check evaluates each end once; the search never again.
    offsets = []
    slit_map = conformal.slit_map

    def counting_map(k, zeta, cfg=None):
        offsets.append(-zeta)
        return slit_map(k, zeta, cfg)

    monkeypatch.setattr(conformal, "slit_map", counting_map)
    conformal.slit_map_zero(1, cfg256)
    [(_, lo, hi, seen)] = recorded_searches
    assert seen
    assert lo not in seen and hi not in seen
    assert offsets.count(lo) == 1 and offsets.count(hi) == 1
    assert len(offsets) == 2 + len(seen)


def test_solve_parses_decimal_parameters_once(monkeypatch, cfg256):
    # Parsing p and a on every residual and slope evaluation would cost
    # about 1,560 decimal parses at this degree; once per solve costs 3
    # (a for the precision budget, then p and a inside the working precision).
    import mpmath.ctx_mp_python as ctx

    problem = build_power_problem("1.5", "0.5", 8)
    parses = []
    from_str = ctx.from_str

    def counting_from_str(*args, **kwargs):
        parses.append(args[0])
        return from_str(*args, **kwargs)

    monkeypatch.setattr(ctx, "from_str", counting_from_str)
    solve(problem, cfg256)
    assert len(parses) <= 3, f"{len(parses)} decimal parses in one solve"


def test_error_decreases_with_degree(cfg256):
    with cfg256.workprec():
        errors = [
            solve(build_sgn_problem(1, "0.5", m), cfg256).error for m in (2, 4, 6)
        ]
        assert errors[0] > errors[1] > errors[2] > 0


def test_error_decreases_as_gap_widens(cfg256):
    with cfg256.workprec():
        errors = [
            solve(build_sgn_problem(1, a, 4), cfg256).error
            for a in ("0.3", "0.5", "0.7")
        ]
        assert errors[0] > errors[1] > errors[2] > 0


def test_reference_rounded_to_each_steps_precision(cfg256):
    # mpmath 1.3.0's mpf_log returns about d, not -log 4, for y = (1 + d)/4
    # stored with more bits than its precision, and y^0.65 runs through it
    # (y^(3/4) did too before it moved to integer square roots).  A reference
    # point 2^-270 above a^2 = 1/4 carries 269 bits into the first, 96-bit,
    # step, where its target came out as 1, not 4^(-3/4), and the exchange
    # stopped with non-alternating extrema.
    for p in ("1.5", "1.3"):
        problem = build_power_problem(p, "0.5", 8)
        base = solve(problem, cfg256)
        with cfg256.workprec():
            start = list(base.alternation)
            start[0] = mp.mpf(1) / 4 + mp.ldexp(1, -270)
            sol = solve(problem, cfg256, initial_reference=start)
            assert abs(sol.error - base.error) / base.error < mp.mpf("1e-15")


def test_solution_independent_of_starting_reference(cfg256):
    with cfg256.workprec():
        problem = build_power_problem("1.5", "0.5", 6)
        base = solve(problem, cfg256)
        lo, hi = problem.interval_mp()
        count = problem.degree + 2
        uniform = [lo + (hi - lo) * (i + mp.mpf("0.5")) / count for i in range(count)]
        other = solve(problem, cfg256, initial_reference=uniform)
        assert abs(base.error - other.error) / base.error < mp.mpf("1e-15")
        for c1, c2 in zip(base.coeffs, other.coeffs):
            assert abs(c1 - c2) < base.error * mp.mpf("1e-10")


def test_eval_solution_parity(solved_power, solved_sgn, cfg256):
    with cfg256.workprec():
        problem, sol = solved_power[10]
        x = mp.mpf("0.73")
        assert eval_solution(sol, problem, x) == eval_solution(sol, problem, -x)
        problem, sol = solved_sgn[10]
        assert eval_solution(sol, problem, x) == -eval_solution(sol, problem, -x)
        # Odd approximant of sgn stays within [1-E, 1+E] on the band.
        err = abs(1 - eval_solution(sol, problem, x))
        assert err <= sol.error * (1 + mp.mpf("1e-12"))


def test_clenshaw_matches_chebyshev_basis(cfg256):
    with cfg256.workprec():
        coeffs = [mp.mpf("0.4"), mp.mpf("-1.25"), mp.mpf("0.3"), mp.mpf("2")]
        lo, hi = mp.mpf("0.25"), mp.mpf(1)
        for y in (mp.mpf("0.25"), mp.mpf("0.4"), mp.mpf("0.99")):
            t = (2 * y - lo - hi) / (hi - lo)
            direct = sum(c * mp.chebyt(i, t) for i, c in enumerate(coeffs))
            assert abs(clenshaw(coeffs, (lo, hi), y) - direct) < mp.mpf("1e-70")


def test_builder_validation():
    with pytest.raises(InvalidProblemError):
        build_power_problem(2, "0.5", 5)  # even-integer exponent
    with pytest.raises(InvalidProblemError):
        build_power_problem("1.5", "1.2", 5)
    with pytest.raises(InvalidProblemError):
        build_power_problem("1.5", "0.5", 0)
    with pytest.raises(InvalidProblemError):
        build_sgn_problem(0, "0.5", 5)
    with pytest.raises(InvalidProblemError):
        build_sgn_problem(1, "0", 5)
    with pytest.raises(InvalidProblemError):
        build_akhiezer_problem(1, 1, 5)
    with pytest.raises(InvalidProblemError):
        build_akhiezer_problem(0, 2, 5)
    with pytest.raises(InvalidProblemError):
        build_akhiezer_problem(1, 2, 0)


def test_insufficient_precision_is_refused(cfg128):
    # At a = 1/2 the deviation shrinks ~3x per degree; degree 60 needs far
    # more than 128 mantissa bits, and the solver must say so up front.
    with pytest.raises(PrecisionBudgetError):
        solve(build_sgn_problem(1, "0.5", 60), cfg128)


def test_bad_initial_reference_rejected(cfg256):
    problem = build_power_problem("1.5", "0.5", 4)
    with pytest.raises(InvalidProblemError):
        solve(problem, cfg256, initial_reference=[0.3, 0.5, 0.9])


@pytest.mark.parametrize(
    "reference",
    [
        ["0.3", "0.3", "0.5", "0.9"],
        # Distinct at 160 bits, one point once rounded to the first step's
        # 84 bits.
        ["0.25", "0.5", "0.5000000000000000000000000000000000000001", "0.9"],
    ],
)
def test_coinciding_initial_reference_rejected(reference, cfg128):
    problem = build_power_problem("1.5", "0.5", 2)
    with pytest.raises(InvalidProblemError, match="coincide"):
        solve(problem, cfg128, initial_reference=reference)


def test_degree_follows_the_family_parameters():
    assert build_power_problem("1.5", "0.5", 5).degree == 5
    assert build_sgn_problem(3, "0.5", 5).degree == 7
    assert build_akhiezer_problem("1.5", "2", 5).degree == 5
    with pytest.raises(TypeError):
        MinimaxProblem(kind=ProblemKind.POWER, p="1.5", a="0.5", m=5, degree=6)
