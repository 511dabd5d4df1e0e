"""Weighted Remez exchange on a single interval in a reduced variable.

Three problem families, all reduced to "best degree-n polynomial under a
positive smooth weight on [lo, hi]":

* power: even approximation of |x|^p on [-1,-a] u [a,1]; in y = x^2 the
  target is y^(p/2) with unit weight on [a^2, 1], degree m.
* sgn_laurent: odd Laurent approximation of sgn(x) with powers from
  -(2k-1) to 2m-1; in y = x^2 the deviation is (y^(k-1/2) - P(y)) *
  y^-(k-1/2), degree m+k-1 on [a^2, 1].
* akhiezer: 1/(b+x)^s on [-1, 1], degree l, unit weight.

The equioscillation reference starts at Chebyshev points and is exchanged
globally: the roots of the weighted deviation between reference points cut
the interval into segments, each segment's extremum is a root of the
deviation's derivative or a segment end, and these extrema replace the whole
reference.  The derivative is closed form: the target's and weight's slopes
are written out per family, and P' is the Chebyshev derivative series of P
(as in Pachon & Trefethen's barycentric Remez).

Both kinds of root come from bracketed_root, an Anderson-Bjoerck regula
falsi that reuses the values the caller already holds at the bracket's ends
and stops once its bracket is as narrow as the search needs.  A residual root
only bounds a segment, and a few correct bits keep the slope's sign right at
the segment's end, so it is found to 2^-24 of the gap between its reference
points.  An extremum is found to 2^-(prec/2 + 16) of its segment: the
residual is stationary there, so a location error d moves the extremum's
value, and the next levelling, by O(d^2) (Powell 1981, ch. 9).  At the
reduced-precision steps that tolerance is capped at the slope's noise floor,
about 2^-(prec - decay_bits) of the segment, below which a search only
chases rounding.

The search's loop runs on Python ints.  The bracket's ends are ints on one
binary grid 2^e, fine enough that both ends are exact and two bits finer
than the larger end's ulp; when that end shrinks toward a small root, a left
shift refines the grid.  f's values are signed mantissas aligned to a common
exponent, so the secant step is one exact integer division, and the
Anderson-Bjoerck scaling of the kept end's value an integer product cut to
about prec bits.  The one mpf operation per step rounds the new point to
prec bits for f; the rounded point is read back onto the grid, so the
bracket holds the point f saw.

The exchange step makes no mpf object per evaluation.  Each family's
target, weight, residual and slope are written once, on raw mpf tuples, by
_deviation, which converts the family's constants once per step;
MinimaxProblem.target and weight are mpf wrappers over it.  Its powers, y^(p/2)
and its slope's y^(p/2 - 1), y^+-(k - 1/2) and (b + y)^-s and ^-(s+1), come
from _power_of, also built once per step.  When 4 times the exponent is an
integer, the power is one or two integer square roots of y's mantissa,
inverted for a negative exponent and raised to that integer by mpf_pow_int;
any other exponent keeps mpf_pow, which runs through mpf_log and mpf_exp at
several times the cost.
The searches evaluate P and P' with a fixed-point Clenshaw kernel rather than
clenshaw, which stays for complex and off-interval points.  Once per exchange
step the coefficients become Python ints scaled by 2^F, F = W - mag(max|c|)
with W = working bits + guard; each evaluation runs the recurrence on ints
and rounds one raw result.

Levelling is barycentric and needs no linear solve.  The level h on a
reference is a ratio of two divided differences; P is then known at the
reference points, is carried to the Chebyshev extreme points by the
barycentric formula and turned into coefficients by a DCT-I, all in O(n^2).
It runs in block floating point on Python ints at the kernel's W bits: t
and the cosines as ints scaled by 2^W, each barycentric weight as a product
kept to a W-bit mantissa and an exponent and then put on one shared scale,
the samples by integer division, and the DCT-I as integer dots.  Its
absolute error is that of an mpf levelling at W bits, a few ulps of max|c|
at the working precision; the mpf levelling stays in the tests as the
oracle.

Precision ramps up within one solve.  The early exchange steps run at the
precision budget's own figure, max(mantissa_bits/4, decay_bits + 48) plus
guard bits; once the levelling ratio is within 10^-(digits/16) of 1, two
quadratic steps short of the stop, every step runs at the full working
precision, and the solve returns only after at least two such steps.  Each
step first rounds its reference to its own precision, as y^e on mpf_pow with
y stored at more bits than that can go wrong in mpmath 1.3.0 (see solve).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from mpmath import mp
from mpmath.libmp import (
    finf,
    fone,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos_pi,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    mpf_sign,
    mpf_sub,
    round_nearest,
    to_fixed,
)

from .errors import InvalidProblemError, NonConvergenceError, PrecisionBudgetError
from .precision import DEFAULT_CONFIG, GUARD_BITS, PrecisionConfig, check_gap, check_power_exponent

# Exchange steps allowed per solve.
_MAX_ITERATIONS = 60

# Guard bits of the fixed-point Clenshaw kernel.  The values it gives at the
# located extrema become E and the levelling ratio, so its error, which grows
# like n^2 ulps of max|c| through the recurrence (2^12 at degree 60), must sit
# below the rounding of the residual there; 40 bits leave room far beyond
# the degrees solved today.  The searches stop on a bracket width, not on
# |f|, so the kernel's noise does not set their length: with 8 guard bits a
# 256-bit solve at m = 8 or 40 takes the same evaluations per search.
_KERNEL_GUARD_BITS = 40

# Guard bits of _power_of's root, beyond the bits of the power's numerator.
_POWER_GUARD_BITS = 10

# Steps allowed per bracketed_root search; the exchange's searches take 4-14
# at degrees 6-40 and 64-1024 bits.
_MAX_ROOT_STEPS = 100

# The searches' tolerances: residual roots to 2^-24 of the gap between their
# reference points, extrema to 2^-(prec/2 + 16) of their segment.
_ROOT_TOL_BITS = 24
_EXTREMUM_TOL_BITS = 16

# Bits by which a reduced step's extremum tolerance stays coarser than the
# slope's noise floor, 2^-(prec - decay_bits) of the segment.
_NOISE_MARGIN_BITS = 8


class ProblemKind(enum.Enum):
    POWER = "power"
    SGN_LAURENT = "sgn_laurent"
    AKHIEZER = "akhiezer"


@dataclass(frozen=True)
class MinimaxProblem:
    """A weighted polynomial minimax problem in the reduced variable.

    Raw parameters are kept as given (numbers or decimal strings); solve
    converts them to mpf once, inside its working precision.
    """

    kind: ProblemKind
    p: object = None
    a: object = None
    k: int | None = None
    m: int | None = None
    s: object = None
    b: object = None

    @property
    def degree(self) -> int:
        """Degree of P: m + k - 1 for the sgn family, m for the others."""
        return self.m + self.k - 1 if self.kind is ProblemKind.SGN_LAURENT else self.m

    def interval_mp(self):
        if self.kind is ProblemKind.AKHIEZER:
            return mp.mpf(-1), mp.mpf(1)
        a = mp.mpf(self.a)
        return a * a, mp.mpf(1)

    def target(self, y):
        return mp.make_mpf(_deviation(self)[0](mp.mpf(y)._mpf_))

    def weight(self, y):
        return mp.make_mpf(_deviation(self)[1](mp.mpf(y)._mpf_))

    def decay_bits(self) -> float:
        """Rough size of -log2(E), used for the precision budget check."""
        if self.kind is ProblemKind.AKHIEZER:
            b = float(mp.mpf(self.b))
            return self.degree * math.log2(b + math.sqrt(b * b - 1.0))
        a = float(mp.mpf(self.a))
        bits = self.m * math.log2((1.0 + a) / (1.0 - a))
        if self.kind is ProblemKind.SGN_LAURENT:
            bits += (self.k + 0.5) * math.log2(max(2.0 * self.m - 1.0, 2.0))
        return bits


def build_power_problem(p, a, m: int) -> MinimaxProblem:
    """Best even approximation of |x|^p on [-1,-a] u [a,1], degree 2m.

    p may be negative (used by the Akhiezer change of variables) but not an
    even integer >= 0, where the target is already a polynomial.
    """
    check_gap(a)
    p_f = check_power_exponent(p)
    if not isinstance(m, int) or m < 1:
        raise InvalidProblemError("m must be a positive integer")
    if not 2 * m > p_f:
        raise InvalidProblemError("need 2m > p")
    return MinimaxProblem(kind=ProblemKind.POWER, p=p, a=a, m=m)


def build_sgn_problem(k: int, a, m: int) -> MinimaxProblem:
    """Best odd Laurent approximation of sgn(x) on [-1,-a] u [a,1].

    Powers run from -(2k-1) to 2m-1; the reduced problem has degree m+k-1.
    """
    check_gap(a)
    if not isinstance(k, int) or k < 1:
        raise InvalidProblemError("k must be a positive integer")
    if not isinstance(m, int) or m < 1:
        raise InvalidProblemError("m must be a positive integer")
    return MinimaxProblem(kind=ProblemKind.SGN_LAURENT, a=a, k=k, m=m)


def build_akhiezer_problem(s, b, degree: int) -> MinimaxProblem:
    """Best degree-l approximation of (b+x)^-s on [-1, 1], b > 1."""
    b_f = float(mp.mpf(b))
    s_f = float(mp.mpf(s))
    if not b_f > 1:
        raise InvalidProblemError("b must exceed 1")
    if s_f == 0:
        raise InvalidProblemError("s must be nonzero")
    if not isinstance(degree, int) or degree < 1:
        raise InvalidProblemError("degree must be a positive integer")
    return MinimaxProblem(kind=ProblemKind.AKHIEZER, s=s, b=b, m=degree)


def build_problem(kind, params: dict, m: int) -> MinimaxProblem:
    """The problem of a family at degree parameter m.

    params: {p, a} for POWER, {k, a} for SGN_LAURENT, {s, b} for AKHIEZER.
    """
    kind = ProblemKind(kind)
    if kind is ProblemKind.POWER:
        return build_power_problem(params["p"], params["a"], m)
    if kind is ProblemKind.SGN_LAURENT:
        return build_sgn_problem(params["k"], params["a"], m)
    return build_akhiezer_problem(params["s"], params["b"], m)


def _unit_weight(y):
    return fone


def _power_of(exponent, prec):
    """y -> y^exponent on raw mpf tuples, rounded at prec.

    When 4*exponent is an integer n/2^r with r = 0, 1 or 2, the mantissa of
    y, shifted to about 2^r (prec + guard) bits and an exponent that 2^r
    divides, goes through r integer square roots, and for n < 0 one integer
    division inverts the root at that width.  mpf_pow_int raises it to |n|
    in O(log |n|) multiplications rounded at prec + 4 log2 |n| bits and
    rounds the result at prec.  For r = 0 it is mpf_pow_int(y, n), mpf_pow's
    own integer path, bit for bit.  Every other exponent takes mpf_pow,
    which runs through mpf_log and mpf_exp.  y = 0
    gives 0 for a positive exponent and +inf for a negative one, as mpf_pow
    does where it returns; negative and infinite y take mpf_pow.
    """
    rnd = round_nearest
    sign, man, exp, _ = exponent
    if not man or exp < -2:
        return lambda y: mpf_pow(y, exponent, prec, rnd)
    roots = max(-exp, 0)
    n = man << max(exp, 0)
    wbits = prec + _POWER_GUARD_BITS + n.bit_length()
    at_zero = finf if sign else fzero
    if sign and not roots:
        n = -n

    def power(y):
        if y[0] or not y[1]:
            return at_zero if y == fzero else mpf_pow(y, exponent, prec, rnd)
        if roots:
            _, yman, yexp, ybc = y
            shift = (wbits << roots) - ybc
            shift += (yexp - shift) % (1 << roots)
            root, root_exp = _shift(yman, shift), (yexp - shift) >> roots
            for _ in range(roots):
                root = math.isqrt(root)
            if sign:
                # The root has about wbits bits, and so does its reciprocal.
                root, root_exp = (1 << 2 * wbits) // root, -2 * wbits - root_exp
            y = from_man_exp(root, root_exp)
        return mpf_pow_int(y, n, prec, rnd)

    return power


def _deviation(problem, poly=None, dpoly=None):
    """The family's formulas on raw mpf tuples, rounded at mp.prec:
    (target, weight, residual, slope), each a function of y, with
    residual(y) = w(y) (f(y) - P(y)) and slope(y) its derivative in y.

    poly and dpoly map y to P(y) and P'(y); residual reads P, slope reads P'
    and, for the sgn family only, P.  The family's constants are converted
    here, once.
    """
    prec, rnd = mp.prec, round_nearest
    if problem.kind is ProblemKind.SGN_LAURENT:
        rise_exp = from_man_exp(2 * problem.k - 1, -1)  # k - 1/2
        weight_exp = mpf_neg(rise_exp)
        target = _power_of(rise_exp, prec)
        weight = _power_of(weight_exp, prec)

        def residual(y):
            # weight * target is 1.
            return mpf_sub(fone, mpf_mul(weight(y), poly(y), prec, rnd), prec, rnd)

        def slope(y):
            # Only the weight's slope meets P.
            inner = mpf_add(mpf_div(mpf_mul(weight_exp, poly(y)), y, prec, rnd), dpoly(y), prec, rnd)
            return mpf_neg(mpf_mul(weight(y), inner, prec, rnd))

        return target, weight, residual, slope

    # f(y) = (shift + y)^exponent: y^(p/2) for POWER, (b + y)^(-s) for AKHIEZER.
    if problem.kind is ProblemKind.POWER:
        exponent, shift = mpf_shift(mp.mpf(problem.p)._mpf_, -1), None
    else:
        exponent, shift = mpf_neg(mp.mpf(problem.s)._mpf_), mp.mpf(problem.b)._mpf_
    target = _power_of(exponent, prec)
    fall = _power_of(mpf_sub(exponent, fone, prec, rnd), prec)
    if shift is not None:
        # Built here, so the unshifted powers run without a wrapper.
        def shifted(power):
            return lambda y: power(mpf_add(shift, y, prec, rnd))

        target, fall = shifted(target), shifted(fall)

    def residual(y):
        return mpf_sub(target(y), poly(y), prec, rnd)

    def slope(y):
        return mpf_sub(mpf_mul(exponent, fall(y), prec, rnd), dpoly(y), prec, rnd)

    return target, _unit_weight, residual, slope


@dataclass(frozen=True)
class MinimaxSolution:
    """Chebyshev-basis coefficients plus the equioscillation certificate."""

    coeffs: tuple
    error: object
    alternation: tuple
    signs: tuple
    iterations: int
    levelling_ratio: object
    interval: tuple

    def degree(self) -> int:
        return len(self.coeffs) - 1


def clenshaw(coeffs, interval, y):
    """Evaluate a Chebyshev series with the given interval mapping at y.

    y may be real or complex, inside or outside the interval.
    """
    lo, hi = interval
    t = (2 * y - (lo + hi)) / (hi - lo)
    b1 = b2 = 0
    two_t = 2 * t
    for c in reversed(coeffs[1:]):
        b1, b2 = two_t * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


def _fixed_point_clenshaw(coeffs, interval):
    """Evaluator of y -> clenshaw(coeffs, interval, y) for mpf coefficients
    and real y, on raw mpf tuples and integers.

    Block floating point: the coefficients become Python ints scaled by 2^F,
    F = W - mag(max|c|) with W = mp.prec + _KERNEL_GUARD_BITS, so the
    absolute error is that of the mpf recurrence for coefficients of any
    size; t is an int scaled by 2^W.  Each call maps the raw y to t once,
    runs the recurrence on ints and rounds the one raw result at the mp.prec
    the evaluator was made at.
    """
    lo, hi = interval
    prec = mp.prec
    wbits = prec + _KERNEL_GUARD_BITS
    top = max(abs(c) for c in coeffs)
    fbits = wbits - (mp.mag(top) if top else 0)
    fixed = [to_fixed(c._mpf_, fbits) for c in coeffs]
    head, tail = fixed[0], fixed[:0:-1]
    # t = alpha*y + beta maps the interval onto [-1, 1]; alpha and beta are
    # rounded at W bits, as alpha*y and beta may nearly cancel.
    with mp.workprec(wbits):
        alpha = to_fixed((2 / (hi - lo))._mpf_, wbits)
        beta = to_fixed((-(lo + hi) / (hi - lo))._mpf_, wbits)

    def evaluate(y):
        t = ((alpha * to_fixed(y, wbits)) >> wbits) + beta
        b1 = b2 = 0
        for c in tail:
            # (2t b1) >> W, as t b1 >> (W - 1).
            b1, b2 = ((t * b1) >> (wbits - 1)) - b2 + c, b1
        value = ((t * b1) >> wbits) - b2 + head
        return from_man_exp(value, -fbits, prec, round_nearest)

    return evaluate


def chebyshev_derivative(coeffs, interval):
    """Chebyshev coefficients of dP/dy for P = clenshaw(coeffs, interval, .).

    The backward recurrence d[j-1] = d[j+1] + 2j c[j] gives dP/dt; the map
    t = (2y - lo - hi)/(hi - lo) scales it by 2/(hi - lo).
    """
    lo, hi = interval
    n = len(coeffs) - 1
    d = [mp.mpf(0)] * (n + 2)
    for j in range(n, 0, -1):
        d[j - 1] = d[j + 1] + 2 * j * coeffs[j]
    d[0] /= 2
    scale = 2 / (hi - lo)
    return [scale * c for c in d[: max(n, 1)]]


def bracketed_root(f, lo, hi, f_lo, f_hi, xtol=None):
    """Root of f on [lo, hi], where f_lo = f(lo) and f_hi = f(hi) differ in sign.

    Anderson and Bjoerck's regula falsi (BIT 13, 1973), run at the caller's
    precision.  The bracket [a, b], with b the last iterate, holds the root;
    each step evaluates f at the secant point c and keeps the end where f
    changes sign.  When c lands on b's side, a's value is scaled by
    1 - f(c)/f(b), or by 1/2 if that is not positive, so a kept end cannot
    stall the iteration.

    The search stops on the bracket, not on |f|: it returns the secant point
    of the first bracket at most xtol wide, so the root is within xtol of it.
    To get there, c stays at least xtol/2 inside the bracket.  A shorter
    secant step from b is lengthened to xtol/2, where f changes sign once the
    secant is that close, which leaves a bracket xtol/2 wide.  A step not
    shorter than half the step before last becomes a bisection, so an f whose
    slope varies by orders of magnitude over the bracket cannot hold the
    search at one end.  xtol is never less than two ulps of the larger end,
    which is also its default.

    f runs at interior points only: f_lo and f_hi stand for the ends.  This
    is the mpf face of _bracket_search, which takes and returns raw mpf
    tuples, as the exchange's f does, and steps on Python ints (see the
    module docstring).
    """
    root = _bracket_search(
        lambda y: f(mp.make_mpf(y))._mpf_,
        lo._mpf_, hi._mpf_, f_lo._mpf_, f_hi._mpf_,
        fzero if xtol is None else xtol._mpf_,
    )
    return mp.make_mpf(root)


def _bracket_search(f, a, b, fa, fb, xtol):
    """bracketed_root on raw mpf tuples at mp.prec: f maps a raw y to a raw
    value, and xtol is raw, fzero for the default.

    Positions are ints on the grid 2^e, at least two bits finer than the
    larger end's ulp; values are (signed mantissa, exponent) pairs.
    """
    prec = mp.prec
    e = min((x[2] for x in (a, b) if x[1]), default=0)
    big_a, big_b = _on_grid(a, e), _on_grid(b, e)
    man_a, exp_a = _signed(fa)
    man_b, exp_b = _signed(fb)
    # As good as infinite: no step is as long as the first bracket.
    before_last = last = 2 * abs(big_a - big_b)  # lengths of the last two steps
    half_tol = _shift(xtol[1], xtol[2] - 1 - e)  # xtol/2 in grid units, floored
    for _ in range(_MAX_ROOT_STEPS):
        top = max(abs(big_a), abs(big_b)).bit_length()
        if top < prec + 2:
            refine = prec + 2 - top
            big_a, big_b, e = big_a << refine, big_b << refine, e - refine
            before_last, last, top = before_last << refine, last << refine, top + refine
            half_tol = _shift(xtol[1], xtol[2] - 1 - e)
        # Never less than an ulp of the larger end, at least 4 grid units, so
        # the rounding of c at prec never takes it onto an end.
        half = max(half_tol, 1 << (top - prec))
        gap = big_a - big_b
        low = min(exp_a, exp_b)
        num_a, num_b = man_a << (exp_a - low), man_b << (exp_b - low)
        step = (2 * num_b * gap // (num_b - num_a) + 1) >> 1  # to the nearest unit
        width = abs(gap)
        if width <= 2 * half:
            return from_man_exp(big_b + step, e, prec, round_nearest)
        inward = half if gap > 0 else -half
        size = abs(step)
        far = width - half  # a secant step past it stays off a
        if size < half:
            big_c, size = big_b + inward, half
        elif size > far:
            big_c, size = big_a - inward, far
        else:
            big_c = big_b + step
        if 2 * size >= before_last:
            size = width >> 1
            big_c = big_b + (gap >> 1)
        before_last, last = last, size
        # The one mpf operation of a step: c rounded at prec, then read back
        # onto the grid, so the bracket holds the point f saw.
        c = from_man_exp(big_c, e, prec, round_nearest)
        fc = f(c)
        if not fc[1]:
            return c
        big_c = _on_grid(c, e)
        man_c, exp_c = _signed(fc)
        if (man_c < 0) != (man_b < 0):
            big_a, man_a, exp_a = big_b, man_b, exp_b
        else:
            # fa * (fb - fc)/fb, to about prec bits, or fa/2 if not positive.
            low = min(exp_b, exp_c)
            num_b = man_b << (exp_b - low)
            rest = num_b - (man_c << (exp_c - low))
            if rest and (rest < 0) == (num_b < 0):
                scaled = man_a * rest
                shift = prec + num_b.bit_length() - scaled.bit_length()
                man_a, exp_a = _shift(scaled, shift) // num_b, exp_a - shift
            else:
                exp_a -= 1
        big_b, man_b, exp_b = big_c, man_c, exp_c
    return from_man_exp(big_b, e, prec, round_nearest)


def _on_grid(x, e):
    """The raw mpf x as an int position on the grid 2^e, exact for e at or
    below x's exponent."""
    man, exp = _signed(x)
    return _shift(man, exp - e)


def _signed(x):
    """The raw mpf x as (signed mantissa, exponent)."""
    return (-x[1] if x[0] else x[1]), x[2]


def _shift(x, bits):
    """x * 2^bits for an int x, floored."""
    return x << bits if bits >= 0 else x >> -bits


def _cos_table(n, wbits):
    """cos(pi k/n) for k = 0 .. 2n-1 as ints scaled by 2^wbits: the first
    quarter period computed, the rest by symmetry, so 0 and +-1 are exact."""
    quarter = [to_fixed(mpf_cos_pi(from_rational(k, n, wbits + 8), wbits, round_nearest), wbits)
               for k in range(n // 2 + 1)]
    table = []
    for k in range(2 * n):
        r = min(k, 2 * n - k)
        table.append(quarter[r] if 2 * r <= n else -quarter[n - r])
    return table


def _solve_levelling(problem, ref):
    """Chebyshev coefficients of P, the signed level h with
    w(y_i) (f(y_i) - P(y_i)) = (-1)^i h on the n + 2 reference points, and
    max|f(y_i)|, the scale against which the caller judges h.

    The (n+1)-th divided difference of P vanishes, so h is a ratio of two
    divided differences, with barycentric weights lam_i = 1/prod_j(t_i - t_j).
    P is then known at the reference points; its values at the Chebyshev
    extreme points cos(pi k/n) come from the barycentric formula through all
    reference points but one interior one, and a DCT-I turns them into
    coefficients.  O(n^2) throughout, in block floating point on ints at
    W = mp.prec + _KERNEL_GUARD_BITS bits (see the module docstring); only
    h and the coefficients are rounded, at mp.prec.
    """
    prec, rnd = mp.prec, round_nearest
    wbits = prec + _KERNEL_GUARD_BITS
    n = problem.degree
    lo, hi = (x._mpf_ for x in problem.interval_mp())
    target, weight, _, _ = _deviation(problem)
    ref = [y._mpf_ for y in ref]
    # t at W bits, exactly -1 and 1 at the interval's ends.
    mid, span = mpf_add(lo, hi), mpf_sub(hi, lo)
    t = [to_fixed(mpf_div(mpf_sub(mpf_shift(y, 1), mid), span, wbits, rnd), wbits) for y in ref]
    # lam_i as the product of its differences, kept to a W-bit mantissa with
    # exponent e, inverted to 2^(2W) // mantissa at exponent -e - 2W (the
    # differences' own 2^-W scales are common to all i), then on one scale.
    lam = []
    for i, ti in enumerate(t):
        man, exp = 1, 0
        for j, tj in enumerate(t):
            if j != i:
                man *= ti - tj
                extra = man.bit_length() - wbits
                if extra > 0:
                    man >>= extra
                    exp += extra
        lam.append(((1 << 2 * wbits) // man, -exp - 2 * wbits))
    top = max(m.bit_length() + e for m, e in lam)
    lam = [_shift(m, e - top + wbits) for m, e in lam]
    # f and the signed 1/w, each as ints on its own scale.
    f = [target(y) for y in ref]
    f_max = max(abs(mp.make_mpf(v)) for v in f)
    inv_w = [mpf_div(fone, weight(y), prec, rnd) for y in ref]
    fbits = wbits - max(v[2] + v[3] for v in f if v[1])
    wsbits = wbits - max(v[2] + v[3] for v in inv_w)
    f = [to_fixed(v, fbits) for v in f]
    sigma_w = [(-1) ** i * to_fixed(v, wsbits) for i, v in enumerate(inv_w)]
    # h = num/den 2^(wsbits - fbits), kept as H 2^-(shift + fbits - wsbits)
    # with H about W bits long.
    num = sum(li * fi for li, fi in zip(lam, f))
    den = sum(li * si for li, si in zip(lam, sigma_w))
    shift = wbits - num.bit_length() + den.bit_length()
    big_h = _shift(num, shift) // den
    h = from_man_exp(big_h, -(shift + fbits - wsbits), prec, rnd)
    # Dropping node d from the interpolation set multiplies lam_i by t_i - t_d;
    # the values f_i - h sigma_i / w_i are on f's scale.
    d = (n + 1) // 2
    nodes = [(ti, (li * (ti - t[d])) >> wbits, fi - _shift(big_h * si, -shift))
             for i, (ti, li, fi, si) in enumerate(zip(t, lam, f, sigma_w)) if i != d]
    table = _cos_table(n, wbits)
    samples = []
    for x in table[: n + 1]:
        hit = [v for ti, _, v in nodes if ti == x]
        if hit:
            samples.append(hit[0])
            continue
        q = [(mu << wbits) // (x - ti) for ti, mu, _ in nodes]
        samples.append(sum(qi * v for qi, (*_, v) in zip(q, nodes)) // sum(q))
    # DCT-I with the end samples halved, as twice the sum with the rest doubled.
    doubled = [s if k in (0, n) else 2 * s for k, s in enumerate(samples)]
    n_raw = from_int(n)
    coeffs = []
    for j in range(n + 1):
        dot = sum(s * table[j * k % (2 * n)] for k, s in enumerate(doubled))
        coeffs.append(mpf_div(from_man_exp(dot, -(fbits + wbits)), n_raw, prec, rnd))
    coeffs[0] = mpf_shift(coeffs[0], -1)
    coeffs[n] = mpf_shift(coeffs[n], -1)
    return [mp.make_mpf(c) for c in coeffs], mp.make_mpf(h), f_max


def _locate_extrema(problem, coeffs, ref, extremum_bits):
    """Roots of the residual between reference points, then one extremum
    per root-bounded segment, found to 2^-extremum_bits of the segment.

    Both searches are _bracket_search: on the residual for the roots, and on
    its closed-form slope for an extremum inside a segment whose slope
    changes sign.  A segment whose slope keeps one sign peaks at an end.
    Everything between the mpf reference in and the mpf extrema out runs on
    raw tuples.
    """
    prec, rnd = mp.prec, round_nearest
    interval = problem.interval_mp()
    _, _, residual, slope = _deviation(
        problem,
        _fixed_point_clenshaw(coeffs, interval),
        _fixed_point_clenshaw(chebyshev_derivative(coeffs, interval), interval),
    )
    ref = [y._mpf_ for y in ref]
    r_ref = [residual(y) for y in ref]
    roots = []
    for i in range(len(ref) - 1):
        if r_ref[i] == fzero:
            roots.append(ref[i])
            continue
        if mpf_sign(r_ref[i]) == mpf_sign(r_ref[i + 1]):
            # Levelling degenerated; let the caller diagnose it.
            raise NonConvergenceError(
                "residual does not alternate on the reference",
                diagnostics={
                    "reference": [mp.make_mpf(y) for y in ref],
                    "values": [mp.make_mpf(v) for v in r_ref],
                },
            )
        roots.append(_bracket_search(
            residual, ref[i], ref[i + 1], r_ref[i], r_ref[i + 1],
            mpf_shift(mpf_sub(ref[i + 1], ref[i], prec, rnd), -_ROOT_TOL_BITS),
        ))

    bounds = [interval[0]._mpf_] + roots + [interval[1]._mpf_]
    slopes = [slope(y) for y in bounds]
    points = []
    values = []
    for i in range(len(bounds) - 1):
        a, b = bounds[i], bounds[i + 1]
        if mpf_sign(slopes[i]) * mpf_sign(slopes[i + 1]) < 0:
            x = _bracket_search(
                slope, a, b, slopes[i], slopes[i + 1],
                mpf_shift(mpf_sub(b, a, prec, rnd), -extremum_bits),
            )
            v = residual(x)
        else:
            x, v = a, residual(a)
            v_b = residual(b)
            if mpf_gt(mpf_abs(v_b), mpf_abs(v)):
                x, v = b, v_b
        points.append(mp.make_mpf(x))
        values.append(mp.make_mpf(v))
    return points, values


def solve(
    problem: MinimaxProblem,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
    *,
    initial_reference=None,
) -> MinimaxSolution:
    """Run the exchange until the deviation levels to the stopping ratio.

    Stops when min|r|/max|r| over the located extrema reaches
    1 - 10^-(digits/4) after at least two steps at full precision (the
    steps before run at reduced precision, see the module docstring);
    raises NonConvergenceError on stagnation and PrecisionBudgetError when
    the expected E would drown in roundoff.
    """
    decay = problem.decay_bits()
    needed = decay + 48
    if cfg.mantissa_bits < needed:
        raise PrecisionBudgetError(
            f"predicted deviation needs about {needed:.0f} mantissa bits, "
            f"configured {cfg.mantissa_bits}"
        )
    with cfg.workprec():
        # Parse decimal parameters once, not on every residual evaluation.
        problem = replace(
            problem,
            **{
                name: mp.mpf(getattr(problem, name))
                for name in ("p", "a", "s", "b")
                if getattr(problem, name) is not None
            },
        )
        lo, hi = problem.interval_mp()
        n = problem.degree
        count = n + 2
        bits = max(cfg.mantissa_bits // 4, math.ceil(needed))
        if initial_reference is None:
            ref = [
                (lo + hi) / 2 - (hi - lo) / 2 * mp.cos(mp.pi * i / (count - 1))
                for i in range(count)
            ]
        else:
            ref = sorted(mp.mpf(y) for y in initial_reference)
            if len(ref) != count or ref[0] < lo or ref[-1] > hi:
                raise InvalidProblemError(
                    f"initial reference must be {count} points inside the interval"
                )
            with mp.workprec(bits + GUARD_BITS):
                # Points that merge in the first step's rounding leave the
                # levelling singular.
                if any(+x == +y for x, y in zip(ref, ref[1:])):
                    raise InvalidProblemError(
                        f"initial reference points coincide at {mp.prec} bits"
                    )
        stop_ratio = 1 - mp.mpf(10) ** (-(cfg.decimal_digits / 4))
        # Two quadratic steps short of the stop: from here on, full precision.
        ramp_ratio = 1 - mp.mpf(10) ** (-(cfg.decimal_digits / 16))
        full_steps = 0
        best_ratio, best_bits = -1, bits
        stale = 0
        for iteration in range(1, _MAX_ITERATIONS + 1):
            full = bits == cfg.mantissa_bits
            with mp.workprec(bits + GUARD_BITS):
                # mpmath 1.3.0's mpf_log, which y^e runs through when 4e is
                # not an integer (see _power_of), returns about d rather
                # than -log 4 for y = (1 + d)/4 stored with more bits than
                # the precision; a reference point from the caller or the
                # Chebyshev start has them.
                ref = [+y for y in ref]
                coeffs, e_signed, scale = _solve_levelling(problem, ref)
                if abs(e_signed) <= mp.mpf(2) ** (16 - mp.prec) * scale:
                    # Target already in the approximation space; its
                    # coefficients come from a full-precision levelling.
                    if not full:
                        bits = cfg.mantissa_bits
                        continue
                    return MinimaxSolution(
                        coeffs=tuple(coeffs),
                        error=mp.mpf(0),
                        alternation=tuple(ref),
                        signs=tuple(1 if i % 2 == 0 else -1 for i in range(count)),
                        iterations=iteration,
                        levelling_ratio=mp.mpf(1),
                        interval=(lo, hi),
                    )
                extremum_bits = mp.prec // 2 + _EXTREMUM_TOL_BITS
                if not full:
                    extremum_bits = min(
                        extremum_bits, mp.prec - math.ceil(decay) - _NOISE_MARGIN_BITS
                    )
                points, values = _locate_extrema(problem, coeffs, ref, extremum_bits)
            abs_vals = [abs(v) for v in values]
            ratio = min(abs_vals) / max(abs_vals)
            signs = [mp.sign(v) for v in values]
            for i in range(len(signs) - 1):
                if signs[i] * signs[i + 1] >= 0:
                    raise NonConvergenceError(
                        "exchange produced non-alternating extrema",
                        diagnostics={"points": points, "values": values},
                    )
            ref = points
            full_steps += full
            if full_steps >= 2 and ratio >= stop_ratio:
                return MinimaxSolution(
                    coeffs=tuple(coeffs),
                    error=max(abs_vals),
                    alternation=tuple(points),
                    signs=tuple(int(s) for s in signs),
                    iterations=iteration,
                    levelling_ratio=ratio,
                    interval=(lo, hi),
                )
            if ratio <= best_ratio * (1 + mp.mpf(10) ** (-4)):
                stale += 1
                if stale >= 8:
                    raise NonConvergenceError(
                        "levelling ratio stagnated",
                        diagnostics={**_ratio_diagnostics(ratio, bits), "iteration": iteration},
                    )
            else:
                stale = 0
            if ratio > best_ratio:
                best_ratio, best_bits = ratio, bits
            if ratio >= ramp_ratio:
                bits = cfg.mantissa_bits
        raise NonConvergenceError(
            "exchange did not level within the iteration budget",
            diagnostics={
                **_ratio_diagnostics(best_ratio, best_bits),
                "iterations": _MAX_ITERATIONS,
            },
        )


def _ratio_diagnostics(ratio, bits):
    """A levelling ratio rendered to the decimal digits of the bits of the
    exchange step that produced it, and those bits."""
    return {"ratio": mp.nstr(ratio, max(1, int(bits * math.log10(2)))), "bits": bits}


def eval_solution(sol: MinimaxSolution, problem: MinimaxProblem, x):
    """Approximant in the original variable: P(x^2), P(x^2)/x^(2k-1), or P(x).

    x may be real or complex (the power families are evaluated through
    y = x^2, so the polynomial part is entire).
    """
    y = x * x if problem.kind is not ProblemKind.AKHIEZER else x
    val = clenshaw(sol.coeffs, sol.interval, y)
    if problem.kind is ProblemKind.SGN_LAURENT:
        return val / x ** (2 * problem.k - 1)
    return val


def reduced_deviation(sol: MinimaxSolution, problem: MinimaxProblem, y):
    """Weighted deviation w(y) * (f(y) - P(y)) in the reduced variable."""
    return problem.weight(y) * (problem.target(y) - clenshaw(sol.coeffs, sol.interval, y))
