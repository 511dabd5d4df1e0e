"""Phase continuation, curve identity, coefficient signs, limit profiles."""

import pytest
from mpmath import mp

from bernlab import curveverify
from bernlab.curveverify import (
    PhaseTrace,
    curve_residuals,
    profile_convergence,
    reconstruct_phase,
    sign_pattern_check,
)
from bernlab.errors import (
    BernlabError,
    BranchTrackingError,
    InvalidProblemError,
    PrecisionBudgetError,
)
from bernlab.precision import PrecisionConfig
from bernlab.remez import (
    ProblemKind,
    build_power_problem,
    build_sgn_problem,
    clenshaw,
    solve,
)


def _log_grid(lo, hi, count):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    return [lo * (hi / lo) ** (mp.mpf(i) / (count - 1)) for i in range(count)]


def _ten_candidate_phase(sol, problem, y_grid, cfg):
    """Reference continuation: ten preimages +/-acos(g) + 2 pi n per step,
    n within 2 of the previous winding, and bisection as the only step
    control.  Returns (u, v, windings)."""
    two_pi = 2 * mp.pi
    with cfg.workprec():
        ys = [mp.mpf(y) for y in y_grid]
        g = curveverify._phase_samples(sol, problem)
        base = mp.acos(g(ys[0]))
        first = base if mp.im(base) > 0 else -base
        if abs(mp.re(first)) > mp.pi / 2:
            raise BranchTrackingError("seed phase unexpectedly far from the u = 0 edge")
        windings = [0 if mp.im(base) > 0 else 1]
        prev_y, prev_phi = ys[0], first
        out_u, out_v = [mp.re(first)], [mp.im(first)]
        for y_target in ys[1:]:
            y = y_target
            pending = []
            refines = 0
            while True:
                base = mp.acos(g(y))
                center = int(mp.floor(mp.re(prev_phi) / two_pi + mp.mpf(1) / 2))
                cands = []
                for n in range(center - 2, center + 3):
                    cands.append((base + two_pi * n, 2 * n))
                    cands.append((-base + two_pi * n, 2 * n + 1))
                phi, code = min(cands, key=lambda c: abs(c[0] - prev_phi))
                if abs(phi - prev_phi) <= mp.mpf(1) / 2:
                    prev_y, prev_phi = y, phi
                    if not pending:
                        out_u.append(mp.re(phi))
                        out_v.append(mp.im(phi))
                        windings.append(code)
                        break
                    y = pending.pop()
                else:
                    refines += 1
                    if refines > curveverify._MAX_REFINE:
                        raise BranchTrackingError("phase continuation stalled")
                    pending.append(y)
                    y = mp.sqrt(prev_y * y)
        return tuple(out_u), tuple(out_v), tuple(windings)


@pytest.fixture(scope="module")
def traced(cfg192):
    problem = build_power_problem("1.5", "0.5", 8)
    with cfg192.workprec():
        sol = solve(problem, cfg192)
        ys = _log_grid("0.01", "3", 25)
        trace = reconstruct_phase(sol, problem, ys, cfg192)
    return problem, sol, trace


def test_trace_lives_in_the_half_strip(traced, cfg192):
    problem, _, trace = traced
    with cfg192.workprec():
        assert all(v > 0 for v in trace.v)
        top = (problem.m + 1) * mp.pi
        assert all(0 < u < top for u in trace.u)
        # Along the imaginary axis the phase climbs from the u = 0 edge and
        # levels off at pi.
        assert trace.u[0] < trace.u[-1]
        assert abs(trace.u[-1] - mp.pi) < mp.mpf("0.05")


def test_curve_identity_residuals_are_rounding_level(traced, cfg192):
    _, sol, trace = traced
    with cfg192.workprec():
        res = curve_residuals(trace, sol.error, "1.5", cfg192)
        assert max(abs(r) for r in res) < mp.mpf("1e-6")


def test_residuals_shrink_with_more_precision(traced, cfg256):
    # The identity holds exactly on the curve, so the residual must track
    # the arithmetic, not the problem: more bits, smaller residual.
    problem, sol192, trace192 = traced
    with mp.workprec(200):
        res192 = curve_residuals(trace192, sol192.error, "1.5")
        worst192 = max(abs(r) for r in res192)
    with cfg256.workprec():
        sol = solve(problem, cfg256)
        ys = _log_grid("0.01", "3", 25)
        trace = reconstruct_phase(sol, problem, ys, cfg256)
        res = curve_residuals(trace, sol.error, "1.5", cfg256)
        worst256 = max(abs(r) for r in res)
        assert worst256 < worst192 / mp.mpf(10) ** 6


def test_trace_is_grid_independent_on_shared_nodes(cfg256):
    problem = build_power_problem("1.5", "0.5", 8)
    with cfg256.workprec():
        sol = solve(problem, cfg256)
        coarse = reconstruct_phase(sol, problem, _log_grid("0.01", "3", 9), cfg256)
        fine = reconstruct_phase(sol, problem, _log_grid("0.01", "3", 17), cfg256)
        for i in range(9):
            assert abs(coarse.u[i] - fine.u[2 * i]) < mp.mpf("1e-30")
            assert abs(coarse.v[i] - fine.v[2 * i]) < mp.mpf("1e-30")


def test_seed_too_far_from_edge_is_refused(cfg256):
    problem = build_power_problem("1.5", "0.5", 8)
    with cfg256.workprec():
        sol = solve(problem, cfg256)
        with pytest.raises(BranchTrackingError):
            reconstruct_phase(sol, problem, [mp.mpf("2.4"), mp.mpf(3)], cfg256)


def _outcome(run):
    """(u, v, windings) of a continuation, or the type of the error it raised."""
    try:
        result = run()
    except BernlabError as exc:
        return type(exc)
    if isinstance(result, PhaseTrace):
        return result.u, result.v, result.branch_windings
    return result


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("p", ["1", "1.5", "3"])
def test_continuation_matches_the_ten_candidate_oracle(p, bits):
    # The two-candidate pick and the predicted stride give exactly the
    # values, windings and errors of the ten-candidate bisection-only
    # continuation on this file's grids.
    cfg = PrecisionConfig(mantissa_bits=bits)
    for m in (5, 8):
        problem = build_power_problem(p, "0.5", m)
        sol = solve(problem, cfg)
        with cfg.workprec():
            grids = [_log_grid("0.01", "3", n) for n in (25, 9, 17)]
            grids.append([mp.mpf("2.4"), mp.mpf(3)])
        for ys in grids:
            expected = _outcome(lambda: _ten_candidate_phase(sol, problem, ys, cfg))
            got = _outcome(lambda: reconstruct_phase(sol, problem, ys, cfg))
            assert got == expected, (p, bits, m, len(ys))


def test_benchmark_grid_takes_at_most_70_phase_evaluations(monkeypatch, cfg256):
    # verify-curve's default grid for p = 1.5, a = 0.5, m = 8: v climbs from
    # 12 to 33, which bisection alone covers in 119 evaluations.
    problem = build_power_problem("1.5", "0.5", 8)
    sol = solve(problem, cfg256)
    calls = []
    samples = curveverify._phase_samples

    def counted(sol, problem):
        g = samples(sol, problem)

        def g_counted(y):
            calls.append(y)
            return g(y)

        return g_counted

    monkeypatch.setattr(curveverify, "_phase_samples", counted)
    with cfg256.workprec():
        reconstruct_phase(sol, problem, _log_grid("0.05", "3", 25), cfg256)
    assert len(calls) <= 70


def test_coarse_grid_step_is_continued_not_stalled(cfg192):
    # Each step of this grid moves v by up to 17, more sub-steps than the
    # refinement budget allows bisection alone; the predicted stride covers
    # it and lands on the fine-grid oracle's values.
    problem = build_power_problem("0.5", "0.5", 8)
    sol = solve(problem, cfg192)
    with cfg192.workprec():
        fine = _log_grid("0.05", "5", 33)
        coarse = fine[::8]
        with pytest.raises(BranchTrackingError):
            _ten_candidate_phase(sol, problem, coarse, cfg192)
        trace = reconstruct_phase(sol, problem, coarse, cfg192)
    u, v, windings = _ten_candidate_phase(sol, problem, fine, cfg192)
    assert trace.u == u[::8]
    assert trace.v == v[::8]
    assert trace.branch_windings == windings[::8]


def test_phase_jump_stalls_the_continuation(monkeypatch, cfg128):
    # A synthetic arccos argument whose phase jumps by 2 in u at y = 1/2:
    # no preimage lies within 1/2 of the last point below the jump, so the
    # bisection runs out of refinements there.
    def jumping(sol, problem):
        def g(y):
            u = mp.mpf("0.1") if y < mp.mpf("0.5") else mp.mpf("2.1")
            return mp.cos(mp.mpc(u, 1 + y))

        return g

    monkeypatch.setattr(curveverify, "_phase_samples", jumping)
    with pytest.raises(BranchTrackingError, match="phase continuation stalled near y = 0.5"):
        reconstruct_phase(None, None, ["0.01", "1", "2"], cfg128)


def test_trace_validation():
    with pytest.raises(InvalidProblemError):
        PhaseTrace(y_grid=(2, 1), u=(0.1, 0.2), v=(1, 1), branch_windings=(0, 0))
    with pytest.raises(InvalidProblemError):
        PhaseTrace(y_grid=(1, 2), u=(0.1, 0.2), v=(1, -1), branch_windings=(0, 0))
    with pytest.raises(InvalidProblemError):
        PhaseTrace(y_grid=(1, 2), u=(0.1, 2.0), v=(1, 1), branch_windings=(0, 0))


def test_repeated_y_grid_rejected_by_trace_and_reconstruction(cfg128):
    message = "y_grid must be non-empty, positive and strictly increasing"
    with pytest.raises(InvalidProblemError, match=message):
        PhaseTrace(y_grid=(1, 1), u=(0.1, 0.2), v=(1, 1), branch_windings=(0, 0))
    with pytest.raises(InvalidProblemError, match=message):
        reconstruct_phase(None, None, ["1", "1"], cfg128)


def test_curve_equation_rejects_even_p(traced, cfg192):
    _, sol, trace = traced
    with pytest.raises(InvalidProblemError):
        curve_residuals(trace, sol.error, 2, cfg192)


def test_sign_pattern_counts(cfg256):
    # Coefficients of P(x) - x^p - tE ordered by exponent flip sign exactly
    # m+1 times, with endpoint signs set by floor(p/2) and parity.
    with cfg256.workprec():
        for m in (3, 5):
            problem = build_power_problem("1.5", "0.5", m)
            sol = solve(problem, cfg256)
            for t in [mp.mpf(j) / 6 - mp.mpf("0.833333") for j in range(11)]:
                report = sign_pattern_check(sol, problem, t, cfg256)
                assert report["sign_changes"] == m + 1
                assert report["passed"]


def test_sign_pattern_at_extreme_t(cfg256):
    with cfg256.workprec():
        problem = build_power_problem("1.5", "0.5", 3)
        sol = solve(problem, cfg256)
        edge = 1 - mp.mpf("1e-6")
        assert sign_pattern_check(sol, problem, edge, cfg256)["passed"]
        assert sign_pattern_check(sol, problem, -edge, cfg256)["passed"]
        with pytest.raises(InvalidProblemError):
            sign_pattern_check(sol, problem, 1, cfg256)


def test_sign_pattern_degree_cap(cfg256):
    problem = build_power_problem("1.5", "0.5", 17)
    with cfg256.workprec():
        sol = solve(problem, cfg256)
        with pytest.raises(PrecisionBudgetError):
            sign_pattern_check(sol, problem, 0, cfg256)


def test_sign_pattern_needs_power_family(cfg256):
    problem = build_sgn_problem(1, "0.5", 3)
    with cfg256.workprec():
        sol = solve(problem, cfg256)
        with pytest.raises(InvalidProblemError):
            sign_pattern_check(sol, problem, 0, cfg256)
        with pytest.raises(InvalidProblemError):
            reconstruct_phase(sol, problem, [mp.mpf("0.1")], cfg256)


@pytest.mark.parametrize("m", [1, 8, 16])
def test_monomial_coefficients_match_clenshaw(cfg256, m):
    # Horner on the monomial coefficients against the Chebyshev series
    # itself, at the interval's ends, its middle and outside it.
    problem = build_power_problem("1.5", "0.5", m)
    sol = solve(problem, cfg256)
    with cfg256.workprec(extra=cfg256.mantissa_bits):
        mono = curveverify._monomial_coefficients(sol.coeffs, sol.interval)
        a2 = mp.mpf("0.5") ** 2
        for y in (a2, (a2 + 1) / 2, mp.mpf(1), mp.mpf(2)):
            horner = mp.mpf(0)
            for c in reversed(list(mono)):
                horner = horner * y + c
            expected = clenshaw(sol.coeffs, sol.interval, y)
            assert abs(horner - expected) <= mp.mpf("1e-60") * abs(expected)


@pytest.mark.parametrize(
    "family,params",
    [
        (ProblemKind.POWER, {"p": 1, "a": "0.5"}),
        (ProblemKind.SGN_LAURENT, {"k": 1, "a": "0.5"}),
    ],
)
def test_profiles_converge_with_degree(cfg256, family, params):
    lams = ["0.25", "0.5", "1", "1.5", "2", "2.5", "3"]
    rows = profile_convergence(family, params, [4, 8], lams, cfg256)
    with cfg256.workprec():
        assert rows[0]["m"] == 4 and rows[1]["m"] == 8
        assert rows[1]["sup_distance"] < rows[0]["sup_distance"]


def test_profiles_reject_repeated_degrees(monkeypatch, cfg128):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the degrees were checked")

    monkeypatch.setattr(curveverify, "solve", no_solve)
    with pytest.raises(InvalidProblemError, match="degrees repeat"):
        profile_convergence(
            ProblemKind.POWER, {"p": "1.5", "a": "0.5"}, [4, 4], ["1"], cfg128
        )


def test_profiles_reject_akhiezer(cfg256):
    with pytest.raises(InvalidProblemError):
        profile_convergence(ProblemKind.AKHIEZER, {"s": 1, "b": 2}, [3], ["1"], cfg256)


def test_profiles_evaluate_each_lambda_once(monkeypatch, cfg128):
    # The limit profile does not depend on the degree, so a table over three
    # degrees evaluates it once per lambda, not once per (degree, lambda).
    calls = []
    profile = curveverify.power_limit_profile

    def counted(p, lam, cfg=None):
        calls.append(lam)
        return profile(p, lam, cfg)

    monkeypatch.setattr(curveverify, "power_limit_profile", counted)
    lams = ["0.25", "0.5", "1", "2", "3"]
    rows = profile_convergence(
        ProblemKind.POWER, {"p": "1.5", "a": "0.5"}, [2, 3, 4], lams, cfg128
    )
    assert [row["m"] for row in rows] == [2, 3, 4]
    assert len(calls) == len(lams)


def test_profiles_reject_bad_lambda_before_solving(monkeypatch, cfg128):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the lambda grid was checked")

    monkeypatch.setattr(curveverify, "solve", no_solve)
    with pytest.raises(InvalidProblemError, match="lambda must be positive"):
        profile_convergence(
            ProblemKind.SGN_LAURENT, {"k": 1, "a": "0.5"}, [2, 3, 4], ["1", "0", "2"], cfg128
        )
