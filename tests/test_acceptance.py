"""End-to-end acceptance gate: every shipped guarantee, one line each.

Each test measures its quantity, records a single [PASS]/[FAIL] line
(re-printed after the run by the terminal-summary hook in conftest.py),
and then asserts.  A red criterion therefore still leaves its measured
numbers in the report instead of dying silently inside an assert.

Reference values used here are frozen decimal strings; they were
computed once at 400 bits with an independent high-precision evaluator
and are converted to mpf only inside a workprec block.
"""

import numpy as np
from mpmath import mp
from scipy.optimize import minimize

from bernlab import conformal
from bernlab.asymptotics import (
    akhiezer_b_from_a,
    akhiezer_convert,
    predict_power_error,
    predict_slit_height,
    slit_height_from_error,
)
from bernlab.conjecture import refinement_ratio, solve_phase_equation
from bernlab.curveverify import (
    curve_residuals,
    profile_convergence,
    reconstruct_phase,
    sign_pattern_check,
)
from bernlab.remez import (
    ProblemKind,
    build_akhiezer_problem,
    build_power_problem,
    build_sgn_problem,
    solve,
)
from bernlab.specialfn.cauchy import cauchy_boundary, gamma_cauchy_boundary
from bernlab.specialfn.gamma import gamma_value, log_gamma
from bernlab.specialfn.hilbert import hilbert_grid
from bernlab.specialfn.quadrature import DensitySpec, gamma_density, integrate_halfline

LOG_SQRT_PI = "0.572364942924700087071713675676529355823647406457655785756812"
LOG_GAMMA_3_2 = "-0.1207822376352452223455184457816472122518527279025995"
LOG_2SQRT_PI = "1.26551212348464539648894579713470592389914754081791103987749"
GAMMA_3_2 = "0.886226925452758013649083741670572591398774728061193564106904"
INV_SQRT_PI = "0.564189583547756286948079451560772585844050629329"

CRITERION_LINES: list[str] = []


def _record(num: int, text: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    if detail:
        line += f"  ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _log_points(lo, hi, count):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    return [lo * (hi / lo) ** (mp.mpf(i) / (count - 1)) for i in range(count)]


def test_criterion_1_special_function_oracles(cfg256):
    cases = [
        ("0.5", LOG_SQRT_PI, 1),
        ("1", "0", 1),
        ("1.5", LOG_GAMMA_3_2, 1),
        ("-0.5", LOG_2SQRT_PI, -1),
    ]
    with cfg256.workprec():
        worst = mp.mpf(0)
        signs_ok = True
        for x, ref, sign in cases:
            got = log_gamma(mp.mpf(x), cfg256)
            ref_v = mp.mpf(ref)
            # log Gamma(1) = 0 exactly, so that point is judged absolutely
            err = abs(got.log_abs - ref_v) / (abs(ref_v) if ref_v else 1)
            worst = max(worst, err)
            signs_ok = signs_ok and got.sign == sign
        quad = integrate_halfline(gamma_density(mp.mpf("0.5")), cfg256)
        qerr = abs(quad - mp.mpf(GAMMA_3_2)) / mp.mpf(GAMMA_3_2)
        ok = signs_ok and worst < mp.mpf("1e-20") and qerr < mp.mpf("1e-20")
        detail = (
            f"worst log-gamma rel err {mp.nstr(worst, 3)}, "
            f"half-line quadrature rel err {mp.nstr(qerr, 3)}"
        )
    _record(
        1,
        "log-gamma values and signs at four reference points, and the "
        "half-line quadrature of t^(1/2) e^(-t), match frozen oracles to 1e-20",
        ok,
        detail,
    )


def test_criterion_2_boundary_identity(cfg256):
    # Im of the quadrature transform is the density; its principal value is
    # checked against the DLMF 8.6 closed form that the maps themselves use,
    # relative to |closed form| (never 0, since Im is the density).
    with cfg256.workprec():
        xis = _log_points("0.1", "10", 9)
        worst = worst_pv = mp.mpf(0)
        densities = [(mp.mpf(2 * k - 1) / 2, conformal.tooth_density(k), 1) for k in (1, 2)]
        for p_str in ("1", "1.5"):
            p = mp.mpf(p_str)
            consts = conformal.limit_constants(p, cfg256, check=False)
            scale = consts.boundary_scale / abs(mp.sinpi(p / 2))
            densities.append((p / 2, conformal.limit_density(p, cfg256), scale))
        for half, dens, scale in densities:
            for xi in xis:
                cau = cauchy_boundary(dens, xi, cfg256)
                worst = max(
                    worst, abs(scale * mp.exp(xi) * xi ** (-half) * mp.im(cau) - 1)
                )
                closed = gamma_cauchy_boundary(half, xi, cfg256) / scale
                worst_pv = max(worst_pv, abs(mp.re(cau) - mp.re(closed)) / abs(closed))
        ok = worst < mp.mpf("1e-8") and worst_pv < mp.mpf("1e-35")
        detail = (
            f"max |residual| = {mp.nstr(worst, 3)}, max principal-value "
            f"residual = {mp.nstr(worst_pv, 3)} over 9 points, 4 densities"
        )
    _record(
        2,
        "upper-edge values of the Cauchy transform reproduce the density "
        "(slit maps k = 1, 2 and limit maps p = 1, 1.5) on xi in [0.1, 10] "
        "with residual < 1e-8, and their principal values match the "
        "incomplete-gamma closed form to < 1e-35",
        ok,
        detail,
    )


def test_criterion_3_far_offset_three_routes(cfg192):
    with cfg192.workprec():
        worst = mp.mpf(0)
        spreads = []
        for k in (1, 2, 3):
            closed = conformal.far_offset_closed(k, cfg192)
            fitted = conformal.far_offset_far_field(k, cfg192)
            direct = conformal.far_offset_integral(k, cfg192)
            spread = max(
                abs(closed - fitted), abs(closed - direct), abs(fitted - direct)
            )
            spreads.append(spread)
            worst = max(worst, spread)
        ok = worst < mp.mpf("1e-6")
        detail = "spreads " + ", ".join(
            f"k={k}: {mp.nstr(s, 3)}" for k, s in zip((1, 2, 3), spreads)
        )
    _record(
        3,
        "far-field offset constant agrees across closed form, asymptotic "
        "fit, and direct integral for k = 1, 2, 3 (pairwise < 1e-6)",
        ok,
        detail,
    )


def test_criterion_4_limit_map_normalization(cfg256):
    with cfg256.workprec():
        worst_mass = mp.mpf(0)
        worst_prod = mp.mpf(0)
        for p_str in ("0.5", "1", "1.5", "3"):
            p = mp.mpf(p_str)
            consts = conformal.limit_constants(p, cfg256, check=False)
            dens = conformal.limit_density(p, cfg256)
            mass = (
                integrate_halfline(
                    DensitySpec(float(p / 2) - 1, lambda t: dens(t) / t), cfg256
                )
                / mp.pi
            )
            worst_mass = max(worst_mass, abs(mass - 1))
            prod = (
                mp.exp(consts.expansion_constant)
                * consts.boundary_scale
                * abs(gamma_value(-p / 2, cfg256))
            )
            worst_prod = max(worst_prod, abs(prod - 1))
        ok = worst_mass < mp.mpf("1e-10") and worst_prod < mp.mpf("1e-12")
        detail = (
            f"max |mass - 1| = {mp.nstr(worst_mass, 3)}, "
            f"max |exp(c) * Lambda * |Gamma(-p/2)| - 1| = {mp.nstr(worst_prod, 3)}"
        )
    _record(
        4,
        "limit-map density has unit mass (< 1e-10) and the constants "
        "satisfy exp(c) * Lambda * |Gamma(-p/2)| = 1 within 1e-12 "
        "for p in {0.5, 1, 1.5, 3}",
        ok,
        detail,
    )


def test_criterion_5_minimax_against_brute_force(cfg192):
    sol = solve(build_sgn_problem(1, "0.5", 1), cfg192)

    # Independent route: dense-grid Chebyshev problem for c/x + d x on
    # [0.5, 1] in float64, solved by direct simplex search.
    xs = np.linspace(0.5, 1.0, 20001)

    def sup_deviation(cd):
        return float(np.max(np.abs(1.0 - cd[0] / xs - cd[1] * xs)))

    fit = minimize(
        sup_deviation,
        x0=[0.5, 0.5],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    exact = solve(build_akhiezer_problem(-1, 2, 1), cfg192)
    with cfg192.workprec():
        rel = abs(mp.mpf(fit.fun) / sol.error - 1)
        ok = fit.success and rel < mp.mpf("1e-6") and exact.error == 0
        detail = (
            f"brute-force vs exchange rel gap {mp.nstr(rel, 3)}; "
            f"exactly representable input returned E = {mp.nstr(exact.error, 3)}"
        )
    _record(
        5,
        "lowest sgn-family minimax error matches an independent "
        "brute-force grid search within 1e-6, and an exactly "
        "representable target yields error 0",
        ok,
        detail,
    )


def _max_curve_residual(p_str, cfg):
    problem = build_power_problem(p_str, "0.5", 8)
    sol = solve(problem, cfg)
    with cfg.workprec():
        ys = _log_points("0.01", "3", 25)
    trace = reconstruct_phase(sol, problem, ys, cfg)
    res = curve_residuals(trace, sol.error, p_str, cfg)
    with cfg.workprec():
        return max(abs(r) for r in res)


def test_criterion_6_phase_curve_residuals(cfg128, cfg256):
    worst_15 = _max_curve_residual("1.5", cfg256)
    worst_1 = _max_curve_residual("1", cfg256)
    coarse = _max_curve_residual("1.5", cfg128)
    with cfg256.workprec():
        ok = (
            worst_15 < mp.mpf("1e-6")
            and worst_1 < mp.mpf("1e-6")
            and worst_15 < coarse
        )
        detail = (
            f"max residual p=1.5: {mp.nstr(worst_15, 3)}, p=1: {mp.nstr(worst_1, 3)}; "
            f"128-bit run gives {mp.nstr(coarse, 3)}"
        )
    _record(
        6,
        "traced phase curve satisfies the curve equation to < 1e-6 for "
        "p = 1.5 and p = 1 (a = 0.5, m = 8), and the residual shrinks "
        "when working precision doubles",
        ok,
        detail,
    )


def test_criterion_7_two_interval_route_matches_power_route(cfg192):
    with cfg192.workprec():
        b = akhiezer_b_from_a(mp.mpf("0.6"))
    shifted = solve(build_akhiezer_problem(1, b, 3), cfg192)
    power = solve(build_power_problem(-2, "0.6", 3), cfg192)
    with cfg192.workprec():
        converted = akhiezer_convert(1, mp.mpf("0.6"), 3, shifted.error)
        rel = abs(converted / power.error - 1)
        ok = rel < mp.mpf("1e-10")
        detail = f"rel gap {mp.nstr(rel, 3)}"
    _record(
        7,
        "shifted-interval and symmetric power minimax problems give the "
        "same error through the interval conversion (s = 1, l = 3, "
        "a = 0.6, rel gap < 1e-10)",
        ok,
        detail,
    )


def test_criterion_8_power_error_prediction(solved_power, cfg256):
    with cfg256.workprec():
        ratios = {}
        for m in (10, 20):
            _, sol = solved_power[m]
            ratios[m] = sol.error / predict_power_error("1.5", "0.5", m, cfg256)
        ok = (
            mp.mpf("0.9") <= ratios[20] <= mp.mpf("1.1")
            and abs(ratios[20] - 1) < abs(ratios[10] - 1)
        )
        detail = (
            f"computed/predicted = {mp.nstr(ratios[10], 6)} at m=10, "
            f"{mp.nstr(ratios[20], 6)} at m=20"
        )
    _record(
        8,
        "power-family error over first-order prediction lies in "
        "[0.9, 1.1] at m = 20 and is closer to 1 than at m = 10 "
        "(p = 1.5, a = 0.5)",
        ok,
        detail,
    )


def test_criterion_9_slit_height_prediction(solved_sgn, cfg256):
    # The predictor is leading order: acosh(1/L) - B -> 0 like c/m, with the
    # next-order term left out.  2*gap(20) - gap(10) cancels the 1/m term, so
    # a wrong constant or log m coefficient still shows as an offset there.
    with cfg256.workprec():
        gaps = {}
        for m in (10, 20):
            _, sol = solved_sgn[m]
            measured = slit_height_from_error(sol.error, cfg256)
            gaps[m] = measured - predict_slit_height(1, "0.5", m, cfg256)
        limit = 2 * gaps[20] - gaps[10]
        ok = abs(gaps[20]) < abs(gaps[10]) and abs(limit) < mp.mpf("0.05")
        detail = (
            f"measured - predicted = {mp.nstr(gaps[10], 4)} at m=10, "
            f"{mp.nstr(gaps[20], 4)} at m=20; m*gap = "
            f"{mp.nstr(10 * gaps[10], 4)}, {mp.nstr(20 * gaps[20], 4)}; "
            f"extrapolated limit {mp.nstr(limit, 3)}"
        )
    _record(
        9,
        "slit height recovered from the minimax error approaches the "
        "leading-order prediction: the gap shrinks from m = 10 to m = 20 "
        "and its 1/m-extrapolated limit 2*gap(20) - gap(10) is within 0.05 "
        "of 0 (k = 1, a = 0.5)",
        ok,
        detail,
    )


def test_criterion_10_limit_profiles(solved_power, solved_sgn, cfg192):
    with cfg192.workprec():
        lams = _log_points("0.1", "3", 9)
        origin = conformal.power_limit_profile(1, 0, cfg192)
        origin_err = abs(origin - mp.mpf(INV_SQRT_PI))
    rows_power = profile_convergence(
        ProblemKind.POWER,
        {"p": "1.5", "a": "0.5"},
        (10, 20),
        lams,
        cfg192,
        solutions={m: solved_power[m][1] for m in (10, 20)},
    )
    rows_sgn = profile_convergence(
        ProblemKind.SGN_LAURENT,
        {"k": 1, "a": "0.5"},
        (10, 20),
        lams,
        cfg192,
        solutions={m: solved_sgn[m][1] for m in (10, 20)},
    )
    with cfg192.workprec():
        ok = (
            rows_power[1].sup_distance < rows_power[0].sup_distance
            and rows_sgn[1].sup_distance < rows_sgn[0].sup_distance
            and origin_err < mp.mpf("1e-10")
        )
        detail = (
            f"power sup-distance {mp.nstr(rows_power[0].sup_distance, 3)} -> "
            f"{mp.nstr(rows_power[1].sup_distance, 3)}, sgn "
            f"{mp.nstr(rows_sgn[0].sup_distance, 3)} -> "
            f"{mp.nstr(rows_sgn[1].sup_distance, 3)}; profile(1, 0) off by "
            f"{mp.nstr(origin_err, 3)}"
        )
    _record(
        10,
        "rescaled extremal values approach the limit profiles on "
        "lambda in [0.1, 3] (sup-distance drops from m = 10 to m = 20 "
        "for both families) and the power profile at the origin matches "
        "1/sqrt(pi) to 1e-10",
        ok,
        detail,
    )


def test_criterion_11_coefficient_sign_pattern(cfg192):
    all_ok = True
    checked = 0
    for m in (3, 5):
        problem = build_power_problem("1.5", "0.5", m)
        sol = solve(problem, cfg192)
        with cfg192.workprec():
            ts = [mp.mpf(2 * j - 10) / 12 for j in range(11)]
            for t in ts:
                report = sign_pattern_check(sol, problem, t, cfg192)
                all_ok = all_ok and report.passed and report.sign_changes == m + 1
                checked += 1
    _record(
        11,
        "coefficient sequence of P(x) - x^p - tE has exactly m + 1 sign "
        "changes with the predicted endpoint signs for m = 3, 5 across "
        "an 11-point t grid in (-1, 1)",
        all_ok,
        f"{checked} (m, t) pairs checked",
    )


def test_criterion_12_hilbert_and_phase_equation():
    x = np.linspace(-200.0, 200.0, 4001)
    got = hilbert_grid(1.0 / (1.0 + x * x), x)
    ref = x / (1.0 + x * x)
    interior = np.abs(x) <= 10.0
    pair_err = float(np.max(np.abs(got[interior] - ref[interior])))

    coarse = solve_phase_equation(1, nodes=1024)
    mid = solve_phase_equation(1, nodes=2048)
    fine = solve_phase_equation(1, nodes=4096)
    ratio = refinement_ratio(coarse, mid, fine)
    ok = (
        pair_err < 1e-6
        and fine.converged
        and fine.residual_norm < 1e-6
        and 2.0 <= ratio <= 6.0
    )
    detail = (
        f"Hilbert pair err {pair_err:.3e}; solver residual "
        f"{fine.residual_norm:.3e}, L = {fine.L:.9f}, Richardson ratio "
        f"{ratio:.3f} under grid doubling"
    )
    _record(
        12,
        "discrete Hilbert transform reproduces a known transform pair to "
        "1e-6, and the phase equation solver converges (residual < 1e-6) "
        "with a grid-doubling Richardson ratio in [2, 6]",
        ok,
        detail,
    )
