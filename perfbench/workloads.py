"""The benchmark's workloads: operations, their fixed inputs and their checks.

Each workload has four operations, reported as the end-to-end slots op1_s
to op4_s (the median of all of a slot's samples in a run); ``name`` is the
operation metric the slot belongs to (a name shared by several slots is
their sum).  An operation may appear more than once in a round.  CLI subcommands are driven through
bernlab.cli.main in-process and their JSON reports read back; everything
else calls the library's public functions.  Functions are looked up on
their modules at call time so that the benchmark's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

from mpmath import mp

import bernlab.cli
from bernlab import conformal
from bernlab.precision import PrecisionConfig

import oracles

CFG = PrecisionConfig(mantissa_bits=256)
# The sweep's process pool never gets more workers than the machine has cores.
SWEEP_JOBS = max(1, min(2, len(os.sched_getaffinity(0))))
# Boundary points: log-spaced on [0.1, 10]; off-cut points for slit_map and
# limit_map, one on the negative axis and two in the upper half-plane.
XI_GRID = ["0.1", "1", "10"]
OFF_CUT = [(-1, 0), (-0.25, 2), (1.5, 0.75)]
LIMIT_P = "1.5"
SIGN_T = "-0.5,0,0.5"
PHASE_TOL = 1e-8
CONJECTURE_NODES = 2048

_FAMILY = {"power": "absxp", "sgn_laurent": "sgn-laurent", "akhiezer": "akhiezer"}


@dataclass(frozen=True)
class Op:
    slot: str
    name: str
    run: Callable
    check: Callable  # (output, solves, states, rng) -> list of failures
    calibration: str = "mp"  # run.CALIBRATIONS: the kind of work the operation does


def cli(*argv):
    """Run one bernlab subcommand in-process; return its JSON report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bernlab.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"bernlab {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def _solution_fields(sol):
    return {
        "coefficients": sol.coeffs,
        "interval": sol.interval,
        "alternation": sol.alternation,
        "signs": sol.signs,
        "error_E": sol.error,
    }


def _check_captured(label, solves, rng, expected_degrees):
    """check_minimax on every solve captured during an operation."""
    fails = []
    degrees = sorted(problem.m for problem, _ in solves)
    if degrees != sorted(expected_degrees):
        fails.append(f"{label}: captured solves at m = {degrees}, expected {expected_degrees}")
    for problem, sol in solves:
        params = {"p": problem.p, "a": problem.a, "k": problem.k, "s": problem.s, "b": problem.b}
        family = _FAMILY[problem.kind.value]
        fails += oracles.check_minimax(
            f"{label} m={problem.m}", family, params, _solution_fields(sol), rng
        )
    return fails


# --- minimax -----------------------------------------------------------------


def _check_solve(text, solves, states, rng):
    doc = json.loads(text)
    res, inputs = doc["results"], doc["inputs"]
    label = f"solve {res['family']}"
    fails = oracles.check_minimax(label, res["family"], inputs, res, rng)
    if res["family"] == "akhiezer":
        fails += oracles.check_akhiezer_closed_form(label, res["error_E"], inputs["b"], inputs["m"])
    return fails


SWEEP_DEGREES = [2, 4, 6]


def _check_sweep(text, solves, states, rng):
    rows = json.loads(text)["results"]["rows"]
    fails = oracles.check_sweep("sweep", rows)
    if [row["m"] for row in rows] != SWEEP_DEGREES:
        fails.append(f"sweep: rows at m = {[row['m'] for row in rows]}")
    fails += _check_captured("sweep", solves, rng, SWEEP_DEGREES)
    for row, (_, sol) in zip(rows, solves):
        fails += oracles.check_close(f"sweep row m={row['m']} E", row["E"], sol.error, "1e-60")
    return fails


MINIMAX = [
    Op("op1_s", "solve_absxp_s",
       lambda: cli("solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "8"),
       _check_solve),
    Op("op2_s", "solve_sgn_s",
       lambda: cli("solve", "--family", "sgn-laurent", "--k", "1", "--a", "0.5", "--m", "8"),
       _check_solve),
    Op("op3_s", "solve_akhiezer_s",
       lambda: cli("solve", "--family", "akhiezer", "--s", "1", "--b", "2", "--m", "8"),
       _check_solve),
    Op("op4_s", "sweep_s",
       lambda: cli("sweep", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "2..6..2",
                   "--predict", "--jobs", str(SWEEP_JOBS)),
       _check_sweep),
]


# --- conformal ---------------------------------------------------------------


def _check_offsets(text, solves, states, rng):
    return oracles.check_far_offsets("offsets k=1", 1, json.loads(text)["results"])


def _slit_boundary():
    return [(k, xi, conformal.slit_map_boundary(k, xi, CFG)) for k in (1, 2) for xi in XI_GRID]


def _check_slit_boundary(samples, solves, states, rng):
    fails = []
    with mp.workprec(oracles.WORKPREC):
        for k, xi, sample in samples:
            expected = oracles.gamma_cauchy_boundary(mp.mpf(2 * k - 1) / 2, mp.mpf(xi))
            fails += oracles.check_close(
                f"cauchy_boundary k={k} xi={xi}", mp.exp(sample.cauchy_part), expected,
                oracles.CAUCHY_TOL,
            )
    return fails


def _limit_boundary():
    return [(xi, conformal.limit_map_boundary(LIMIT_P, xi, CFG)) for xi in XI_GRID]


def _limit_density_scale(p):
    # |sin(pi p/2)| / Lambda = pi / Gamma(p/2)
    return mp.pi / mp.gamma(mp.mpf(p) / 2)


def _check_limit_boundary(samples, solves, states, rng):
    fails = []
    with mp.workprec(oracles.WORKPREC):
        scale = _limit_density_scale(LIMIT_P)
        alpha = mp.mpf(LIMIT_P) / 2
        for xi, sample in samples:
            expected = scale * oracles.gamma_cauchy_boundary(alpha, mp.mpf(xi))
            fails += oracles.check_close(
                f"limit cauchy_boundary xi={xi}", mp.exp(sample.cauchy_part), expected,
                oracles.CAUCHY_TOL,
            )
    return fails


def _off_cut():
    points = [mp.mpc(re, im) if im else mp.mpf(re) for re, im in OFF_CUT]
    return {
        "slit": [conformal.slit_map(1, z, CFG) for z in points],
        "limit": [conformal.limit_map(LIMIT_P, z, CFG) for z in points],
        "constants": conformal.limit_constants(LIMIT_P, CFG, check=True),
    }


def _check_off_cut(out, solves, states, rng):
    fails = []
    with mp.workprec(oracles.WORKPREC):
        scale = _limit_density_scale(LIMIT_P)
        for s_slit, s_limit in zip(out["slit"], out["limit"]):
            z = mp.mpmathify(s_slit.zeta)
            fails += oracles.check_close(
                f"cauchy_integral k=1 zeta={mp.nstr(z, 4)}", mp.exp(s_slit.cauchy_part),
                oracles.gamma_cauchy(mp.mpf(1) / 2, z), oracles.CAUCHY_TOL,
            )
            fails += oracles.check_close(
                f"limit cauchy_integral zeta={mp.nstr(z, 4)}", mp.exp(s_limit.cauchy_part),
                scale * oracles.gamma_cauchy(mp.mpf(LIMIT_P) / 2, z), oracles.CAUCHY_TOL,
            )
    consts = out["constants"]
    fails += oracles.check_limit_constants(
        "limit_constants", LIMIT_P, consts.boundary_scale, consts.expansion_constant
    )
    return fails


CONFORMAL = [
    Op("op2_s", "boundary_s", _slit_boundary, _check_slit_boundary),
    Op("op3_s", "boundary_s", _limit_boundary, _check_limit_boundary),
    Op("op4_s", "boundary_s", _off_cut, _check_off_cut),
    Op("op1_s", "offsets_s", lambda: cli("conformal", "--k", "1", "--task", "offsets", "--bits", "192"),
       _check_offsets),
]


# --- verify ------------------------------------------------------------------

PROFILE_DEGREES = [4, 6]
PROFILE_GRID = ("--lambda-count", "13")


def _check_curve(text, solves, states, rng):
    fails = oracles.check_curve("verify-curve", json.loads(text)["results"], "1.5", 3)
    return fails + _check_captured("verify-curve", solves, rng, [8])


def _profiles_absxp():
    text = cli("profiles", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "4..6..2",
               *PROFILE_GRID)
    return text, conformal.power_limit_profile("1.5", 0, CFG)


def _check_profiles_absxp(out, solves, states, rng):
    text, origin = out
    fails = oracles.check_profile_rows("profiles absxp", json.loads(text)["results"]["rows"])
    fails += oracles.check_profile_origin("power profile at 0", "1.5", origin)
    return fails + _check_captured("profiles absxp", solves, rng, PROFILE_DEGREES)


def _check_profiles_sgn(text, solves, states, rng):
    fails = oracles.check_profile_rows("profiles sgn", json.loads(text)["results"]["rows"])
    return fails + _check_captured("profiles sgn", solves, rng, PROFILE_DEGREES)


def _check_conjecture(text, solves, states, rng):
    res = json.loads(text)["results"]
    fails = [] if res["converged"] else ["conjecture: report says not converged"]
    if len(states) != 1:
        return fails + [f"conjecture: {len(states)} captured states"]
    state = states[0]
    if float(res["L"]) != state.L:
        fails.append("conjecture: reported L differs from the solver state")
    return fails + oracles.check_phase_state("conjecture", state.grid, state.rho, state.L, PHASE_TOL)


_CONJECTURE = Op(
    "op4_s", "conjecture_s",
    lambda: cli("conjecture", "--nodes", str(CONJECTURE_NODES), "--tol", str(PHASE_TOL)),
    _check_conjecture, calibration="la",
)
# The short double-precision solve runs after each of the three mpmath
# operations, so it is sampled three times per round at different times.
VERIFY = [
    Op("op1_s", "verify_curve_s",
       lambda: cli("verify-curve", "--p", "1.5", "--a", "0.5", "--m", "8", f"--sign-t={SIGN_T}"),
       _check_curve),
    _CONJECTURE,
    Op("op2_s", "profiles_s", _profiles_absxp, _check_profiles_absxp),
    _CONJECTURE,
    Op("op3_s", "profiles_s",
       lambda: cli("profiles", "--family", "sgn-laurent", "--k", "1", "--a", "0.5", "--m", "4..6..2",
                   *PROFILE_GRID),
       _check_profiles_sgn),
    _CONJECTURE,
]

WORKLOADS = {"minimax": MINIMAX, "conformal": CONFORMAL, "verify": VERIFY}
