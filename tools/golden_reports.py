"""Write the reports of a fixed set of bernlab commands to a directory.

A refactor is gated on these reports staying byte-identical.  Run the
script once per checkout and compare the two directories:

    python tools/golden_reports.py OUT_DIR [--src CHECKOUT/src]
    cmp -s A/solve_absxp_m8.out B/solve_absxp_m8.out   # or: diff -r A B

Each command NAME leaves NAME.out (stdout), NAME.err (stderr) and
NAME.code (exit code).  The commands run one at a time in fresh
interpreters with one BLAS thread, so the conjecture reports do not
depend on the thread count.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

_POWER = ["--family", "absxp", "--p", "1.5", "--a", "0.5"]
_SGN = ["--family", "sgn-laurent", "--k", "1", "--a", "0.5"]
_AKHIEZER = ["--family", "akhiezer", "--s", "1.5", "--b", "2"]
_SIGN_T = ["--p", "1.5", "--a", "0.5", "--m", "6", "--sign-t=-0.5,0,0.5"]
_CSV = ["--format", "csv"]

COMMANDS = {
    "solve_absxp_m8": ["solve", *_POWER, "--m", "8"],
    "solve_absxp_m8_csv": ["solve", *_POWER, "--m", "8", *_CSV],
    "solve_absxp_m20": ["solve", *_POWER, "--m", "20"],
    "solve_absxp_m40": ["solve", *_POWER, "--m", "40"],
    "solve_sgn_k1_m8": ["solve", *_SGN, "--m", "8"],
    "solve_sgn_k3_m6": ["solve", "--family", "sgn-laurent", "--k", "3", "--a", "0.3", "--m", "6"],
    "solve_absxp_m8_bits1024": ["solve", *_POWER, "--m", "8", "--bits", "1024"],
    # p/2 = 0.65 is not a multiple of 1/4: the exchange's powers take mpf_pow.
    "solve_absxp_p13_m8": ["solve", "--family", "absxp", "--p", "1.3", "--a", "0.5", "--m", "8"],
    "solve_akhiezer_b2_m8": ["solve", *_AKHIEZER, "--m", "8"],
    # Nine starting points: the middle Chebyshev point is 1.8e-87, not 0.
    "solve_akhiezer_b2_m7": ["solve", *_AKHIEZER, "--m", "7"],
    "solve_akhiezer_a05_m8": [
        "solve", "--family", "akhiezer", "--s", "1.5", "--a", "0.5", "--m", "8",
    ],
    # A precision budget that cannot be met: exit 2 with an error report.
    "solve_absxp_m200_bits64": ["solve", *_POWER, "--m", "200", "--bits", "64"],
    "sweep_absxp": ["sweep", *_POWER, "--m", "5..15..5", "--predict", "--jobs", "2"],
    # The benchmark's sweep (perfbench minimax, op4_s).
    "sweep_absxp_bench": ["sweep", *_POWER, "--m", "2..6..2", "--predict", "--jobs", "2"],
    "sweep_absxp_csv": ["sweep", *_POWER, "--m", "5..15..5", "--predict", "--jobs", "2", *_CSV],
    "sweep_sgn": ["sweep", *_SGN, "--m", "4..12..4", "--predict"],
    # Negative leading-order slit heights at m = 1 and 2: negative ratios.
    "sweep_sgn_small_gap": [
        "sweep", "--family", "sgn-laurent", "--k", "1", "--a", "0.05", "--m", "1..4", "--predict",
    ],
    "sweep_akhiezer": ["sweep", *_AKHIEZER, "--m", "4..12..4", "--predict"],
    "verify_curve": ["verify-curve", *_SIGN_T],
    "verify_curve_csv": ["verify-curve", *_SIGN_T, *_CSV],
    "profiles_absxp": ["profiles", *_POWER, "--m", "4..12..4"],
    "profiles_sgn": ["profiles", *_SGN, "--m", "4..12..4"],
    "conformal_boundary_k1": ["conformal", "--k", "1", "--task", "boundary"],
    "conformal_boundary_p15": ["conformal", "--p", "1.5", "--task", "boundary"],
    # alpha = -1/2, where Gamma(alpha) < 0, and odd p, where the cot term is 0.
    "conformal_boundary_k0": ["conformal", "--k", "0", "--task", "boundary"],
    "conformal_boundary_p3": ["conformal", "--p", "3", "--task", "boundary"],
    # Exponents without a small substitution order, one large.
    "conformal_boundary_p13": ["conformal", "--p", "1.3", "--task", "boundary"],
    "conformal_boundary_p111": [
        "conformal", "--p", "11.1", "--task", "boundary", "--xi-count", "3",
    ],
    "conformal_offsets_k1": ["conformal", "--k", "1", "--task", "offsets", "--bits", "192"],
    "conformal_offsets_k2": ["conformal", "--k", "2", "--task", "offsets", "--bits", "192"],
    "conformal_constants_p15": ["conformal", "--p", "1.5", "--task", "constants"],
    "conformal_constants_p3": ["conformal", "--p", "3", "--task", "constants"],
    # p/2 = 0.65 has no small substitution order.
    "conformal_constants_p13": ["conformal", "--p", "1.3", "--task", "constants"],
    "conformal_zero_k1": ["conformal", "--k", "1", "--task", "zero"],
    "conformal_zero_k2": ["conformal", "--k", "2", "--task", "zero"],
    "convert": ["convert", "--s", "1.5", "--a", "0.5"],
    "convert_error": ["convert", "--s", "1.5", "--a", "0.5", "--l", "8", "--error", "1e-5"],
    "conjecture_512": ["conjecture", "--nodes", "512"],
    "conjecture_512_csv": ["conjecture", "--nodes", "512", *_CSV],
    # The benchmark's solve (perfbench verify, op4_s) and the default grid.
    "conjecture_2048_bench": ["conjecture", "--nodes", "2048", "--tol", "1e-8"],
    "conjecture_4096": ["conjecture"],
    # Invalid inputs: each exits 1 with a message and no report.
    "invalid_gamma_pole": [
        "sweep", "--family", "akhiezer", "--s", "-1", "--b", "2", "--m", "4..12..4", "--predict",
    ],
    "invalid_even_p": ["solve", "--family", "absxp", "--p", "2", "--a", "0.5", "--m", "8"],
    "invalid_gap": ["solve", "--family", "absxp", "--p", "1.5", "--a", "1.5", "--m", "8"],
    "invalid_both_maps": ["conformal", "--k", "1", "--p", "1.5", "--task", "boundary"],
    "invalid_sweep_repeat": ["sweep", *_POWER, "--m", "3,3", "--bits", "64", *_CSV],
    "invalid_profiles_repeat": [
        "profiles", *_POWER, "--m", "4,4", "--bits", "64", "--lambda-count", "3", *_CSV,
    ],
    "invalid_sgn_no_k": ["solve", "--family", "sgn-laurent", "--a", "0.5", "--m", "4"],
    "invalid_akhiezer_no_b": ["solve", "--family", "akhiezer", "--s", "1", "--m", "4"],
    "invalid_akhiezer_a_and_b": [
        "solve", "--family", "akhiezer", "--s", "1", "--b", "2", "--a", "0.9", "--m", "3",
    ],
    "invalid_profiles_akhiezer": [
        "profiles", "--family", "akhiezer", "--s", "1", "--b", "2", "--m", "4",
    ],
    "invalid_convert_negative_l": [
        "convert", "--s", "1", "--a", "0.5", "--l", "-3", "--error", "1e-5",
    ],
    "invalid_convert_zero_s": ["convert", "--s", "0", "--a", "0.5"],
    "invalid_convert_negative_error": [
        "convert", "--s", "1", "--a", "0.5", "--l", "2", "--error=-1e-5",
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory for the reports")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="the src/ directory to import bernlab from (default: this checkout's)",
    )
    ns = parser.parse_args(argv)
    ns.out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ns.src.resolve()))
    env.pop("BERNLAB_OUTPUT_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, args in COMMANDS.items():
        done = subprocess.run(
            [sys.executable, "-m", "bernlab.cli", *args], env=env, capture_output=True
        )
        (ns.out_dir / f"{name}.out").write_bytes(done.stdout)
        (ns.out_dir / f"{name}.err").write_bytes(done.stderr)
        (ns.out_dir / f"{name}.code").write_text(f"{done.returncode}\n")
        print(f"{done.returncode}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
