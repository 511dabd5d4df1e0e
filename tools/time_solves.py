"""Time in-process Remez solves of two checkouts, alternated.

    python tools/time_solves.py PARENT/src CHANGE/src

Each case runs RUNS times per checkout, each time in a fresh interpreter
that imports bernlab from that src/ directory, solves the case once untimed
and then SOLVES times timed, and reports the median of those; the two
checkouts take turns going first.  One timed solve per interpreter is too
noisy for the 0.01-0.1 s cases: a single round could point the wrong way.
Prints per checkout the median over runs with its quartiles, the ratio of
the medians and in how many runs the second checkout was faster.  The
cases are ROADMAP's Remez baseline rows, an absxp solve at 1024 bits, one whose exponents take mpf_pow (p = 1.3), two with
large exponents: y^(41/4) (p = 20.5) and y^-(19/2) (k = 10), and the three
m = 8 solves of perfbench's minimax workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 5
SOLVES = 7

_P15 = {"p": "1.5", "a": "0.5"}
CASES = {
    "absxp p=1.5 m=20": ["power", _P15, 20, 256],
    "absxp p=1.5 m=40": ["power", _P15, 40, 256],
    "sgn k=1 m=20": ["sgn_laurent", {"k": 1, "a": "0.5"}, 20, 256],
    "akhiezer s=1.5 b=2 l=40": ["akhiezer", {"s": "1.5", "b": "2"}, 40, 256],
    "absxp p=1.5 m=8 1024 bits": ["power", _P15, 8, 1024],
    "absxp p=1.3 m=8": ["power", {"p": "1.3", "a": "0.5"}, 8, 256],
    "absxp p=20.5 m=16": ["power", {"p": "20.5", "a": "0.5"}, 16, 256],
    "sgn k=10 m=6": ["sgn_laurent", {"k": 10, "a": "0.5"}, 6, 256],
    "absxp p=1.5 m=8": ["power", _P15, 8, 256],
    "sgn k=1 m=8": ["sgn_laurent", {"k": 1, "a": "0.5"}, 8, 256],
    "akhiezer s=1 b=2 l=8": ["akhiezer", {"s": "1", "b": "2"}, 8, 256],
}

_TIMED = """
import json, statistics, sys, time
from bernlab.precision import PrecisionConfig
from bernlab.remez import build_problem, solve
kind, params, m, bits, solves = json.loads(sys.argv[1])
problem, cfg = build_problem(kind, params, m), PrecisionConfig(bits)
solve(problem, cfg)
times = []
for _ in range(solves):
    start = time.perf_counter()
    solve(problem, cfg)
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""


def _time(src, case):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", _TIMED, json.dumps([*case, SOLVES])],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def _summary(times):
    """'median (lower-upper quartile)' of a side's run medians."""
    low, _, high = statistics.quantiles(times, n=4)
    return f"{statistics.median(times):.4f} ({low:.4f}-{high:.4f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs=2, help="the two src/ directories, parent first")
    ns = parser.parse_args(argv)
    print(f"{'case':28} {'first (quartiles)':>26} {'second (quartiles)':>26} {'ratio':>6}  wins")
    for name, case in CASES.items():
        times = ([], [])
        for run in range(RUNS):
            for side in (0, 1) if run % 2 == 0 else (1, 0):
                times[side].append(_time(ns.srcs[side], case))
        first, second = (_summary(t) for t in times)
        wins = sum(b < a for a, b in zip(*times))
        ratio = statistics.median(times[1]) / statistics.median(times[0])
        print(f"{name:28} {first:>26} {second:>26} {ratio:6.3f}  {wins}/{RUNS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
