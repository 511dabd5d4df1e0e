"""Benchmark for bernlab: one named workload, timed end to end and checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload minimax|conformal|verify \
        --seed N --seconds S --trace 0|1

The run imports bernlab from the checkout's src/ (timed as set-up), then
repeats whole rounds of the workload's operations: it starts another round
only while the rounds so far plus one more fit in S seconds, so
every run makes at least one.  Each operation starts with an empty
Gauss-Legendre node cache, as a fresh CLI call does, and runs between two
calibrations (see CALIBRATION_STEPS).  After timing, the first output of
each operation is checked against independent oracles (oracles.py) and
every later run of an operation must reproduce it exactly.

--trace 0 prints the end-to-end metrics: setup_s (median of three cold
imports), wall_s (median round) and op1_s..op4_s (median per operation
slot), the last five in seconds scaled by the machine-speed calibration.
--trace 1 runs one round untraced and one with spans around the public
functions of every layer, prints the per-layer metrics and writes the
spans to perfbench/out/.

The last line of standard output is the JSON result; a readable summary
goes to standard error and the full run record to perfbench/out/.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads: the
# benchmark's processes never ask for more threads than there are cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# workloads.WORKLOADS holds the operations; it imports bernlab, so it is
# loaded only after the set-up has been timed.
WORKLOAD_NAMES = ("minimax", "conformal", "verify")
SETUP_CHILDREN = 2

# The shared machine's speed drifts by tens of percent over minutes and
# flickers from one second to the next (a fixed 0.1-s loop repeated in
# place spread 0.08-0.15 s); wall and CPU time drift alike.  So each
# operation runs between two calibrations: fixed computations that do not
# touch bernlab, of the kind of work the operation does ("mp": pure-Python
# mpmath arithmetic, in a loop and over a large list; "la": numpy mat-vecs
# and dense solves, which the mpmath calibration does not track).  An
# operation's samples are scaled by the kind's reference time (this
# machine's usual calibration time) over the mean of the run's calibrations
# of that kind.  The mean over many calibrations estimates the run's
# average speed; a single calibration next to an operation flickers more
# than the operation does.  The set-up time is not scaled: scaled, it
# spread more than raw.
CALIBRATION_STEPS = 4000
MP_LIST = 20000
LA_SIZE = 1024
LA_MATVECS = 100
LA_SOLVES = 2
REFERENCE_CALIBRATION_S = {"mp": 0.12, "la": 0.12}

# The set-up measured in child interpreters; the same stdlib modules are
# loaded first as in this process, so the samples match the in-process one.
SETUP_CODE = (
    "import argparse, gzip, json, random, shutil, statistics, subprocess, sys, time, traceback\n"
    "sys.path.insert(0, {src!r})\n"
    "t = time.perf_counter()\n"
    "import bernlab.cli\n"
    "bernlab.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_in_child():
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def mp_calibration():
    """Build the inputs of the mpmath calibration and return a function that
    times it: a loop on a few numbers, then a pass over MP_LIST pairs (a few
    MB of mpf objects, like a quadrature node cache)."""
    from mpmath import mp  # loaded with bernlab, inside the timed set-up

    with mp.workprec(288):
        pairs = [(mp.mpf(i) / MP_LIST * 8, mp.mpf(1) / (i + 1)) for i in range(MP_LIST)]

    def calibrate():
        with mp.workprec(288):
            start = time.perf_counter()
            x = mp.mpf(1) / 3
            acc = mp.mpf(0)
            for i in range(CALIBRATION_STEPS):
                acc = acc * x + mp.sqrt(x + i)
            for node, weight in pairs:
                acc += node * weight
            return time.perf_counter() - start

    return calibrate


def la_calibration():
    """Build the inputs of the numpy calibration and return a function that
    times it: mat-vecs and dense solves on a fixed LA_SIZE matrix."""
    import numpy as np
    from scipy.linalg import solve

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((LA_SIZE, LA_SIZE)) / LA_SIZE**0.5 + 4 * np.eye(LA_SIZE)
    start_vector = rng.standard_normal(LA_SIZE)

    def calibrate():
        start = time.perf_counter()
        x = start_vector
        for _ in range(LA_MATVECS):
            x = np.sin(matrix @ x)
        for _ in range(LA_SOLVES):
            solve(matrix, x)
        return time.perf_counter() - start

    return calibrate


CALIBRATIONS = {"mp": mp_calibration, "la": la_calibration}


def run_round(ops, instrument, node_cache, calibrators, tracer=None):
    """One pass over the operations, each between two calibrations of its
    kind (two neighbouring operations of the same kind share the one between
    them); returns (elapsed seconds, per-op records, (kind, seconds) of
    every calibration)."""
    instrument.install(tracer)
    records = []
    calibrations = []

    def calibrate(kind):
        if not calibrations or calibrations[-1][0] != kind:
            calibrations.append((kind, calibrators[kind]()))

    clock = time.perf_counter
    start = clock()
    for op in ops:
        calibrate(op.calibration)
        node_cache.clear()
        instrument.take()
        t0 = clock()
        try:
            output, error = op.run(), None
        except Exception as exc:  # counted as a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = clock() - t0
        solves, states, worker_spans = instrument.take()
        calibrations.append((op.calibration, calibrators[op.calibration]()))
        records.append(
            {
                "op": op,
                "seconds": seconds,
                "output": output,
                "error": error,
                "solves": solves,
                "states": states,
                "worker_spans": worker_spans,
            }
        )
    instrument.install(None)
    return clock() - start, records, calibrations


def check_rounds(rounds, seed):
    """Oracle checks on each operation's first output; every later run of
    the same operation must reproduce that output exactly."""
    rng = random.Random(seed)
    fails = []
    first = {}
    for index, (_, records, _) in enumerate(rounds, start=1):
        for rec in records:
            if rec["error"] is not None:
                continue
            ref = first.setdefault(rec["op"], rec)
            if ref is rec:
                fails += rec["op"].check(rec["output"], rec["solves"], rec["states"], rng)
            elif repr(rec["output"]) != repr(ref["output"]):
                fails.append(f"round {index}: {rec['op'].slot} output differs from its first run")
    return fails


def per_layer(table, records, wall_traced, wall_plain):
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    solves = [sol for rec in records for _, sol in rec["solves"]]
    states = [state for rec in records for state in rec["states"]]
    counts = {
        "cli.main.calls": calls("cli.main"),
        "remez.solve.calls": calls("remez.solve"),
        "remez.solve.iterations": sum(sol.iterations for sol in solves),
        "remez.clenshaw.calls": calls("remez.clenshaw"),
        "remez.eval_solution.calls": calls("remez.eval_solution"),
        "conformal.phase_density.calls": calls("conformal.phase_density"),
        "conformal.limit_profile.calls": calls("conformal.power_limit_profile")
        + calls("conformal.sgn_limit_profile"),
        "specialfn.cauchy_boundary.calls": calls("specialfn.cauchy_boundary"),
        "specialfn.cauchy_integral.calls": calls("specialfn.cauchy_integral"),
        "specialfn.integrate_finite_err.calls": calls("specialfn.integrate_finite_err"),
        "specialfn.gauss_legendre_nodes.calls": calls("specialfn.gauss_legendre_nodes"),
        "specialfn.log_gamma.calls": calls("specialfn.log_gamma"),
        "specialfn.hilbert_grid.calls": calls("specialfn.hilbert_grid"),
        "conjecture.iterations": sum(len(state.history) for state in states),
    }
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    times = {
        "cli.main.self_s": table.get("cli.main", {}).get("self_s", 0.0),
        "specialfn.self_s": sum(
            row["self_s"] for name, row in table.items() if name.startswith("specialfn.")
        ),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_plain,
    }
    metrics.update({name: {"value": value, "unit": "s"} for name, value in times.items()})
    return metrics


def write_spans(path, span_groups):
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write("# process,id,parent,name,start_s,end_s\n")
        for process, spans in enumerate(span_groups):
            for sid, parent, name, start, end in spans:
                handle.write(f"{process},{sid},{parent},{name},{start!r},{end!r}\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bernlab" / "cli.py").is_file():
        print(f"error: no bernlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))

    t0 = time.perf_counter()
    import bernlab.cli

    bernlab.cli.build_parser()
    setup = [time.perf_counter() - t0]
    if not Path(bernlab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: bernlab imported from {bernlab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup += [setup_in_child() for _ in range(SETUP_CHILDREN)]

    from bernlab.specialfn import quadrature

    import tracing
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    capture_dir = OUT / f"capture-{os.getpid()}"
    capture_dir.mkdir()
    instrument = tracing.Instrument(str(capture_dir))
    node_cache = quadrature._node_cache

    calibrators = {kind: CALIBRATIONS[kind]() for kind in {op.calibration for op in ops}}
    for warm_up in calibrators.values():
        warm_up()

    rounds = []
    started = time.perf_counter()
    try:
        if args.trace:
            rounds.append(run_round(ops, instrument, node_cache, calibrators))
            tracer = tracing.Tracer()
            rounds.append(run_round(ops, instrument, node_cache, calibrators, tracer))
        else:
            while True:
                rounds.append(run_round(ops, instrument, node_cache, calibrators))
                if time.perf_counter() - started + rounds[-1][0] > args.seconds:
                    break
    finally:
        shutil.rmtree(capture_dir, ignore_errors=True)

    failures = check_rounds(rounds, args.seed)
    records = [rec for _, recs, _ in rounds for rec in recs]
    errors = [f"{rec['op'].slot}: {rec['error']}" for rec in records if rec["error"]]

    calibrations = {kind: [] for kind in calibrators}
    for _, _, cals in rounds:
        for kind, seconds in cals:
            calibrations[kind].append(seconds)
    speed = {
        kind: REFERENCE_CALIBRATION_S[kind] / statistics.fmean(cals)
        for kind, cals in calibrations.items()
        if cals
    }
    for rec in records:
        rec["scaled"] = rec["seconds"] * speed[rec["op"].calibration]

    slot_times = {op.slot: [] for op in sorted(ops, key=lambda op: op.slot)}
    raw_times = {slot: [] for slot in slot_times}
    for rec in records:
        slot_times[rec["op"].slot].append(rec["scaled"])
        raw_times[rec["op"].slot].append(rec["seconds"])
    named = {}
    for op in {op.slot: op for op in ops}.values():
        named[op.name] = named.get(op.name, 0.0) + statistics.median(slot_times[op.slot])
    walls = [sum(rec["scaled"] for rec in recs) for _, recs, _ in rounds]
    raw_walls = [sum(rec["seconds"] for rec in recs) for _, recs, _ in rounds]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setup,
        "round_walls_scaled_s": walls,
        "round_walls_raw_s": raw_walls,
        "slot_scaled_s": slot_times,
        "slot_raw_s": raw_times,
        "calibrations_s": calibrations,
        "speed_factors": speed,
        "operation_metrics_scaled_s": named,
        "failures": failures,
        "errors": errors,
    }

    if args.trace:
        traced = rounds[1][1]
        span_groups = [tracer.spans] + [s for rec in traced for s in rec["worker_spans"]]
        table = tracing.summarize(span_groups)
        metrics = per_layer(table, traced, walls[1], walls[0])
        record["layer_table"] = table
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", span_groups)
        print(f"{'function':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}", file=sys.stderr)
        for name, row in table.items():
            print(
                f"{name:40s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}",
                file=sys.stderr,
            )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
        }
        for slot, times in slot_times.items():
            metrics[slot] = {"value": statistics.median(times), "unit": "s"}

    record["metrics"] = metrics
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    for name, value in named.items():
        print(f"{name} = {value:.4f} s (scaled)", file=sys.stderr)
    for line in failures + errors:
        print(f"FAIL {line}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
