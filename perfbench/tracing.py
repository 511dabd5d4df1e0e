"""Instrumentation of bernlab from outside the package.

Public functions of each layer are wrapped by rebinding every name in the
loaded bernlab modules that refers to them, so calls made through
``from .x import f`` bindings are seen too.  Two kinds of wrapper exist:

* Tracer spans (name, start, end, parent) kept in memory and summarized per
  function as calls, total time and self time.
* Capture of the objects a report does not carry: the solutions behind a
  sweep or a profile table, and the phase-equation state behind a
  ``conjecture`` report.  Solves run in a sweep's forked worker processes
  are pickled to files in the capture directory, with the worker's spans,
  and read back by the parent.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from collections import defaultdict

# module -> public functions wrapped by the tracer; the layer is the first
# component below the package.
TRACED = {
    "bernlab.specialfn.gamma": ["log_gamma"],
    "bernlab.specialfn.quadrature": ["gauss_legendre_nodes", "integrate_finite_err"],
    "bernlab.specialfn.cauchy": ["cauchy_integral", "cauchy_boundary"],
    "bernlab.specialfn.hilbert": ["hilbert_grid"],
    "bernlab.remez": ["solve", "clenshaw", "eval_solution", "reduced_deviation"],
    "bernlab.conformal": [
        "slit_map",
        "slit_map_boundary",
        "phase_density",
        "slit_map_zero",
        "far_offset_closed",
        "far_offset_far_field",
        "far_offset_integral",
        "limit_constants",
        "limit_density",
        "limit_map",
        "limit_map_boundary",
        "power_limit_profile",
        "sgn_limit_profile",
    ],
    "bernlab.asymptotics": [
        "compare",
        "predict_power_error",
        "predict_slit_height",
        "predict_akhiezer_error",
    ],
    "bernlab.curveverify": [
        "reconstruct_phase",
        "curve_residuals",
        "sign_pattern_check",
        "profile_convergence",
    ],
    "bernlab.conjecture": ["solve_phase_equation", "phase_residual"],
    "bernlab.cli": ["main"],
}


def span_name(module: str, func: str) -> str:
    return f"{module.split('.')[1]}.{func}"


def _rebind(old, new) -> None:
    for name, module in list(sys.modules.items()):
        if name == "bernlab" or name.startswith("bernlab."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


class Tracer:
    """In-memory spans (id, parent, name, start, end) of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0

    def reset(self):
        # In place: the wrappers hold these lists.
        del self.spans[:]
        del self.stack[:]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def drain(self):
        out = list(self.spans)
        del self.spans[:]
        return out


def summarize(span_groups):
    """Per function: calls, total and self seconds, over span lists that each
    come from one process (ids are unique within a list only)."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for spans in span_groups:
        child_time = defaultdict(float)
        for _, parent, _, start, end in spans:
            child_time[parent] += end - start
        for sid, _, name, start, end in spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(sid, 0.0)
    return dict(sorted(table.items()))


class Instrument:
    """Owns the rebinding of the wrapped functions.

    install(tracer) puts capture wrappers (always) over tracing wrappers
    (when a tracer is given) over the original functions.
    """

    def __init__(self, capture_dir):
        self.capture_dir = capture_dir
        self.main_pid = os.getpid()
        self.originals = {}
        for module, funcs in TRACED.items():
            mod = importlib.import_module(module)
            for func in funcs:
                self.originals[(module, func)] = getattr(mod, func)
        self.current = dict(self.originals)
        self.tracer = None
        self.solves = []
        self.states = []
        self._dumps = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # A sweep worker: spans inherited from the parent are not its own.
        if self.tracer is not None:
            self.tracer.reset()
        self.solves = []

    def install(self, tracer=None):
        self.tracer = tracer
        for key, original in self.originals.items():
            fn = original if tracer is None else tracer.wrap(span_name(*key), original)
            if key == ("bernlab.remez", "solve"):
                fn = self._capture_solve(fn)
            elif key == ("bernlab.conjecture", "solve_phase_equation"):
                fn = self._capture_state(fn)
            _rebind(self.current[key], fn)
            self.current[key] = fn

    def _capture_solve(self, inner):
        def solve(problem, *args, **kwargs):
            sol = inner(problem, *args, **kwargs)
            if os.getpid() == self.main_pid:
                self.solves.append((problem, sol))
            else:
                self._dump_from_worker(problem, sol)
            return sol

        return solve

    def _capture_state(self, inner):
        def solve_phase_equation(*args, **kwargs):
            state = inner(*args, **kwargs)
            self.states.append(state)
            return state

        return solve_phase_equation

    def _dump_from_worker(self, problem, sol):
        self._dumps += 1
        spans = self.tracer.drain() if self.tracer is not None else []
        path = os.path.join(self.capture_dir, f"{os.getpid()}-{self._dumps}.pkl")
        with open(path + ".part", "wb") as handle:
            pickle.dump((problem, sol, spans), handle)
        os.replace(path + ".part", path)

    def take(self):
        """Captured (solves, states, worker span lists) since the last take."""
        solves, states = self.solves, self.states
        self.solves, self.states = [], []
        worker_spans = []
        for name in sorted(os.listdir(self.capture_dir)):
            if name.endswith(".pkl"):
                path = os.path.join(self.capture_dir, name)
                with open(path, "rb") as handle:
                    problem, sol, spans = pickle.load(handle)
                os.remove(path)
                solves.append((problem, sol))
                worker_spans.append(spans)
        solves.sort(key=lambda item: (item[0].kind.value, item[0].degree))
        return solves, states, worker_spans
