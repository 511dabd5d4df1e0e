"""Command-line front end.

Subcommands run the solvers and verifications at a configured precision
and write JSON or CSV reports.  Exit codes: 0 success, 1 invalid input,
2 numerical non-convergence (a diagnostic report is still written).

Reports are deterministic: numbers render as decimal strings at the
configured precision and no timestamps or environment details are
embedded, so re-running a command reproduces the bytes.  Relative output
paths are resolved against BERNLAB_OUTPUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from mpmath import mp, mpc, mpf

from . import asymptotics, conformal, curveverify, remez
from .errors import InvalidProblemError
from .precision import PrecisionConfig
from .remez import ProblemKind
from .specialfn import cauchy_boundary

SCHEMA = "bernlab-report/1"

# Each --family value: its problem kind and the flags that carry its
# parameters, under the names remez.build_problem reads.
_FAMILIES = {
    "absxp": (ProblemKind.POWER, ("p", "a")),
    "sgn-laurent": (ProblemKind.SGN_LAURENT, ("k", "a")),
    "akhiezer": (ProblemKind.AKHIEZER, ("s", "b")),
}


# ---------------------------------------------------------------------------
# rendering


def _num_str(x, cfg: PrecisionConfig) -> str:
    with mp.workprec(cfg.mantissa_bits + 32):
        return mp.nstr(x, cfg.decimal_digits, strip_zeros=True)


def _residual_str(x) -> str:
    """A residual to 3 significant digits.  It is rounding noise far below
    its tolerance, so only its order of magnitude carries information."""
    return mp.nstr(x, 3)


def _render(obj, cfg: PrecisionConfig):
    """JSON-safe deep conversion; high-precision values become strings."""
    if isinstance(obj, dict):
        return {key: _render(val, cfg) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(val, cfg) for val in obj]
    if isinstance(obj, int) or obj is None:
        # bool is an int subclass and stays a JSON boolean.
        return obj
    if isinstance(obj, (mpf, mpc)):
        return _num_str(obj, cfg)
    if isinstance(obj, str):
        return obj
    # repr of the builtin float, also for numpy scalars, which stringify
    # with a type wrapper.
    return repr(float(obj))


def _cell(value, cfg: PrecisionConfig) -> str:
    return str(_render(value, cfg))


def _inputs_echo(ns: argparse.Namespace) -> dict:
    skip = {"handler", "output", "format"}
    return {
        key: val
        for key, val in sorted(vars(ns).items())
        if key not in skip and val is not None
    }


def _resolve_output(path: str | None) -> str | None:
    base = os.environ.get("BERNLAB_OUTPUT_DIR")
    if path is not None and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(ns: argparse.Namespace, cfg: PrecisionConfig, payload: dict) -> None:
    if ns.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": ns.command,
            "inputs": _inputs_echo(ns),
            "results": _render(
                {k: v for k, v in payload.items() if k != "_csv"}, cfg
            ),
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        header, rows = payload.get("_csv", (["value"], []))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v, cfg) for v in row])
        text = buf.getvalue()
    path = _resolve_output(ns.output)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# shared argument plumbing


def _parse_degrees(spec: str) -> list:
    """Degree list syntax: '8', '5,10,20', or inclusive ranges '5..20' and
    '5..20..5' (start..stop..step)."""
    spec = spec.strip()
    if ".." in spec:
        parts = spec.split("..")
        if len(parts) not in (2, 3):
            raise InvalidProblemError(f"bad degree range {spec!r}; use lo..hi or lo..hi..step")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or hi < lo:
            raise InvalidProblemError(f"bad degree range {spec!r}")
        return list(range(lo, hi + 1, step))
    if "," in spec:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    return [int(spec)]


def _family_parameters(ns: argparse.Namespace, cfg: PrecisionConfig) -> tuple:
    """The family's kind and parameters from the flags _FAMILIES names
    (akhiezer takes --a in place of --b, not beside it); the remez builders
    check them."""
    kind, names = _FAMILIES[ns.family]
    params = {name: getattr(ns, name) for name in names}
    if kind is ProblemKind.AKHIEZER and ns.a is not None:
        if ns.b is not None:
            raise InvalidProblemError("family akhiezer takes --a or --b, not both")
        with cfg.workprec():
            params["b"] = asymptotics.akhiezer_b_from_a(ns.a)
    if None in params.values():
        flags = " and ".join(f"--{name}" for name in names)
        either = " (or --a)" if kind is ProblemKind.AKHIEZER else ""
        raise InvalidProblemError(f"family {ns.family} needs {flags}{either}")
    return kind, params


def _log_spaced(lo, hi, count: int, cfg: PrecisionConfig):
    with cfg.workprec():
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if not (0 < lo < hi) or count < 2:
            raise InvalidProblemError("need 0 < min < max and at least 2 points")
        ratio = mp.log(hi / lo) / (count - 1)
        return [lo * mp.exp(ratio * i) for i in range(count)]


def _lin_spaced(lo, hi, count: int, cfg: PrecisionConfig):
    with cfg.workprec():
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if not lo < hi or count < 2:
            raise InvalidProblemError("need min < max and at least 2 points")
        return mp.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# command handlers; each returns (payload, exit_code)


def _cmd_solve(ns: argparse.Namespace, cfg: PrecisionConfig):
    if ns.m is None:
        raise InvalidProblemError("solve needs --m (polynomial degree)")
    problem = remez.build_problem(*_family_parameters(ns, cfg), ns.m)
    sol = remez.solve(problem, cfg)
    payload = {
        "family": ns.family,
        "degree": sol.degree(),
        "error_E": sol.error,
        "levelling_ratio": sol.levelling_ratio,
        "iterations": sol.iterations,
        "interval": list(sol.interval),
        "alternation": list(sol.alternation),
        "signs": list(sol.signs),
        "coefficients": list(sol.coeffs),
    }
    rows = [
        [i, point, sign, sol.error]
        for i, (point, sign) in enumerate(zip(sol.alternation, sol.signs))
    ]
    payload["_csv"] = (["index", "point", "sign", "error_E"], rows)
    return payload, 0


def _cmd_sweep(ns: argparse.Namespace, cfg: PrecisionConfig):
    if ns.m is None:
        raise InvalidProblemError("sweep needs --m (degree list, e.g. 5..20)")
    degrees = _parse_degrees(ns.m)
    kind, params = _family_parameters(ns, cfg)
    rows = asymptotics.compare(kind, params, degrees, cfg, jobs=ns.jobs)
    payload = {
        "family": ns.family,
        "parameters": params,
        "rows": rows,
        "final_ratio": rows[-1]["ratio"],
        "monotone_tail": asymptotics.monotone_tail([row["ratio"] for row in rows]),
    }
    header = ["m", "E", "predicted", "ratio"] if ns.predict else ["m", "E"]
    payload["_csv"] = (header, [[row[k] for k in header] for row in rows])
    return payload, 0


def _cmd_verify_curve(ns: argparse.Namespace, cfg: PrecisionConfig):
    problem = remez.build_problem(ProblemKind.POWER, {"p": ns.p, "a": ns.a}, ns.m)
    sol = remez.solve(problem, cfg)
    ys = _log_spaced(ns.y_min, ns.y_max, ns.y_count, cfg)
    trace = curveverify.reconstruct_phase(sol, problem, ys, cfg)
    residuals = curveverify.curve_residuals(trace, sol.error, problem.p, cfg)
    with cfg.workprec():
        max_res = max(abs(r) for r in residuals)
    payload = {
        "family": "absxp",
        "error_E": sol.error,
        "max_relative_residual": _residual_str(max_res),
        "trace": [
            {"y": y, "u": u, "v": v, "winding": w, "residual": _residual_str(r)}
            for y, u, v, w, r in zip(
                trace.y_grid, trace.u, trace.v, trace.branch_windings, residuals
            )
        ],
    }
    header = ["y", "u", "v", "winding", "residual"]
    payload["_csv"] = (header, [[row[k] for k in header] for row in payload["trace"]])
    if ns.sign_t:
        checks = []
        for tok in ns.sign_t.split(","):
            rep = curveverify.sign_pattern_check(sol, problem, tok.strip(), cfg)
            checks.append(
                {
                    "t": rep.t,
                    "sign_changes": rep.sign_changes,
                    "expected_changes": rep.expected_changes,
                    "first_sign": rep.first_sign,
                    "last_sign": rep.last_sign,
                    "passed": rep.passed,
                }
            )
        payload["sign_pattern"] = checks
    return payload, 0


def _cmd_profiles(ns: argparse.Namespace, cfg: PrecisionConfig):
    if ns.m is None:
        raise InvalidProblemError("profiles needs --m (degree list)")
    kind, params = _family_parameters(ns, cfg)
    degrees = _parse_degrees(ns.m)
    lams = _lin_spaced(ns.lambda_min, ns.lambda_max, ns.lambda_count, cfg)
    rows = curveverify.profile_convergence(kind, params, degrees, lams, cfg)
    payload = {"family": ns.family, "parameters": params, "rows": rows}
    header = ["m", "sup_distance", "lambda_at_sup"]
    payload["_csv"] = (header, [[row[k] for k in header] for row in rows])
    return payload, 0


def _boundary_residuals(ns: argparse.Namespace, cfg: PrecisionConfig):
    """Residuals of the map's boundary values on a log-spaced grid, as rows
    (xi, residual, pv_residual).

    C is the quadrature Cauchy transform of the map's density tau on the
    upper edge of the cut.  Its imaginary part must reproduce tau, so the
    residual is Im C(xi) / tau(xi) - 1.  Its real part, the principal value,
    must match exp(cauchy_part) of the map's own boundary value;
    pv_residual is their difference over |exp(cauchy_part)|."""
    xis = _log_spaced(ns.xi_min, ns.xi_max, ns.xi_count, cfg)
    if ns.k is not None:
        index, boundary = ns.k, conformal.slit_map_boundary
        dens = conformal.tooth_density(ns.k)
    else:
        index, boundary = ns.p, conformal.limit_map_boundary
        dens = conformal.limit_density(ns.p, cfg)
    rows = []
    with cfg.workprec():
        for xi in xis:
            cau = cauchy_boundary(dens, xi, cfg)
            closed = mp.exp(boundary(index, xi, cfg).cauchy_part)
            rows.append(
                (
                    xi,
                    mp.im(cau) / dens(xi) - 1,
                    (mp.re(cau) - mp.re(closed)) / abs(closed),
                )
            )
    return rows


def _cmd_conformal(ns: argparse.Namespace, cfg: PrecisionConfig):
    if (ns.k is None) == (ns.p is None):
        raise InvalidProblemError("give exactly one of --k (slit map) or --p (limit map)")
    needs = {"offsets": "k", "zero": "k", "constants": "p"}.get(ns.task)
    if needs and getattr(ns, needs) is None:
        raise InvalidProblemError(f"task {ns.task} needs --{needs}")
    payload: dict = {"task": ns.task}
    if ns.task == "boundary":
        rows = _boundary_residuals(ns, cfg)
        with cfg.workprec():
            payload["max_residual"] = _residual_str(max(abs(r) for _, r, _ in rows))
            payload["max_pv_residual"] = _residual_str(max(abs(r) for _, _, r in rows))
        rows = [(xi, _residual_str(r), _residual_str(pv)) for xi, r, pv in rows]
        payload["rows"] = [
            {"xi": xi, "residual": r, "pv_residual": pv} for xi, r, pv in rows
        ]
        payload["_csv"] = (["xi", "residual", "pv_residual"], [list(row) for row in rows])
    elif ns.task == "offsets":
        closed = conformal.far_offset_closed(ns.k, cfg)
        far = conformal.far_offset_far_field(ns.k, cfg)
        integral = conformal.far_offset_integral(ns.k, cfg)
        with cfg.workprec():
            spread = _residual_str(
                max(abs(closed - far), abs(closed - integral), abs(far - integral))
            )
        payload.update(
            {
                "closed_form": closed,
                "far_field": far,
                "integral": integral,
                "max_pairwise": spread,
            }
        )
        payload["_csv"] = (
            ["closed_form", "far_field", "integral", "max_pairwise"],
            [[closed, far, integral, spread]],
        )
    elif ns.task == "zero":
        location = conformal.slit_map_zero(ns.k, cfg)
        payload["zero_location"] = location
        payload["_csv"] = (["zero_location"], [[location]])
    else:  # constants
        consts = conformal.limit_constants(ns.p, cfg)
        with cfg.workprec():
            p = mp.mpf(ns.p)
            gamma_neg = abs(mp.gamma(-p / 2))
            identity = _residual_str(
                mp.exp(consts.expansion_constant) * consts.boundary_scale * gamma_neg
                - 1
            )
        payload.update(
            {
                "boundary_scale": consts.boundary_scale,
                "expansion_constant": consts.expansion_constant,
                "product_identity_residual": identity,
            }
        )
        payload["_csv"] = (
            ["boundary_scale", "expansion_constant", "product_identity_residual"],
            [[consts.boundary_scale, consts.expansion_constant, identity]],
        )
    return payload, 0


def _cmd_conjecture(ns: argparse.Namespace, cfg: PrecisionConfig):
    # Imported here: it loads numpy, which most subcommands never need.
    from . import conjecture

    state = conjecture.solve_phase_equation(ns.p, ns.x_max, ns.nodes, tol=ns.tol)
    payload = {
        "p": state.p,
        "L": state.L,
        "residual_norm": state.residual_norm,
        "residual_height_form": conjecture.phase_residual(state),
        "iterations": state.iterations,
        "converged": state.converged,
        "failed": not state.converged,
        "nodes": int(state.grid.size),
        "x_max": float(state.grid[-1]),
    }
    payload["_csv"] = (
        ["iteration", "nodes", "residual", "L"],
        [[i, *row] for i, row in enumerate(state.history)],
    )
    return payload, 0 if state.converged else 2


def _cmd_convert(ns: argparse.Namespace, cfg: PrecisionConfig):
    with cfg.workprec():
        a = mp.mpf(ns.a)
        b = asymptotics.akhiezer_b_from_a(a)
        # The builder owns the rules on s and l; without --l degree 1 stands in.
        remez.build_akhiezer_problem(ns.s, b, 1 if ns.l is None else ns.l)
        endpoint_ratio = (1 - a) / (1 + a)
        payload = {"s": ns.s, "a": ns.a, "b": b, "endpoint_ratio": endpoint_ratio}
        if ns.error is not None:
            if ns.l is None:
                raise InvalidProblemError("converting an error needs --l (degree)")
            payload["shifted_error"] = ns.error
            payload["symmetric_error"] = asymptotics.akhiezer_convert(ns.s, ns.a, ns.error)
            payload["symmetric_degree"] = 2 * ns.l
    row = [payload.get(k, "") for k in ("b", "endpoint_ratio", "symmetric_error")]
    payload["_csv"] = (["b", "endpoint_ratio", "symmetric_error"], [row])
    return payload, 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", type=int, default=256, help="mantissa bits (default 256)")
    parser.add_argument("--output", help="report path; stdout when omitted")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", required=True, choices=tuple(_FAMILIES), help="problem family"
    )
    parser.add_argument("--p", help="exponent of |x|^p (absxp)")
    parser.add_argument("--a", help="inner endpoint a of [a, 1]")
    parser.add_argument("--k", type=int, help="negative-degree count (sgn-laurent)")
    parser.add_argument("--s", help="exponent s of (b+x)^-s (akhiezer)")
    parser.add_argument("--b", help="shift b > 1 (akhiezer)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernlab",
        description="High-precision minimax solvers and their asymptotic verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one minimax solve")
    _add_family(sp)
    sp.add_argument("--m", type=int, help="polynomial degree")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("sweep", help="degree sweep with optional predictions")
    _add_family(sp)
    sp.add_argument("--m", help="degrees: '8', '5,10,20', '5..20' or '5..20..5'")
    sp.add_argument("--predict", action="store_true", help="add predicted column")
    sp.add_argument("--jobs", type=int, default=1, help="parallel solver processes")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("verify-curve", help="phase trace and curve-equation residuals")
    sp.add_argument("--p", required=True, help="exponent of |x|^p")
    sp.add_argument("--a", required=True, help="inner endpoint a")
    sp.add_argument("--m", type=int, required=True, help="polynomial degree")
    sp.add_argument("--y-min", default="0.05", help="trace start on the imaginary axis")
    sp.add_argument("--y-max", default="3.0", help="trace end")
    sp.add_argument("--y-count", type=int, default=25, help="log-spaced points")
    sp.add_argument("--sign-t", help="comma list of t values for the sign-pattern check")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_verify_curve)

    sp = sub.add_parser("profiles", help="rescaled-solution distance to the limit profile")
    _add_family(sp)
    sp.add_argument("--m", help="degrees: '4,8,16' or '4..16..4'")
    sp.add_argument("--lambda-min", default="0.1", help="profile grid start")
    sp.add_argument("--lambda-max", default="3.0", help="profile grid end")
    sp.add_argument("--lambda-count", type=int, default=25, help="grid points")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_profiles)

    sp = sub.add_parser("conformal", help="slit-map constants and boundary identities")
    sp.add_argument("--k", type=int, help="slit-map index")
    sp.add_argument("--p", help="limit-map exponent")
    sp.add_argument(
        "--task",
        required=True,
        choices=("boundary", "offsets", "zero", "constants"),
        help="what to compute",
    )
    sp.add_argument("--xi-min", default="0.1", help="boundary grid start")
    sp.add_argument("--xi-max", default="10", help="boundary grid end")
    sp.add_argument("--xi-count", type=int, default=15, help="boundary grid points")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_conformal)

    sp = sub.add_parser("conjecture", help="whole-line phase-equation solver")
    sp.add_argument("--p", default="1", help="exponent label (equation is p-free)")
    sp.add_argument("--x-max", type=float, default=40.0, help="grid half-width")
    sp.add_argument("--nodes", type=int, default=4096, help="grid size (even)")
    sp.add_argument("--tol", type=float, default=1e-8, help="convergence residual")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_conjecture)

    sp = sub.add_parser("convert", help="map two-interval data to the shifted problem")
    sp.add_argument("--s", required=True, help="exponent s")
    sp.add_argument("--a", required=True, help="inner endpoint a")
    sp.add_argument("--l", type=int, help="shifted-problem degree")
    sp.add_argument("--error", help="shifted-problem error to convert")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        cfg = PrecisionConfig(mantissa_bits=ns.bits)
        payload, code = ns.handler(ns, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        diagnostics = getattr(exc, "diagnostics", None)
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "diagnostics": diagnostics,
            },
            "_csv": (["error_type", "message"], [[type(exc).__name__, str(exc)]]),
        }
        _emit(ns, cfg, payload)
        return 2
    _emit(ns, cfg, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
