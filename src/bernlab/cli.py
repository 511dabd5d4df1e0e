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

from . import asymptotics, conformal, conjecture, curveverify, remez
from .errors import InvalidProblemError
from .precision import PrecisionConfig, as_mpf
from .remez import ProblemKind
from .specialfn import cauchy_boundary, gamma_cauchy_boundary, log_gamma

SCHEMA = "bernlab-report/1"

_FAMILIES = {
    "absxp": ProblemKind.POWER,
    "sgn-laurent": ProblemKind.SGN_LAURENT,
    "akhiezer": ProblemKind.AKHIEZER,
}


# ---------------------------------------------------------------------------
# rendering


def _num_str(x, cfg: PrecisionConfig) -> str:
    with mp.workprec(cfg.mantissa_bits + 32):
        return mp.nstr(x, cfg.decimal_digits, strip_zeros=True)


def _render(obj, cfg: PrecisionConfig):
    """JSON-safe deep conversion; high-precision values become strings."""
    if isinstance(obj, dict):
        return {key: _render(val, cfg) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(val, cfg) for val in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        # repr of the builtin float; numpy scalars subclass float but
        # stringify with a type wrapper.
        return repr(float(obj))
    if isinstance(obj, (mpf, mpc)):
        return _num_str(obj, cfg)
    if isinstance(obj, ProblemKind):
        return obj.value
    if isinstance(obj, str):
        return obj
    try:
        return repr(float(obj))
    except (TypeError, ValueError):
        return str(obj)


def _cell(value, cfg: PrecisionConfig) -> str:
    rendered = _render(value, cfg)
    return rendered if isinstance(rendered, str) else str(rendered)


def _inputs_echo(ns: argparse.Namespace) -> dict:
    skip = {"handler", "output", "format"}
    return {
        key: val
        for key, val in sorted(vars(ns).items())
        if key not in skip and val is not None
    }


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("BERNLAB_OUTPUT_DIR")
    if base and not os.path.isabs(path):
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
    kind = _FAMILIES[ns.family]
    if kind is ProblemKind.POWER:
        if ns.p is None or ns.a is None:
            raise InvalidProblemError("family absxp needs --p and --a")
        return kind, {"p": ns.p, "a": ns.a}
    if kind is ProblemKind.SGN_LAURENT:
        if ns.k is None or ns.a is None:
            raise InvalidProblemError("family sgn-laurent needs --k and --a")
        return kind, {"k": ns.k, "a": ns.a}
    if ns.s is None:
        raise InvalidProblemError("family akhiezer needs --s and --b (or --a)")
    if ns.b is None:
        if ns.a is None:
            raise InvalidProblemError("family akhiezer needs --b or --a")
        with cfg.workprec():
            b = asymptotics.akhiezer_b_from_a(ns.a)
    else:
        b = ns.b
    return kind, {"s": ns.s, "b": b}


def _log_spaced(lo, hi, count: int):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if not (0 < lo < hi) or count < 2:
        raise InvalidProblemError("need 0 < min < max and at least 2 points")
    ratio = mp.log(hi / lo) / (count - 1)
    return [lo * mp.exp(ratio * i) for i in range(count)]


def _lin_spaced(lo, hi, count: int):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if not lo < hi or count < 2:
        raise InvalidProblemError("need min < max and at least 2 points")
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


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
    report = asymptotics.compare(kind, params, degrees, cfg, jobs=ns.jobs)
    with cfg.workprec():
        table = []
        for m, computed, predicted, ratio in report.rows:
            if kind is ProblemKind.SGN_LAURENT:
                # computed/predicted are slit heights; expose the errors
                # themselves alongside on the E scale.
                row = {
                    "m": m,
                    "E": 1 / mp.cosh(computed),
                    "predicted": 1 / mp.cosh(predicted),
                    "ratio": ratio,
                    "height": computed,
                    "predicted_height": predicted,
                }
            else:
                row = {"m": m, "E": computed, "predicted": predicted, "ratio": ratio}
            table.append(row)
    payload = {
        "family": ns.family,
        "parameters": {k: v for k, v in params.items()},
        "rows": table,
        "final_ratio": report.final_ratio,
        "monotone_tail": report.monotone,
    }
    if ns.predict:
        csv_rows = [[r["m"], r["E"], r["predicted"], r["ratio"]] for r in table]
        payload["_csv"] = (["m", "E", "predicted", "ratio"], csv_rows)
    else:
        payload["_csv"] = (["m", "E"], [[r["m"], r["E"]] for r in table])
    return payload, 0


def _cmd_verify_curve(ns: argparse.Namespace, cfg: PrecisionConfig):
    if ns.p is None or ns.a is None or ns.m is None:
        raise InvalidProblemError("verify-curve needs --p, --a and --m")
    problem = remez.build_problem(ProblemKind.POWER, {"p": ns.p, "a": ns.a}, ns.m)
    sol = remez.solve(problem, cfg)
    ys = _log_spaced(ns.y_min, ns.y_max, ns.y_count)
    trace = curveverify.reconstruct_phase(sol, problem, ys, cfg)
    residuals = curveverify.curve_residuals(trace, sol.error, problem.p, cfg)
    with cfg.workprec():
        max_res = max(abs(r) for r in residuals)
    payload = {
        "family": "absxp",
        "error_E": sol.error,
        "max_relative_residual": max_res,
        "trace": [
            {"y": y, "u": u, "v": v, "winding": w, "residual": r}
            for y, u, v, w, r in zip(
                trace.y_grid, trace.u, trace.v, trace.branch_windings, residuals
            )
        ],
    }
    rows = [
        [y, u, v, w, r]
        for y, u, v, w, r in zip(
            trace.y_grid, trace.u, trace.v, trace.branch_windings, residuals
        )
    ]
    payload["_csv"] = (["y", "u", "v", "winding", "residual"], rows)
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
    if kind is ProblemKind.AKHIEZER:
        raise InvalidProblemError("profiles exist for absxp and sgn-laurent only")
    degrees = _parse_degrees(ns.m)
    lams = _lin_spaced(ns.lambda_min, ns.lambda_max, ns.lambda_count)
    rows = curveverify.profile_convergence(kind, params, degrees, lams, cfg)
    payload = {
        "family": ns.family,
        "parameters": params,
        "rows": [
            {
                "m": row.degree,
                "sup_distance": row.sup_distance,
                "lambda_at_sup": row.lambda_at_sup,
            }
            for row in rows
        ],
    }
    payload["_csv"] = (
        ["m", "sup_distance", "lambda_at_sup"],
        [[row.degree, row.sup_distance, row.lambda_at_sup] for row in rows],
    )
    return payload, 0


def _boundary_residuals(ns: argparse.Namespace, cfg: PrecisionConfig):
    """Residuals of the boundary identities on a log-spaced grid, as rows
    (xi, residual, pv_residual).

    The imaginary part of the quadrature Cauchy transform on the upper edge
    of the cut must reproduce the density itself; the residual normalizes
    that to zero.  Its real part, the principal value, must match the
    closed form; pv_residual is their difference over |closed form|."""
    xis = _log_spaced(ns.xi_min, ns.xi_max, ns.xi_count)
    rows = []
    with cfg.workprec():
        if ns.k is not None:
            half = mp.mpf(2 * ns.k - 1) / 2
            dens = conformal.tooth_density(ns.k)
            scale = 1
        else:
            p = as_mpf(ns.p)
            consts = conformal.limit_constants(p, cfg, check=False)
            dens = conformal.limit_density(p, cfg)
            half = p / 2
            # Gamma(p/2) / pi, the inverse of the density's scale.
            scale = consts.boundary_scale / abs(mp.sinpi(half))
        for xi in xis:
            cau = cauchy_boundary(dens, xi, cfg)
            closed = gamma_cauchy_boundary(half, xi, cfg) / scale
            rows.append(
                (
                    xi,
                    scale * mp.exp(xi) * xi ** (-half) * mp.im(cau) - 1,
                    (mp.re(cau) - mp.re(closed)) / abs(closed),
                )
            )
    return rows


def _cmd_conformal(ns: argparse.Namespace, cfg: PrecisionConfig):
    if (ns.k is None) == (ns.p is None):
        raise InvalidProblemError("give exactly one of --k (slit map) or --p (limit map)")
    payload: dict = {"task": ns.task}
    if ns.task == "boundary":
        rows = _boundary_residuals(ns, cfg)
        with cfg.workprec():
            payload["max_residual"] = max(abs(r) for _, r, _ in rows)
            payload["max_pv_residual"] = max(abs(r) for _, _, r in rows)
        payload["rows"] = [
            {"xi": xi, "residual": r, "pv_residual": pv} for xi, r, pv in rows
        ]
        payload["_csv"] = (["xi", "residual", "pv_residual"], [list(row) for row in rows])
    elif ns.task == "offsets":
        if ns.k is None:
            raise InvalidProblemError("task offsets needs --k")
        closed = conformal.far_offset_closed(ns.k, cfg)
        far = conformal.far_offset_far_field(ns.k, cfg)
        integral = conformal.far_offset_integral(ns.k, cfg)
        with cfg.workprec():
            spread = max(
                abs(closed - far), abs(closed - integral), abs(far - integral)
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
        if ns.k is None:
            raise InvalidProblemError("task zero needs --k")
        location = conformal.slit_map_zero(ns.k, cfg)
        payload["zero_location"] = location
        payload["_csv"] = (["zero_location"], [[location]])
    elif ns.task == "constants":
        if ns.p is None:
            raise InvalidProblemError("task constants needs --p")
        consts = conformal.limit_constants(ns.p, cfg)
        with cfg.workprec():
            p = as_mpf(ns.p)
            gamma_neg = mp.exp(log_gamma(-p / 2, cfg).log_abs)
            identity = (
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
    else:
        raise InvalidProblemError(f"unknown conformal task {ns.task!r}")
    return payload, 0


def _cmd_conjecture(ns: argparse.Namespace, cfg: PrecisionConfig):
    state = conjecture.solve_phase_equation(
        ns.p,
        ns.L0,
        ns.x_max,
        ns.nodes,
        cfg,
        theta=ns.theta,
        tol=ns.tol,
    )
    payload = {
        "p": state.p,
        "L": state.L,
        "residual_norm": state.residual_norm,
        "residual_height_form": conjecture.phase_residual(state, form="height"),
        "iterations": state.iterations,
        "converged": state.converged,
        "failed": state.failed,
        "clamp_events": state.clamp_events,
        "nodes": int(state.grid.size),
        "x_max": float(state.grid[-1]),
    }
    phase_code = {"fixed-point": 0, "newton": 1}
    payload["_csv"] = (
        ["iteration", "nodes", "phase", "residual", "L"],
        [
            [i, nodes, phase_code.get(phase, -1), res, lvl]
            for i, (nodes, phase, res, lvl) in enumerate(state.history)
        ],
    )
    return payload, 0 if state.converged else 2


def _cmd_convert(ns: argparse.Namespace, cfg: PrecisionConfig):
    if ns.a is None or ns.s is None:
        raise InvalidProblemError("convert needs --s and --a")
    with cfg.workprec():
        a = as_mpf(ns.a)
        b = asymptotics.akhiezer_b_from_a(a)
        endpoint_ratio = (1 - a) / (1 + a)
        payload = {"s": ns.s, "a": ns.a, "b": b, "endpoint_ratio": endpoint_ratio}
        if ns.error is not None:
            if ns.l is None:
                raise InvalidProblemError("converting an error needs --l (degree)")
            payload["shifted_error"] = ns.error
            payload["symmetric_error"] = asymptotics.akhiezer_convert(
                ns.s, ns.a, ns.l, ns.error
            )
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
    sp.add_argument("--L0", type=float, default=0.5, help="initial level parameter")
    sp.add_argument("--x-max", type=float, default=40.0, help="grid half-width")
    sp.add_argument("--nodes", type=int, default=4096, help="grid size (even)")
    sp.add_argument("--theta", type=float, default=0.2, help="fixed-point damping")
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
        cfg = PrecisionConfig(mantissa_bits=max(64, ns.bits))
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
