"""Command-line reports: structure, determinism, formats, exit codes."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import bernlab.cli
from bernlab import conformal, curveverify
from bernlab.asymptotics import predict_akhiezer_error, predict_power_error, predict_slit_height
from bernlab.cli import main
from bernlab.precision import PrecisionConfig
from bernlab.remez import build_akhiezer_problem, build_sgn_problem, solve


def _run_json(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_solve_report_structure(tmp_path):
    code, doc = _run_json(
        tmp_path,
        "solve.json",
        ["solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "4", "--bits", "128"],
    )
    assert code == 0
    assert doc["schema"] == "bernlab-report/1"
    assert doc["command"] == "solve"
    assert doc["inputs"]["family"] == "absxp"
    assert doc["inputs"]["m"] == 4
    assert doc["inputs"]["bits"] == 128
    results = doc["results"]
    assert results["degree"] == 4
    assert len(results["alternation"]) == 6
    assert len(results["coefficients"]) == 5
    assert results["signs"][0] in (-1, 1)
    # Numbers appear as decimal strings, never as parsed floats.
    assert isinstance(results["error_E"], str)
    assert float(results["error_E"]) > 0


def test_reports_are_byte_identical(tmp_path):
    args = ["solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "4", "--bits", "128"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_csv_header_and_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--family", "sgn-laurent", "--k", "1", "--a", "0.5",
            "--m", "3..5", "--predict", "--bits", "128",
            "--format", "csv", "--output", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["m", "E", "predicted", "ratio"]
    assert [r[0] for r in rows[1:]] == ["3", "4", "5"]
    assert all(float(r[1]) > 0 for r in rows[1:])


def test_sweep_without_predictions(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--family", "absxp", "--p", "1", "--a", "0.5",
            "--m", "3,4", "--bits", "128", "--format", "csv", "--output", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["m", "E"]


def test_akhiezer_gap_input_solves_at_full_precision(tmp_path):
    # --a 0.5 means b = 5/3; at degree l = 4 Chebyshev's closed form gives
    # E = (b - sqrt(b^2-1))^l / (b^2-1) = 1/144 exactly.
    code, doc = _run_json(
        tmp_path,
        "akhiezer.json",
        ["solve", "--family", "akhiezer", "--s", "1", "--a", "0.5", "--m", "4"],
    )
    assert code == 0
    with mp.workprec(256):
        error = mp.mpf(doc["results"]["error_E"])
        assert abs(error * 144 - 1) < mp.mpf("1e-20")


def test_convert_error_runs_at_full_precision(tmp_path):
    # a = 0.6 gives b = 1.36/0.64 = 2.125, so (1+b)^s * 0.01 = 0.03125 at s = 1.
    code, doc = _run_json(
        tmp_path,
        "convert.json",
        ["convert", "--s", "1", "--a", "0.6", "--l", "3", "--error", "0.01"],
    )
    assert code == 0
    with mp.workprec(256):
        error = mp.mpf(doc["results"]["symmetric_error"])
        assert abs(error / mp.mpf("0.03125") - 1) < mp.mpf("1e-30")


@pytest.mark.parametrize(
    "args",
    [
        ["--s", "1", "--a", "0.5", "--l", "-3", "--error", "1e-5"],
        ["--s", "0", "--a", "0.5"],
        ["--s", "1", "--a", "0.5", "--l", "2", "--error=-1e-5"],
    ],
)
def test_convert_rejects_invalid_input(tmp_path, capsys, args):
    # s and l follow the Akhiezer builder's rules; a negative error is refused.
    out = tmp_path / "convert.json"
    assert main(["convert", *args, "--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family", [["--k", "1"], ["--p", "1.5"]])
def test_boundary_report_checks_principal_value(tmp_path, family):
    # Quadrature principal values against the closed form; at 256 bits the
    # quadrature's own tolerance is 2^-128, so 1e-35 leaves slack and still
    # catches a 1e-30 shift.
    code, doc = _run_json(
        tmp_path, "boundary.json", ["conformal", *family, "--task", "boundary", "--xi-count", "3"]
    )
    assert code == 0
    results = doc["results"]
    assert [sorted(row) for row in results["rows"]] == [["pv_residual", "residual", "xi"]] * 3
    with mp.workprec(256):
        assert abs(mp.mpf(results["max_residual"])) < mp.mpf("1e-8")
        assert abs(mp.mpf(results["max_pv_residual"])) < mp.mpf("1e-35")


@pytest.mark.parametrize(
    "family, boundary", [(["--k", "1"], "slit_map_boundary"), (["--p", "1.5"], "limit_map_boundary")]
)
def test_boundary_report_checks_the_maps(tmp_path, monkeypatch, family, boundary):
    # The principal values are compared with the maps' own boundary values,
    # so a 1e-30 shift in a map's cauchy_part shows in the report.
    original = getattr(conformal, boundary)

    def shifted(*args):
        sample = original(*args)
        return conformal.ConformalSample(
            sample.zeta, sample.value, sample.cauchy_part + mp.mpf("1e-30")
        )

    monkeypatch.setattr(conformal, boundary, shifted)
    code, doc = _run_json(
        tmp_path, "boundary.json", ["conformal", *family, "--task", "boundary", "--xi-count", "3"]
    )
    assert code == 0
    with mp.workprec(256):
        assert abs(mp.mpf(doc["results"]["max_pv_residual"])) > mp.mpf("1e-35")


def test_profiles_grid_is_built_at_working_precision(tmp_path):
    # The grid 0.1 + i * 2.9/12 (default ends, 13 points) holds points such
    # as 0.825 that no binary float holds; built at 53 bits they would be
    # off by about 1e-17.
    code, doc = _run_json(
        tmp_path,
        "profiles.json",
        ["profiles", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "4",
         "--lambda-count", "13"],
    )
    assert code == 0
    with mp.workprec(320):
        got = mp.mpf(doc["results"]["rows"][0]["lambda_at_sup"])
        step = (mp.mpf("3.0") - mp.mpf("0.1")) / 12
        nearest = min((mp.mpf("0.1") + step * i for i in range(13)), key=lambda x: abs(x - got))
        assert abs(got - nearest) < mp.mpf(2) ** -250


@pytest.mark.parametrize("module", ["scipy", "numpy", "multiprocessing"])
def test_cli_import_does_not_load(module):
    src = str(Path(bernlab.cli.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import bernlab.cli; "
        f"print(any(m.split('.')[0] == {module!r} for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_only_the_conjecture_subcommand_loads_numpy(tmp_path):
    # One fresh interpreter: four subcommands that never touch numpy, then
    # the one that does.
    src = str(Path(bernlab.cli.__file__).parents[1])
    out = str(tmp_path / "report.json")
    probe = f"""
import sys
sys.path.insert(0, {src!r})
from bernlab.cli import main
for args in (
    ["solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "2", "--bits", "64"],
    ["sweep", "--family", "absxp", "--p", "1", "--a", "0.5", "--m", "2,3", "--bits", "64",
     "--jobs", "1"],
    ["convert", "--s", "1", "--a", "0.5"],
    ["conformal", "--k", "1", "--task", "offsets", "--bits", "64"],
):
    assert main(args + ["--output", {out!r}]) == 0, args
    assert "numpy" not in sys.modules, args
print(main(["conjecture", "--nodes", "512", "--output", {out!r}]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0"


def test_convert_report(tmp_path):
    code, doc = _run_json(
        tmp_path, "convert.json", ["convert", "--s", "1", "--a", "0.5", "--bits", "128"]
    )
    assert code == 0
    results = doc["results"]
    assert abs(float(results["b"]) - 5.0 / 3.0) < 1e-30
    assert abs(float(results["endpoint_ratio"]) - 1.0 / 3.0) < 1e-30
    assert "symmetric_error" not in results


def test_convert_with_error(tmp_path):
    code, doc = _run_json(
        tmp_path,
        "convert.json",
        ["convert", "--s", "1", "--a", "0.5", "--l", "3", "--error", "0.01", "--bits", "128"],
    )
    assert code == 0
    results = doc["results"]
    assert results["symmetric_degree"] == 6
    assert abs(float(results["symmetric_error"]) - (8.0 / 3.0) * 0.01) < 1e-15


def test_conjecture_report_and_trace(tmp_path):
    code, doc = _run_json(
        tmp_path, "conj.json", ["conjecture", "--nodes", "512", "--bits", "128"]
    )
    assert code == 0
    results = doc["results"]
    assert results["converged"] is True
    assert 0.28 < float(results["L"]) < 0.30
    assert float(results["residual_norm"]) < 1e-8
    out = tmp_path / "conj.csv"
    assert (
        main(["conjecture", "--nodes", "512", "--format", "csv", "--output", str(out)]) == 0
    )
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["iteration", "nodes", "residual", "L"]
    assert [int(r[0]) for r in rows[1:]] == list(range(results["iterations"]))


def test_conjecture_failure_exit_code(tmp_path):
    out = tmp_path / "fail.json"
    code = main(
        ["conjecture", "--nodes", "512", "--tol", "1e-18", "--output", str(out)]
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["results"]["converged"] is False


def test_runtime_errors_become_diagnostic_reports(tmp_path):
    # A phase trace seeded too far up the axis cannot lock onto a branch;
    # the report must still be written, with the error classified.
    out = tmp_path / "err.json"
    code = main(
        [
            "verify-curve", "--p", "1.5", "--a", "0.5", "--m", "5",
            "--y-min", "2.4", "--y-max", "3", "--y-count", "3",
            "--bits", "128", "--output", str(out),
        ]
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["results"]["error"]["type"] == "BranchTrackingError"


@pytest.mark.parametrize(
    "args",
    [
        # The predicted E at m = 200 needs about 365 bits.
        ["solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "200"],
        # The sign pattern's monomial conversion stops at degree 16.
        ["verify-curve", "--p", "1.5", "--a", "0.5", "--m", "20", "--sign-t", "0"],
    ],
)
def test_unmet_precision_budget_is_a_numerical_failure(tmp_path, args):
    code, doc = _run_json(tmp_path, "budget.json", args)
    assert code == 2
    assert doc["inputs"]["bits"] == 256
    assert doc["results"]["error"]["type"] == "PrecisionBudgetError"


def test_verify_curve_report(tmp_path):
    code, doc = _run_json(
        tmp_path,
        "curve.json",
        [
            "verify-curve", "--p", "1.5", "--a", "0.5", "--m", "5",
            "--y-count", "9", "--sign-t", "0,0.5", "--bits", "128",
        ],
    )
    assert code == 0
    results = doc["results"]
    assert float(results["max_relative_residual"]) < 1e-6
    assert len(results["trace"]) == 9
    patterns = results["sign_pattern"]
    assert len(patterns) == 2
    assert all(entry["passed"] for entry in patterns)


def test_missing_parameter_exits_one(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["solve", "--family", "absxp", "--m", "4", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_sweep_with_zero_jobs_exits_one(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(
        [
            "sweep", "--family", "absxp", "--p", "1", "--a", "0.5",
            "--m", "3,4", "--jobs", "0", "--output", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert "jobs" in capsys.readouterr().err


def test_sweep_with_repeated_degrees_exits_one(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(
        [
            "sweep", "--family", "absxp", "--p", "1", "--a", "0.5",
            "--m", "3,3", "--bits", "64", "--output", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert "repeat" in capsys.readouterr().err


def test_profiles_with_repeated_degrees_exits_one(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(
        [
            "profiles", "--family", "absxp", "--p", "1.5", "--a", "0.5",
            "--m", "4,4", "--bits", "64", "--lambda-count", "3",
            "--format", "csv", "--output", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert "repeat" in capsys.readouterr().err


def test_exhausted_iteration_budget_writes_error_report(tmp_path, monkeypatch):
    monkeypatch.setattr(bernlab.remez, "_MAX_ITERATIONS", 1)
    code, doc = _run_json(
        tmp_path,
        "budget.json",
        ["solve", "--family", "absxp", "--p", "1.5", "--a", "0.5", "--m", "8"],
    )
    assert code == 2
    error = doc["results"]["error"]
    assert error["type"] == "NonConvergenceError"
    assert "iteration budget" in error["message"]
    assert error["diagnostics"]["iterations"] == 1
    # The only step ran below the working precision; its ratio keeps only
    # the digits of that step's bits.
    digits = error["diagnostics"]["ratio"].lower().split("e")[0].replace(".", "").lstrip("-0")
    assert 0 < len(digits) <= 30
    assert error["diagnostics"]["bits"] < 256


def test_unknown_flag_exits_one():
    assert main(["solve", "--no-such-flag"]) == 1


def test_output_dir_environment_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("BERNLAB_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["convert", "--s", "1", "--a", "0.5", "--bits", "128", "--output", "rel.json"]
    )
    assert code == 0
    assert (tmp_path / "rel.json").exists()


def test_akhiezer_sweep_rows_match_solver_and_predictor(tmp_path):
    code, doc = _run_json(
        tmp_path,
        "sweep.json",
        [
            "sweep", "--family", "akhiezer", "--s", "1.5", "--b", "2",
            "--m", "3,5", "--predict", "--bits", "128",
        ],
    )
    assert code == 0
    cfg = PrecisionConfig(mantissa_bits=128)
    rows = doc["results"]["rows"]
    assert [row["m"] for row in rows] == [3, 5]
    for row in rows:
        error = solve(build_akhiezer_problem("1.5", "2", row["m"]), cfg).error
        predicted = predict_akhiezer_error("1.5", "2", row["m"], cfg)
        assert row["E"] == bernlab.cli._num_str(error, cfg)
        assert row["predicted"] == bernlab.cli._num_str(predicted, cfg)


def test_sgn_sweep_at_a_small_gap_reports_negative_heights(tmp_path):
    # At a = 0.05 the leading-order slit height is negative for m = 1 and 2,
    # so those rows' ratios are negative; every solve succeeds.
    code, doc = _run_json(
        tmp_path,
        "sweep.json",
        ["sweep", "--family", "sgn-laurent", "--k", "1", "--a", "0.05", "--m", "1..4", "--predict"],
    )
    assert code == 0
    cfg = PrecisionConfig()
    rows = doc["results"]["rows"]
    assert [row["m"] for row in rows] == [1, 2, 3, 4]
    for row in rows:
        error = solve(build_sgn_problem(1, "0.05", row["m"]), cfg).error
        assert row["E"] == bernlab.cli._num_str(error, cfg)
    for row in rows[:2]:
        height = predict_slit_height(1, "0.05", row["m"], cfg)
        assert height < 0
        assert row["predicted_height"] == bernlab.cli._num_str(height, cfg)


def test_negative_power_sweep_predicts(tmp_path):
    # The predictor accepts every p the solver's builder accepts, negative p
    # included.
    code, doc = _run_json(
        tmp_path,
        "sweep.json",
        ["sweep", "--family", "absxp", "--p", "-3", "--a", "0.5", "--m", "4..12..4", "--predict"],
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert [row["m"] for row in rows] == [4, 8, 12]
    for row in rows:
        predicted = predict_power_error("-3", "0.5", row["m"])
        assert row["predicted"] == bernlab.cli._num_str(predicted, PrecisionConfig())


def test_conformal_zero_report(tmp_path):
    code, doc = _run_json(
        tmp_path, "zero.json", ["conformal", "--k", "1", "--task", "zero", "--bits", "128"]
    )
    assert code == 0
    cfg = PrecisionConfig(mantissa_bits=128)
    expected = bernlab.cli._num_str(conformal.slit_map_zero(1, cfg), cfg)
    assert doc["results"]["zero_location"] == expected


def test_conformal_constants_report(tmp_path):
    code, doc = _run_json(
        tmp_path,
        "constants.json",
        ["conformal", "--p", "1.5", "--task", "constants", "--bits", "128"],
    )
    assert code == 0
    results = doc["results"]
    with mp.workprec(256):
        constant = mp.mpf(results["expansion_constant"])
        assert abs(constant - mp.log(mp.mpf("0.75"))) < mp.mpf("1e-35")
    # Rounding noise, printed to 3 significant digits.
    residual = results["product_identity_residual"]
    assert abs(float(residual)) < 1e-30
    assert residual == mp.nstr(mp.mpf(residual), 3)


def test_conformal_offsets_discrepancy_prints_three_digits(tmp_path):
    code, doc = _run_json(
        tmp_path, "offsets.json", ["conformal", "--k", "1", "--task", "offsets", "--bits", "128"]
    )
    assert code == 0
    results = doc["results"]
    spread = results["max_pairwise"]
    assert spread == mp.nstr(mp.mpf(spread), 3)
    with mp.workprec(128):
        routes = [mp.mpf(results[key]) for key in ("closed_form", "far_field", "integral")]
        widest = max(abs(x - y) for x in routes for y in routes)
    assert float(spread) == pytest.approx(float(widest), rel=5e-3)


@pytest.mark.parametrize(
    "family, flags, message",
    [
        ("absxp", ["--p", "1.5"], "family absxp needs --p and --a"),
        ("sgn-laurent", ["--a", "0.5"], "family sgn-laurent needs --k and --a"),
        ("akhiezer", ["--s", "1"], "family akhiezer needs --s and --b (or --a)"),
        ("akhiezer", ["--a", "0.5"], "family akhiezer needs --s and --b (or --a)"),
        # --a stands in for --b, so the two together are rejected.
        ("akhiezer", ["--s", "1", "--b", "2", "--a", "0.9"], "family akhiezer takes --a or --b, not both"),
    ],
)
def test_missing_family_flag_message(family, flags, message, capsys):
    assert main(["solve", "--family", family, *flags, "--m", "4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_profiles_reject_akhiezer_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran for an unsupported family")

    monkeypatch.setattr(curveverify, "solve", no_solve)
    code = main(["profiles", "--family", "akhiezer", "--s", "1", "--b", "2", "--m", "4"])
    assert code == 1
    assert "profiles exist for the power and sgn families" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["5..3", "1..5..0", "1..2..3..4"])
def test_bad_degree_range_exits_one(spec, capsys):
    code = main(["sweep", "--family", "absxp", "--p", "1", "--a", "0.5", "--m", spec])
    assert code == 1
    assert "bad degree range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, task", [("--p", "offsets"), ("--p", "zero"), ("--k", "constants")]
)
def test_conformal_task_without_its_map_flag_exits_one(flag, task, capsys):
    assert main(["conformal", flag, "1", "--task", task]) == 1
    needed = "--p" if flag == "--k" else "--k"
    assert capsys.readouterr().err == f"error: task {task} needs {needed}\n"
