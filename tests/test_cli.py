"""Command-line reports: structure, determinism, formats, exit codes."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import bernlab.cli
from bernlab.cli import main


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


def test_cli_import_does_not_load_scipy():
    src = str(Path(bernlab.cli.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import bernlab.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
    assert rows[0] == ["iteration", "nodes", "phase", "residual", "L"]
    assert {r[2] for r in rows[1:]} <= {"0", "1"}


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


def test_unknown_flag_exits_one():
    assert main(["solve", "--no-such-flag"]) == 1


def test_output_dir_environment_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("BERNLAB_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["convert", "--s", "1", "--a", "0.5", "--bits", "128", "--output", "rel.json"]
    )
    assert code == 0
    assert (tmp_path / "rel.json").exists()
