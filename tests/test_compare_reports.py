"""tools/compare_reports.py, which gates a refactor's reports: a moved number
is listed and passes, anything else fails."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


REPORT = {"command": "solve", "results": {"family": "absxp", "E": "3.17e-7", "rows": [{"m": 8}]}}
CSV = "m,E\n4,1.25e-3\n8,3.17e-7\n"


def _write(root, report=REPORT, csv=CSV, code=0):
    root.mkdir()
    (root / "solve.out").write_text(json.dumps(report))
    (root / "solve.err").write_text("")
    (root / "solve.code").write_text(f"{code}\n")
    (root / "sweep.out").write_text(csv)
    return root


def _run(compare, capsys, tmp_path, **changed):
    a = _write(tmp_path / "a")
    b = _write(tmp_path / "b", **changed)
    code = compare([str(a), str(b)])
    return code, capsys.readouterr().out


def test_identical_reports_pass(compare, capsys, tmp_path):
    code, out = _run(compare, capsys, tmp_path)
    assert code == 0
    assert "4 of 4 files identical" in out


def test_moved_numbers_pass_and_are_listed(compare, capsys, tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["results"]["E"] = "3.18e-7"
    code, out = _run(compare, capsys, tmp_path, report=moved, csv=CSV.replace("1.25e-3", "1.26e-3"))
    assert code == 0
    assert "results.E  1/1 moved" in out
    assert "  E  1/2 moved" in out


@pytest.mark.parametrize(
    "change",
    [
        {"report": {**REPORT, "inputs": {}}},
        {"report": {**REPORT, "command": "sweep"}},
        {"code": 1},
    ],
    ids=["key", "string", "exit code"],
)
def test_anything_but_a_number_fails(compare, capsys, tmp_path, change):
    code, out = _run(compare, capsys, tmp_path, **change)
    assert code == 1
    assert "1 non-numeric differences" in out


@pytest.mark.parametrize("side", ["a", "b"])
def test_a_file_missing_on_one_side_fails(compare, capsys, tmp_path, side):
    a = _write(tmp_path / "a")
    b = _write(tmp_path / "b")
    (tmp_path / side / "sweep.out").unlink()
    code = compare([str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"sweep.out: missing in {tmp_path / side}" in out
