"""Compare two directories written by tools/golden_reports.py.

    python tools/compare_reports.py A B

For each report that differs, prints every numeric field that moved, with
how many of its values moved and the largest relative change
|a - b| / max(|a|, |b|) among them.  A field is a JSON path with list
indices folded to [] (results.alternation[]), or a CSV column.  Exits 1 if a
file is missing on one side, an exit code changed, or anything other than a
number differs (a key, a string, a row count, stderr); exits 0 otherwise,
also when every report is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

from mpmath import mp

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


class Mismatch(Exception):
    """A difference that is not a change of a number."""


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return mp.mpf(value)
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        return mp.mpf(value)
    return None


def _record(changes, field, a, b):
    x, y = _number(a), _number(b)
    if x is None or y is None:
        if a != b:
            raise Mismatch(f"{field}: {a!r} -> {b!r}")
        return
    moved, total, worst = changes.get(field, (0, 0, mp.mpf(0)))
    if x != y:
        moved += 1
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    changes[field] = (moved, total + 1, worst)


def _walk_json(changes, path, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{path or '.'}: keys {sorted(a)} -> {sorted(b)}")
        for key in a:
            _walk_json(changes, f"{path}.{key}" if path else key, a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{path}: {len(a)} -> {len(b)} entries")
        for x, y in zip(a, b):
            _walk_json(changes, f"{path}[]", x, y)
    else:
        _record(changes, path, a, b)


def _walk_csv(changes, a, b):
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        raise Mismatch("CSV header or row count differs")
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            raise Mismatch("CSV row length differs")
        for i, (x, y) in enumerate(zip(row_a, row_b)):
            _record(changes, header[i] if i < len(header) else f"column {i}", x, y)


def field_changes(name, a: str, b: str) -> dict:
    """{field: (values moved, values, largest relative change)} of one report."""
    if not name.endswith(".out"):
        raise Mismatch("differs")
    try:
        doc_a, doc_b = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        changes = {}
        _walk_csv(changes, a, b)
        return changes
    changes = {}
    _walk_json(changes, "", doc_a, doc_b)
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reports of the reference checkout")
    parser.add_argument("b", type=Path, help="reports of the changed checkout")
    ns = parser.parse_args(argv)
    names = sorted({p.name for p in ns.a.iterdir()} | {p.name for p in ns.b.iterdir()})
    failed = identical = 0
    # Enough digits for reports of any --bits the golden set uses.
    with mp.workdps(1000):
        for name in names:
            path_a, path_b = ns.a / name, ns.b / name
            if not (path_a.exists() and path_b.exists()):
                print(f"{name}: missing in {ns.b if path_a.exists() else ns.a}")
                failed += 1
                continue
            a, b = path_a.read_text(), path_b.read_text()
            if a == b:
                identical += 1
                continue
            if name.endswith(".code"):
                print(f"{name}: exit code {a.strip()} -> {b.strip()}")
                failed += 1
                continue
            try:
                changes = field_changes(name, a, b)
            except Mismatch as exc:
                print(f"{name}: {exc}")
                failed += 1
                continue
            print(name)
            for field, (moved, total, worst) in changes.items():
                if moved:
                    print(f"  {field}  {moved}/{total} moved, max rel {mp.nstr(worst, 3)}")
    print(f"{identical} of {len(names)} files identical, {failed} non-numeric differences")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
