"""Committed CLI outputs that every later version must reproduce.

Each file under ``tests/golden/`` is the output of the command named in
``GOLDEN``, written with ``--out``.  The test re-runs the command and
compares the header, every non-numeric cell (branch labels, ``ok`` flags)
and the row count exactly, and every number to an absolute 1e-12.

Why 1e-12: the numbers are probabilities (about 1/48), fidelities (about 1),
amplitude errors (about 1e-16) and phases of order 1.  Reordering the
floating-point arithmetic behind them moves each by a few units in the last
place, at most about 1e-15; a change to the physics or to a convention
moves them by far more than 1e-12.  Regenerate a file only when its output
is meant to change, and say why in the change that does.
"""

import json
import math
from pathlib import Path

import pytest

from lopcsim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
ABS_TOL = 1e-12

GOLDEN = {
    f"{command}-{variant}.{fmt}": [command, "--variant", variant, "--format", fmt, *extra]
    for command, extra in (("sweep", ["--steps", "21"]), ("verify", []))
    for variant in ("basic", "ff", "dual", "full")
    for fmt in ("csv", "json")
}
GOLDEN.update({f"hom.{fmt}": ["hom", "--steps", "41", "--format", fmt] for fmt in ("csv", "json")})


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _same_cell(expected, found):
    """Numbers within ABS_TOL, anything else exactly."""
    if isinstance(expected, bool) or isinstance(found, bool):
        return expected is found
    try:
        a, b = float(expected), float(found)
    except (TypeError, ValueError):
        return expected == found
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= ABS_TOL


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    capsys.readouterr()
    expected_text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    found_text = out.read_text(encoding="utf-8")
    if name.endswith(".csv"):
        expected_header, expected = _csv_rows(expected_text)
        found_header, found = _csv_rows(found_text)
        assert found_header == expected_header
    else:
        expected = [sorted(row.items()) for row in json.loads(expected_text)]
        found = [sorted(row.items()) for row in json.loads(found_text)]
        assert [[k for k, _ in row] for row in found] == [[k for k, _ in row] for row in expected]
        expected = [[v for _, v in row] for row in expected]
        found = [[v for _, v in row] for row in found]
    assert len(found) == len(expected)
    for k, (want, got) in enumerate(zip(expected, found)):
        assert len(got) == len(want), f"row {k}"
        for want_cell, got_cell in zip(want, got):
            assert _same_cell(want_cell, got_cell), f"row {k}: {got} != golden {want}"
