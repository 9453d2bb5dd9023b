"""Differential property tests of the CLI's column emitter.

``cli._emit`` formats each distinct value of a column once and joins rows
from a fixed template, or, for a table of distinct floats only, fills one
``%`` row template repeated once per row.  Its output must equal, byte for
byte, what the row-wise rules give: ``json.dumps`` of the row dicts (indent
2, sorted keys, no NaN) for JSON, and for CSV ``%.17g`` floats,
``true``/``false`` bools and strings as they are.  Pooled columns draw from
a few values, so values repeat, and values that compare equal but print
apart (``0.0`` and ``-0.0``) meet in one column.  Float-only tables, whose
keys hold ``%``, are drawn on their own so that both paths run every time.
"""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopcsim import cli

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1.0, 1e-7, 1.7976931348623157e308, -1e-300, 0.1]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
#: Quotes, backslashes, control characters, '%' and non-ASCII text among any characters.
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x01\n\r\t\x1f\x7f%,é☃ 𝄞'), st.characters())
)
#: Values a pooled float column repeats: equal floats that print apart, the
#: smallest subnormal, and one value any float column holds, as a list or
#: as an array.
POOL = [0.0, -0.0, 5e-324, 1 / 12]
#: The CSV pool adds NaN of either sign, which JSON refuses.
NAN_POOL = POOL + [math.nan, -math.nan]
KINDS = ["float", "float-list", "bool", "str"]
FLOAT_KINDS = ["float", "float-list"]
#: Keys that a ``%`` row template must escape.
PERCENT_KEY = st.one_of(st.sampled_from(["%", "%r", "%%", "%(v)s", "100%"]), TEXT.map("%{}".format))


@st.composite
def table(draw, floats=FINITE, pool=POOL, kinds=KINDS):
    """(header, columns, rows): distinct keys, one column per key, as the
    emitter takes them and as the row-wise rules take them.  A pooled
    column draws each value from ``pool`` and one or two fresh values (or,
    for strings, from up to three labels), so its values repeat.  A
    float-only table has a key with ``%`` in it."""
    keys = [draw(PERCENT_KEY)] if kinds == FLOAT_KINDS else []
    header = draw(st.lists(TEXT, min_size=1 - len(keys), max_size=5 - len(keys), unique=True))
    header = keys + [key for key in header if key not in keys]
    n = draw(st.integers(0, 64))
    columns, plain = [], []
    for _ in header:
        kind = draw(st.sampled_from(kinds))
        pooled = draw(st.booleans())
        if kind == "bool":
            values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            columns.append(np.array(values, dtype=bool))
        elif kind == "str":
            labels = TEXT
            if pooled:
                labels = st.sampled_from(draw(st.lists(TEXT, min_size=1, max_size=3)))
            values = draw(st.lists(labels, min_size=n, max_size=n))
            columns.append(values)
        else:
            numbers = floats
            if pooled:
                numbers = st.sampled_from(pool + draw(st.lists(floats, min_size=1, max_size=2)))
            values = draw(st.lists(numbers, min_size=n, max_size=n))
            columns.append(np.array(values, dtype=float) if kind == "float" else values)
        plain.append(values)
    return header, columns, list(zip(*plain)) if plain else []


def emitted(fmt, header, columns, meta=False, netlist=""):
    args = argparse.Namespace(format=fmt, meta=meta, out=None, variant="basic", netlist=netlist)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(args, "sweep", header, columns)
    return out.getvalue(), args


def old_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


def check_json(data, meta, netlist):
    header, columns, rows = data
    text, args = emitted("json", header, columns, meta, netlist)
    payload = [dict(zip(header, row)) for row in rows]
    if meta:
        payload = {"meta": dict(cli._meta_pairs(args, "sweep")), "rows": payload}
    assert text == json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def check_csv(data, meta, netlist):
    header, columns, rows = data
    text, args = emitted("csv", header, columns, meta, netlist)
    lines = [f"# {key}={value}" for key, value in cli._meta_pairs(args, "sweep")] if meta else []
    lines.append(",".join(header))
    lines.extend(",".join(old_cell(value) for value in row) for row in rows)
    assert text == "\n".join(lines) + "\n"


@SETTINGS
@given(table(), st.booleans(), TEXT)
def test_json_equals_json_dumps(data, meta, netlist):
    check_json(data, meta, netlist)


@SETTINGS
@given(table(ANY_FLOAT, NAN_POOL), st.booleans(), TEXT)
def test_csv_equals_the_row_rule(data, meta, netlist):
    check_csv(data, meta, netlist)


@SETTINGS
@given(table(kinds=FLOAT_KINDS), st.booleans(), TEXT)
def test_float_tables_json_equals_json_dumps(data, meta, netlist):
    check_json(data, meta, netlist)


@SETTINGS
@given(table(ANY_FLOAT, NAN_POOL, FLOAT_KINDS), st.booleans(), TEXT)
def test_float_tables_csv_equals_the_row_rule(data, meta, netlist):
    check_csv(data, meta, netlist)


@SETTINGS
@given(st.lists(FINITE, max_size=5), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_json_rejects_non_finite_floats(values, bad, data):
    values.insert(data.draw(st.integers(0, len(values))), bad)
    for column in (values, np.array(values)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            emitted("json", ["x"], [column])
        with pytest.raises(ValueError):
            json.dumps([{"x": v} for v in values], allow_nan=False)


@SETTINGS
@given(table(), st.integers(1, 4), st.sampled_from(["csv", "json"]), st.data())
def test_repeated_cells_equal_repeated_values(data, k, fmt, draw):
    """Columns given with ``repeats`` print as the same columns repeated."""
    header, columns, _ = data
    m = draw.draw(st.integers(0, len(columns)))
    repeated = [
        np.repeat(c, k) if isinstance(c, np.ndarray) else [v for v in c for _ in range(k)]
        for c in columns
    ]
    args = argparse.Namespace(format=fmt, meta=False, out=None)
    texts = []
    for given_columns, repeats in ((columns[:m] + repeated[m:], [k] * m), (repeated, ())):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(args, "sweep", header, given_columns, repeats)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("array", [False, True])
@pytest.mark.parametrize("times", [1, cli.SHORTEST_DEDUPED])
def test_signed_zeros_print_apart(times, array):
    """Short columns are formatted value by value, long ones by distinct value."""
    column = [0.0, -0.0, 0.0] * times
    column = np.array(column) if array else column
    assert emitted("csv", ["x"], [column])[0] == "x\n" + "0\n-0\n0\n" * times
    rows = ",\n".join(f'  {{\n    "x": {cell}\n  }}' for cell in ("0.0", "-0.0", "0.0") * times)
    assert emitted("json", ["x"], [column])[0] == f"[\n{rows}\n]\n"
