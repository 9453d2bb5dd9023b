"""Property tests of the netlist text form over random element chains, and of
the netlist records' type checks over the shipped netlists.

Every element kind of ``lopcsim.elements.KINDS`` appears in each generated
netlist, so a kind added to the table is covered without touching this file.
"""

import math
import re
from contextlib import suppress
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopcsim import NetlistError, builtin_variant, parse, render, validate
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.netlist import (
    VARIANTS,
    CircuitNetlist,
    MeasurementOutcome,
    MeasurementRule,
    Ports,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
NAMES = st.builds(str.__add__, st.sampled_from(_FIRST), st.text(_FIRST + "0123456789", max_size=7))
#: Open unit interval: a legal ppbs tv, filter th/tv and hwp angle alike.
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: Each part at most 0.35, so a 2x2 matrix of them has Frobenius norm below
#: one and is subunitary: a legal jones matrix.
PART = st.floats(-0.35, 0.35)


def _entry(is_complex):
    return st.builds(complex, PART, PART) if is_complex else UNIT.map(complex)


@st.composite
def elements(draw, kind_name, paths, name):
    kind = KINDS[kind_name]
    wiring = []
    for _, count in kind.ports:
        distinct = st.lists(st.sampled_from(paths), min_size=count, max_size=count, unique=True)
        wiring += draw(distinct)
    params = [draw(_entry(f.is_complex)) for f in kind.fields for _ in range(f.count)]
    return ElementSpec(kind_name, name, tuple(wiring), tuple(params))


@st.composite
def netlists(draw):
    """One to two elements of every kind in random order, then a measurement
    with one or two orthonormal outcome kets and ports.  The target outputs,
    the control output and the measurement path are distinct paths, which
    the post-selection ``render`` writes from them requires."""
    paths = draw(st.lists(NAMES, min_size=4, max_size=8, unique=True))
    pick = st.sampled_from(paths)
    repeats = [(k, draw(st.integers(1, 2))) for k in sorted(KINDS)]
    kinds = draw(st.permutations([k for k, n in repeats for _ in range(n)]))
    names = draw(st.lists(NAMES, min_size=len(kinds), max_size=len(kinds), unique=True))
    chain = [draw(elements(k, paths, n)) for k, n in zip(kinds, names)]

    a = draw(st.floats(-math.pi, math.pi))
    c, s = complex(math.cos(a)), complex(math.sin(a))
    kets = [(c, s), (-s, c)]
    labels = draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))
    size = len(labels)
    corrects = draw(
        st.lists(st.sampled_from([None, *chain]), min_size=size, max_size=size, unique=True)
    )
    outcomes = tuple(MeasurementOutcome(*o) for o in zip(labels, kets, corrects))
    stages = tuple(e for e in chain if e not in corrects)

    outputs = draw(st.lists(pick, min_size=4, max_size=4, unique=True))
    target_out = tuple(outputs[: draw(st.integers(1, 2))])
    control_out, measured = outputs[2:]
    return CircuitNetlist(
        paths=tuple(paths),
        stages=stages,
        measurement=MeasurementRule(measured, outcomes),
        measure_after=draw(st.integers(0, len(stages))),
        ports=Ports(draw(pick), draw(pick), draw(pick), target_out, control_out),
    )


@SETTINGS
@given(netlists())
def test_render_parse_round_trip_of_random_chains(nl):
    for spec in nl.stages + nl.corrections:
        spec.build()  # every generated parameter is legal
    assert parse(render(nl)) == nl


@SETTINGS
@given(netlists(), st.data())
def test_corrupted_element_token_is_rejected_at_its_line(nl, data):
    lines = render(nl).splitlines()
    element_lines = [i for i, text in enumerate(lines) if text.split()[0] in KINDS]
    index = data.draw(st.sampled_from(element_lines))
    tokens = lines[index].split()
    at = data.draw(st.integers(0, len(tokens) - 1))
    numeric = at >= 2 + len(KINDS[tokens[0]].ports)
    how = data.draw(st.sampled_from(["drop", "junk", "value"] if at >= 2 else ["drop", "junk"]))
    if how == "drop":
        del tokens[at]
    elif how == "junk":
        tokens[at] = "?" + tokens[at]
    else:
        bad = ["", "?", "1,2,3,4,5"] + (["nan", "inf", "-inf"] if numeric else [])
        tokens[at] = tokens[at].split("=", 1)[0] + "=" + data.draw(st.sampled_from(bad))
    lines[index] = " ".join(tokens)
    with pytest.raises(NetlistError) as err:
        parse("\n".join(lines) + "\n")
    assert err.value.line == index + 1


#: Whitespace inside a line: ``str.split`` and ``\S`` agree on every
#: whitespace character, and only ``\n`` and ``\r`` end a line, so the
#: characters ``str.splitlines`` also breaks at go anywhere in one.
BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u2029\u3000"


@SETTINGS
@given(netlists(), st.data())
def test_corrupted_token_is_located_in_respaced_text(nl, data):
    r"""Tokens re-spaced with runs of any whitespace, after a leading run and
    before a trailing comment, and one token of an element line corrupted:
    the error names the line of that statement and the column of the token
    (plus the ``key=`` of a bad value) that ``\S+`` finds in the raw line."""
    lines = render(nl).splitlines()
    index = data.draw(st.sampled_from([i for i, t in enumerate(lines) if t.split()[0] in KINDS]))
    tokens = lines[index].split()
    how = data.draw(st.sampled_from(["drop", "junk", "value"]))
    if how == "drop":  # a statement one token short is reported at its keyword
        del tokens[data.draw(st.integers(1, len(tokens) - 1))]
        where = (0, 0)
    elif how == "junk":
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = "?" + tokens[at]
        where = (at, 0)
    else:
        at = data.draw(st.integers(2, len(tokens) - 1))
        key = tokens[at].split("=", 1)[0]
        tokens[at] = f"{key}={data.draw(st.sampled_from(['', '?', '1,2,3,4,5', 'nan']))}"
        where = (at, len(key) + 1)
    text = ""
    for i, line in enumerate(lines):
        words = tokens if i == index else line.split()
        lead = data.draw(st.text(BLANKS, max_size=3))
        runs = [data.draw(st.text(BLANKS, min_size=1, max_size=3)) for _ in words]
        comment = data.draw(st.sampled_from(["", "# comment"]))
        if i == index:
            start = len(text) + len(lead)
        text += lead + words[0] + "".join(map(str.__add__, runs, words[1:])) + runs[-1] + comment
        text += "\n"
    with pytest.raises(NetlistError) as err:
        parse(text)
    line = text.count("\n", 0, start) + 1
    token, offset = where
    match = list(re.finditer(r"\S+", text.split("\n")[line - 1]))[token]
    assert (err.value.line, err.value.col) == (line, match.start() + 1 + offset)


def _set(items, i, value):
    """``items`` with its ``i``-th entry, counted round, set to ``value``."""
    i %= len(items)
    return (*items[:i], value, *items[i + 1:])


def _stage(nl, i, **change):
    return replace(nl, stages=_set(nl.stages, i, replace(nl.stages[i % len(nl.stages)], **change)))


def _outcome(nl, i, **change):
    rule = nl.measurement
    outcome = replace(rule.outcomes[i % len(rule.outcomes)], **change)
    return replace(nl, measurement=replace(rule, outcomes=_set(rule.outcomes, i, outcome)))


_SINGLE_PORTS = ("target_in", "control_in", "program_in", "control_out")

#: Per record field: the type it takes, and ``edit(nl, i, value)``, the shipped
#: netlist ``nl`` with that field (of its ``i``-th path, stage, outcome or single
#: ``ports`` entry, counted round) set to ``value`` through ``dataclasses.replace``.
FIELDS = {
    "path name": (str, lambda nl, i, v: replace(nl, paths=_set(nl.paths, i, v))),
    "paths": (tuple, lambda nl, i, v: replace(nl, paths=v)),
    "element name": (str, lambda nl, i, v: _stage(nl, i, name=v)),
    "element kind": (str, lambda nl, i, v: _stage(nl, i, kind=v)),
    "element params": (tuple, lambda nl, i, v: _stage(nl, i, params=v)),
    "element path": (str, lambda nl, i, v: _stage(
        nl, i, paths=_set(nl.stages[i % len(nl.stages)].paths, 0, v))),
    "element paths": (tuple, lambda nl, i, v: _stage(nl, i, paths=v)),
    "stage": (ElementSpec, lambda nl, i, v: replace(nl, stages=_set(nl.stages, i, v))),
    "stages": (tuple, lambda nl, i, v: replace(nl, stages=v)),
    "measurement path": (str, lambda nl, i, v: replace(
        nl, measurement=replace(nl.measurement, path=v))),
    "label": (str, lambda nl, i, v: _outcome(nl, i, label=v)),
    "correct": ((ElementSpec, type(None)), lambda nl, i, v: _outcome(nl, i, correct=v)),
    "outcome": (MeasurementOutcome, lambda nl, i, v: replace(nl, measurement=replace(
        nl.measurement, outcomes=_set(nl.measurement.outcomes, i, v)))),
    "measure_after": (int, lambda nl, i, v: replace(nl, measure_after=v)),
    "ports entry": (str, lambda nl, i, v: replace(
        nl, ports=replace(nl.ports, **{_SINGLE_PORTS[i % 4]: v}))),
    "target_out": (tuple, lambda nl, i, v: replace(nl, ports=replace(nl.ports, target_out=v))),
}
#: None, an int, a float, a list of str or a str: of a wrong type for most fields,
#: and of the right one for some (a str name, an int position, no correction).
VALUES = st.one_of(st.none(), st.integers(-2, 14), st.floats(), st.lists(NAMES, max_size=2), NAMES)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(VARIANTS), st.sampled_from(sorted(FIELDS)), st.integers(0, 11), VALUES)
def test_a_field_of_the_wrong_type_is_refused_where_the_record_is_built(variant, name, i, value):
    """A value of a type the field does not take raises ValueError when the record
    is built, never another exception; a netlist that is built is listed by
    ``validate`` and written by ``render``, or refused by it with ValueError."""
    takes, edit = FIELDS[name]
    if not isinstance(value, takes):
        with pytest.raises(ValueError):
            edit(builtin_variant(variant), i, value)
        return
    try:
        changed = edit(builtin_variant(variant), i, value)
    except ValueError:  # well typed, but refused: a position outside the stage list
        return
    assert isinstance(validate(changed), list)
    with suppress(ValueError):
        render(changed)
