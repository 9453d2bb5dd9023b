"""Property tests of the netlist text form over random element chains.

Every element kind of ``lopcsim.elements.KINDS`` appears in each generated
netlist, so a kind added to the table is covered without touching this file.
"""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopcsim import NetlistError, parse, render
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.netlist import (
    PHOTON_BUDGET,
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


#: Photon counts of one to three post-selected paths that meet the budget.
COUNTS = [
    c
    for n in (1, 2, 3)
    for c in itertools.product(range(PHOTON_BUDGET + 1), repeat=n)
    if sum(c) == PHOTON_BUDGET
]


@st.composite
def netlists(draw):
    """One to two elements of every kind in random order, then a measurement
    with one or two orthonormal outcome kets, a post-selection and ports."""
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
        st.lists(st.sampled_from([None, *names]), min_size=size, max_size=size, unique=True)
    )
    outcomes = tuple(MeasurementOutcome(*o) for o in zip(labels, kets, corrects))
    stages = tuple(e for e in chain if e.name not in corrects)

    counts = draw(st.sampled_from(COUNTS))
    selected = draw(st.lists(pick, min_size=len(counts), max_size=len(counts), unique=True))
    target_out = tuple(draw(st.lists(pick, min_size=1, max_size=2, unique=True)))
    return CircuitNetlist(
        paths=tuple(paths),
        stages=stages,
        corrections=tuple(e for e in chain if e.name in corrects),
        measurement=MeasurementRule(draw(pick), outcomes),
        measure_after=draw(st.integers(0, len(stages))),
        postselect=tuple(zip(selected, counts)),
        ports=Ports(draw(pick), draw(pick), draw(pick), target_out, draw(pick)),
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
