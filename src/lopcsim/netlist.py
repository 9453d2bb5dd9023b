"""Textual circuit descriptions: parser, renderer and validator, and the
built-in gate layouts, which are the netlists shipped as package data in
``circuits/<variant>.lopc`` (see ``builtin_variant``).

A netlist is line based, one statement per line, ``#`` starts a comment:

    path <name>
    pbs <name> in=<p1>,<p2> out=<p3>,<p4>
    ppbs <name> in=<p1>,<p2> out=<p3>,<p4> tv=<float>
    hwp <name> path=<p> angle=<deg>
    jones <name> path=<p> m=<a>,<b>,<c>,<d>
    filter <name> path=<p> th=<float> tv=<float>
    phaseflip <name> path=<p>
    measure path=<p> outcome <label> ket=<a>,<b> [correct=<element-name>]
    postselect <p>=<n> ...      # checked against ports: see below
    ports target_in=<p> control_in=<p> program_in=<p> target_out=<p>[,<p>] control_out=<p>

Complex literals are ``re`` or ``re+imj``.  Paths must be declared before
use.  Element statements execute in file order; the position of the
``measure`` lines among them marks where measurement-conditioned
corrections are inserted.  An element named by some ``correct=``, before or
after that line, is the correction its outcome carries, not a stage.
``postselect`` must ask for one photon each on a target output, on
``control_out`` and on the measurement path, three in all.  Those fix what
is post-selected, so the statement is checked against them and not kept:
``render`` writes it from them.
"""

from __future__ import annotations

import cmath
import numbers
import re
from dataclasses import dataclass, fields
from functools import cache
from importlib import resources
from typing import Sequence

import numpy as np

from .elements import KINDS, ElementKind, ElementSpec, _where

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
#: Photons every gate netlist carries: one per input port.
PHOTON_BUDGET = 3

#: The built-in layouts, one shipped ``circuits/<name>.lopc`` each.
VARIANTS = ("basic", "dual", "ff", "full")


class NetlistError(ValueError):
    """Parse or structural error, located at (line, col) when known."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f"line {line}:{col}: " if line else ""
        super().__init__(f"{where}{message}")


class NetlistValidationError(ValueError):
    """A netlist failed validation; carries the diagnostic list."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class MeasurementOutcome:
    """A detector outcome: its ket and the correction element it triggers, if any."""

    label: str
    ket: tuple[complex, complex]
    correct: ElementSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"invalid outcome label {self.label!r}")
        if not isinstance(self.correct, (ElementSpec, type(None))):
            message = f"correct must be an ElementSpec, got {self.correct!r}"
            raise ValueError(f"outcome {self.label!r}: {message}")


@dataclass(frozen=True)
class MeasurementRule:
    path: str
    outcomes: tuple[MeasurementOutcome, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.path, str):
            raise ValueError(f"measurement on undeclared path {self.path!r}")
        if not isinstance(self.outcomes, tuple):
            raise ValueError(f"measurement outcomes must be a tuple, got {self.outcomes!r}")
        for o in self.outcomes:
            if not isinstance(o, MeasurementOutcome):
                raise ValueError(f"measurement outcome must be a MeasurementOutcome, got {o!r}")


@dataclass(frozen=True)
class Ports:
    target_in: str
    control_in: str
    program_in: str
    target_out: tuple[str, ...]
    control_out: str

    def __post_init__(self) -> None:
        outs = self.target_out
        if not isinstance(outs, tuple):
            raise ValueError(f"ports target_out must be a tuple of paths, got {outs!r}")
        if not outs:
            raise ValueError("ports target_out names no path")
        for p in (self.target_in, self.control_in, self.program_in, *outs, self.control_out):
            if not isinstance(p, str):
                raise ValueError(f"ports reference undeclared path {p!r}")


#: Keys of the ``ports`` statement, in ``Ports`` field order; only
#: ``target_out`` takes more than one path.
_PORTS = tuple(f.name for f in fields(Ports))
_MULTI_PORT = "target_out"
_PORTS_USAGE = " ".join(
    ["ports", *(f"{k}=<p>[,<p>]" if k == _MULTI_PORT else f"{k}=<p>" for k in _PORTS)]
)


def _port_groups(ports: Ports) -> list[tuple[str, tuple[str, ...]]]:
    """(key, paths) of each ``ports`` field, in statement order."""
    return [(k, getattr(ports, k) if k == _MULTI_PORT else (getattr(ports, k),)) for k in _PORTS]


@dataclass(frozen=True)
class CircuitNetlist:
    """Validated circuit description: ordered stages plus measurement rules.

    ``measure_after`` is the number of unconditional stages applied before
    the measurement point; the corrections its outcomes carry act there.
    """

    paths: tuple[str, ...]
    stages: tuple[ElementSpec, ...]
    measurement: MeasurementRule
    measure_after: int
    ports: Ports

    def __post_init__(self) -> None:
        if not isinstance(self.paths, tuple):
            raise ValueError(f"paths must be a tuple, got {self.paths!r}")
        for p in self.paths:
            if not isinstance(p, str):
                raise ValueError(f"invalid path name {p!r}")
        if not isinstance(self.stages, tuple):
            raise ValueError(f"stages must be a tuple, got {self.stages!r}")
        for spec in self.stages:
            if not isinstance(spec, ElementSpec):
                raise ValueError(f"stage must be an ElementSpec, got {spec!r}")
        if not isinstance(self.measurement, MeasurementRule):
            raise ValueError(f"measurement must be a MeasurementRule, got {self.measurement!r}")
        if not isinstance(self.ports, Ports):
            raise ValueError(f"ports must be a Ports, got {self.ports!r}")
        at = self.measure_after
        # builtin int first: an isinstance check against the ABC costs about 1 µs
        if not isinstance(at, (int, numbers.Integral)):
            raise ValueError(f"measurement position must be an integer, got {at!r}")
        if not 0 <= at <= len(self.stages):
            raise ValueError("measurement position outside the stage list")

    @property
    def corrections(self) -> tuple[ElementSpec, ...]:
        """Each outcome's correction once, in outcome order, told apart by identity:
        two specs that share a name stay two, which ``validate`` reports."""
        specs = [o.correct for o in self.measurement.outcomes if o.correct is not None]
        return tuple(s for i, s in enumerate(specs) if all(s is not t for t in specs[:i]))


# ---------------------------------------------------------------------------
# parsing


#: Literal kinds of a netlist field and the word their messages use.
_LITERALS = {complex: "complex literal", float: "number", int: "integer"}


def _literal(kind: type, token: str, line: int, col: int):
    """``token`` read as a finite ``kind`` (complex, float or int), or a located error."""
    what = _LITERALS[kind]
    try:
        value = kind(token)
    except ValueError:
        raise NetlistError(f"invalid {what} {token!r}", line, col) from None
    if kind is not int and not cmath.isfinite(value):  # an int is finite, and may exceed a float
        raise NetlistError(f"non-finite {what} {token!r}", line, col)
    return value


def _usage(name: str, kind: ElementKind) -> str:
    """Statement template of an element kind, e.g. ``hwp <name> path=<p> angle=<deg>``."""
    count = sum(n for _, n in kind.ports)
    marks = [f"<p{i}>" for i in range(1, count + 1)] if count > 1 else ["<p>"]
    ports = [f"{key}={','.join(group)}" for key, group in kind.port_paths(marks)]
    return " ".join([name, "<name>", *ports, *(f"{f.key}={f.usage}" for f in kind.fields)])


#: Per element kind, its statement's fields after the name as (key, entry count,
#: literal kind or None for paths): each port field, then each numeric field.
_FIELDS = {name: [*((key, count, None) for key, count in kind.ports),
                  *((f.key, f.count, complex if f.is_complex else float) for f in kind.fields)]
           for name, kind in KINDS.items()}
#: A handler locates ``k`` characters into token ``i`` of its line as ``i * _AT + k``.
_AT = 1 << 32


def _rule_problems(outcomes: Sequence[MeasurementOutcome]) -> list[tuple[int, str]]:
    """Outcome-ket problems, each with the index of the outcome it concerns.

    The kets must hold numbers, have 2 components, be normalized and be
    pairwise orthogonal; a ket with an entry that is not a number, or of
    another length, is reported and left out of the other tests, and every
    test fails on NaN.
    """
    problems: list[tuple[int, str]] = []
    checked: list[tuple[str, np.ndarray]] = []  # (label, ket) of the 2-component kets
    for i, outcome in enumerate(outcomes):
        label, entries = repr(outcome.label), np.array(outcome.ket, dtype=object).ravel().tolist()
        # builtin types first: an isinstance check against the ABC costs about 1 µs
        bad = [c for c in entries if not isinstance(c, (complex, float, int, numbers.Complex))]
        if bad:
            problems.append((i, f"outcome {label}: ket entry must be a number, got {bad[0]!r}"))
            continue
        ket = np.array(entries, dtype=complex)
        if ket.size != 2:
            problems.append((i, f"outcome {label}: ket needs 2 components, got {ket.size}"))
            continue
        if not abs(np.vdot(ket, ket).real - 1.0) <= 1e-12:
            problems.append((i, f"outcome {label}: ket is not normalized"))
        problems += [
            (i, f"outcome kets {other} and {label} are not orthogonal")
            for other, earlier in checked
            if not abs(np.vdot(earlier, ket)) <= 1e-12
        ]
        checked.append((label, ket))
    return problems


class _Parser:
    """Statement handlers over one line's ``words``.  A fault raises NetlistError at
    ``i * _AT + k`` in place of a column, which ``parse`` turns into one."""

    def __init__(self) -> None:
        self.paths: dict[str, None] = {}  # declared, in file order
        self.elements: dict[str, ElementSpec] = {}  # by name, in file order
        self.measure_path: str | None = None
        self.outcomes: list[tuple[str, tuple, str | None]] = []  # (label, ket, correct= name)
        self.measure_lines: list[int] = []
        self.elements_before_measure: int | None = None
        self.postselect: dict[str, int] | None = None
        self.postselect_line = 0
        self.ports: Ports | None = None
        self.last_line = 0

    # -- helpers ----------------------------------------------------------

    def _ident(self, word: str, at: int, line: int, what: str) -> str:
        if not _IDENT.match(word):
            raise NetlistError(f"invalid {what} {word!r}", line, at)
        return word

    def _field(self, words, i: int, line: int, key: str, count: int | None, kind) -> list:
        """The entries of token ``i``, ``key=<v>,...``: ``count`` of them, or any
        number when None, as declared paths when ``kind`` is None, as they stand
        when it is ``str``, else as finite literals of ``kind``."""
        head, eq, value = words[i].partition("=")
        if head != key or not eq:
            raise NetlistError(f"expected {key}=..., got {words[i]!r}", line, i * _AT)
        at = i * _AT + len(key) + 1
        parts = [value] if count == 1 else value.split(",")
        if count is not None and len(parts) != count:
            what = "ket components" if key == "ket" else f"{key}= entries" if kind else "paths"
            raise NetlistError(f"expected {count} comma-separated {what}", line, at)
        if kind is None:
            for name in parts:
                if name not in self.paths:
                    raise NetlistError(f"undeclared path {name!r}", line, at)
            return parts
        if kind is str:
            return parts
        return [_literal(kind, part, line, at) for part in parts]

    # -- statement handlers -------------------------------------------------

    def stmt_path(self, words, line: int) -> None:
        if len(words) != 2:
            raise NetlistError("expected path <name>", line, 0)
        name = self._ident(words[1], _AT, line, "path name")
        if name in self.paths:
            raise NetlistError(f"duplicate path {name!r}", line, _AT)
        self.paths[name] = None

    def stmt_element(self, words, line: int) -> None:
        kind_name, table = words[0], _FIELDS[words[0]]
        if len(words) != 2 + len(table):
            raise NetlistError(f"expected {_usage(kind_name, KINDS[kind_name])}", line, 0)
        name = self._ident(words[1], _AT, line, "element name")
        if name in self.elements:
            raise NetlistError(f"duplicate element name {name!r}", line, _AT)
        paths: list[str] = []
        params: list[complex] = []
        for i, (key, count, kind) in enumerate(table, 2):
            values = self._field(words, i, line, key, count, kind)
            if kind is None:
                paths += values
            else:
                params += map(complex, values)
        self.elements[name] = ElementSpec(kind_name, name, tuple(paths), tuple(params), line=line)

    def stmt_measure(self, words, line: int) -> None:
        if len(words) not in (5, 6):
            usage = "measure path=<p> outcome <label> ket=<a>,<b> [correct=<name>]"
            raise NetlistError(f"expected {usage}", line, 0)
        [path] = self._field(words, 1, line, "path", 1, None)
        if words[2] != "outcome":
            raise NetlistError(f"expected 'outcome', got {words[2]!r}", line, 2 * _AT)
        label = self._ident(words[3], 3 * _AT, line, "outcome label")
        ket = self._field(words, 4, line, "ket", 2, complex)
        correct: str | None = None
        if len(words) == 6:
            [correct] = self._field(words, 5, line, "correct", 1, str)
            self._ident(correct, 5 * _AT + len("correct="), line, "correction name")
        if self.measure_path is None:
            self.measure_path = path
            self.elements_before_measure = len(self.elements)
        elif self.measure_path != path:
            message = f"measurement path {path!r} conflicts with earlier {self.measure_path!r}"
            raise NetlistError(message, line, _AT + len("path="))
        if any(seen == label for seen, _, _ in self.outcomes):
            raise NetlistError(f"duplicate outcome label {label!r}", line, 3 * _AT)
        self.outcomes.append((label, (ket[0], ket[1]), correct))
        self.measure_lines.append(line)

    def stmt_postselect(self, words, line: int) -> None:
        if self.postselect is not None:
            raise NetlistError("duplicate postselect statement", line, 0)
        if len(words) < 2:
            raise NetlistError("expected postselect <path>=<count> ...", line, 0)
        pattern: dict[str, int] = {}
        for i, word in enumerate(words[1:], 1):
            path, eq, count_text = word.partition("=")
            if not eq:
                raise NetlistError(f"expected <path>=<count>, got {word!r}", line, i * _AT)
            if path not in self.paths:
                raise NetlistError(f"undeclared path {path!r}", line, i * _AT)
            if path in pattern:
                raise NetlistError(f"duplicate path {path!r} in postselect", line, i * _AT)
            count = _literal(int, count_text, line, i * _AT + len(path) + 1)
            if count < 0:
                raise NetlistError("postselect counts must be non-negative", line, i * _AT)
            pattern[path] = count
        self.postselect = pattern
        self.postselect_line = line

    def stmt_ports(self, words, line: int) -> None:
        if self.ports is not None:
            raise NetlistError("duplicate ports statement", line, 0)
        if len(words) != 1 + len(_PORTS):
            raise NetlistError(f"expected {_PORTS_USAGE}", line, 0)
        values: list[str | tuple[str, ...]] = []
        for i, key in enumerate(_PORTS, 1):
            paths = self._field(words, i, line, key, None if key == _MULTI_PORT else 1, None)
            values.append(tuple(paths) if key == _MULTI_PORT else paths[0])
        self.ports = Ports(*values)

    # -- assembly -----------------------------------------------------------

    def finish(self) -> CircuitNetlist:
        eol = self.last_line
        pattern, ports = self.postselect, self.ports
        if pattern is None:
            raise NetlistError("no postselect declared", eol)
        if ports is None:
            raise NetlistError("no ports declared", eol)
        if self.measure_path is None:
            raise NetlistError("no measurement declared", eol)
        photons = sum(pattern.values())
        if photons != PHOTON_BUDGET:
            message = f"postselect totals {photons} photons, expected budget {PHOTON_BUDGET}"
            raise NetlistError(message, self.postselect_line)
        outcomes = tuple(MeasurementOutcome(label, ket, self.elements.get(c))
                         for label, ket, c in self.outcomes)
        problems = _rule_problems(outcomes)
        if problems:
            index, message = problems[0]
            raise NetlistError(message, self.measure_lines[index])
        conditional = {c for _, _, c in self.outcomes if c is not None}
        for name in sorted(conditional):
            if name not in self.elements:
                raise NetlistError(f"correct= references unknown element {name!r}", eol)
        targets = [pattern[p] for p in ports.target_out if p in pattern]
        for ok, where in (
            (pattern.get(self.measure_path) == 1, "the measurement path"),
            (pattern.get(ports.control_out) == 1, "the control output"),
            (targets == [1], "exactly one target output port"),
        ):
            if not ok:
                message = f"postselect must require exactly one photon on {where}"
                raise NetlistError(message, self.postselect_line)
        elements = list(self.elements.values())
        stages = tuple(e for e in elements if e.name not in conditional)
        before = elements[: self.elements_before_measure]
        measure_after = sum(1 for e in before if e.name not in conditional)
        return CircuitNetlist(
            paths=tuple(self.paths),
            stages=stages,
            measurement=MeasurementRule(self.measure_path, outcomes),
            measure_after=measure_after,
            ports=ports,
        )


_HANDLERS = {
    "path": _Parser.stmt_path,
    **{kind: _Parser.stmt_element for kind in KINDS},
    "measure": _Parser.stmt_measure,
    "postselect": _Parser.stmt_postselect,
    "ports": _Parser.stmt_ports,
}


def parse(text: str) -> CircuitNetlist:
    r"""Parse a netlist from its textual form; deterministic, located errors.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``, as in a file read in
    text mode, and nowhere else: other separators (form feed, ``\u2028``, ...)
    are whitespace between tokens.

    A fault is found at ``k`` characters into the line's ``i``-th token; only a
    rejected line has its tokens found in the raw text, for the column.
    """
    parser = _Parser()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # a final line end opens no line
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        parser.last_line = lineno
        code = raw.split("#", 1)[0]
        words = code.split()
        if not words:
            continue
        try:
            handler = _HANDLERS.get(words[0])
            if handler is None:
                raise NetlistError(f"unknown keyword {words[0]!r}", lineno, 0)
            handler(parser, words, lineno)
        except NetlistError as err:
            index, offset = divmod(err.col, _AT)
            end = 0
            for word in words[: index + 1]:  # each token is the next match of its word
                start = code.index(word, end)
                end = start + len(word)
            raise NetlistError(err.message, lineno, start + 1 + offset) from None
    return parser.finish()


# ---------------------------------------------------------------------------
# rendering


def _fmt_float(value: complex) -> str:
    return repr(float(value.real))


def _fmt_complex(value: complex) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    imag = _fmt_float(z.imag)
    sign = "" if imag.startswith("-") else "+"
    return f"{_fmt_float(z.real)}{sign}{imag}j"


def _render_element(spec: ElementSpec) -> str:
    kind, values = spec.checked_kind()
    words = [spec.kind, spec.name]
    words += [f"{key}={','.join(group)}" for key, group in kind.port_paths(spec.paths)]
    params = iter(values)
    for f in kind.fields:
        fmt = _fmt_complex if f.is_complex else _fmt_float
        words.append(f"{f.key}=" + ",".join(fmt(next(params)) for _ in range(f.count)))
    return " ".join(words)


def render(netlist: CircuitNetlist) -> str:
    """Canonical textual form; parse(render(n)) == n.  ValueError, with ``validate``'s
    text, on an undeclared measurement path or ``ports`` entry or a spec
    ``checked_kind`` rejects; the records refuse a field of the wrong type."""
    ports, measured = netlist.ports, netlist.measurement.path
    groups = _port_groups(ports)
    wrong = (_undeclared("measurement on", [measured], netlist.paths)
             + _undeclared("ports reference", [p for _, g in groups for p in g], netlist.paths))
    if wrong:
        raise ValueError(wrong[0])
    lines = [f"path {p}" for p in netlist.paths]
    measure_block = [_render_element(spec) for spec in netlist.corrections]
    for outcome in netlist.measurement.outcomes:
        ket = ",".join(_fmt_complex(c) for c in outcome.ket)
        suffix = f" correct={outcome.correct.name}" if outcome.correct else ""
        measure_block.append(f"measure path={measured} outcome {outcome.label} ket={ket}{suffix}")
    stages, at = [_render_element(spec) for spec in netlist.stages], netlist.measure_after
    lines += stages[:at] + measure_block + stages[at:]
    lines.append(f"postselect {ports.target_out[0]}=1 {ports.control_out}=1 {measured}=1")
    lines.append(" ".join(["ports", *(f"{k}={','.join(g)}" for k, g in groups)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def _undeclared(what: str, paths, declared) -> list[str]:
    """``validate``'s text for each of ``paths`` that is not in ``declared``."""
    return [f"{what} undeclared path {p!r}" for p in paths if p not in declared]


def validate(netlist: CircuitNetlist) -> list[str]:
    """Checks of the values' content; an empty list means none failed.  Where
    light goes is checked only by compiling, so a netlist that passes may not compile.
    A path name, element name or outcome label that is not an identifier is
    reported as invalid and takes no further part: it declares no path and is
    compared with no other name.  A field of the wrong type never gets here: the
    records refuse it when they are built."""
    diags: list[str] = []
    declared: set[str] = set()
    for p in netlist.paths:
        if not _IDENT.match(p):
            diags.append(f"invalid path name {p!r}")
        elif p in declared:
            diags.append(f"duplicate path {p!r}")
        else:
            declared.add(p)
    rule, corrections = netlist.measurement, netlist.corrections
    names: set[str] = set()
    for spec in netlist.stages + corrections:
        if not _IDENT.match(spec.name):
            diags.append(f"{_where(spec)}invalid element name {spec.name!r}")
        elif spec.name in names:
            diags.append(f"{_where(spec)}duplicate element name {spec.name!r}")
        else:
            names.add(spec.name)
        for path in spec.paths:
            if path not in declared:
                diags.append(f"{_where(spec)}{spec.name}: undeclared path {path!r}")
        try:
            spec.element  # built here once; CompiledCircuit reuses it
        except ValueError as err:
            diags.append(f"{_where(spec)}{spec.name}: {err}")

    diags += _undeclared("measurement on", [rule.path], declared)
    if not rule.outcomes:
        diags.append("measurement declares no outcomes")
    diags.extend(m for _, m in _rule_problems(rule.outcomes))
    labels: set[str] = set()
    for outcome in rule.outcomes:
        if not _IDENT.match(outcome.label):
            diags.append(f"invalid outcome label {outcome.label!r}")
        elif outcome.label in labels:
            diags.append(f"duplicate outcome label {outcome.label!r}")
        else:
            labels.add(outcome.label)

    ports = netlist.ports
    referenced = [p for _, group in _port_groups(ports) for p in group]
    diags += _undeclared("ports reference", referenced, declared)
    if len({ports.target_in, ports.control_in, ports.program_in}) != 3:
        diags.append("ports target_in, control_in and program_in must name three distinct paths")
    outputs = [*ports.target_out, ports.control_out, rule.path]
    if len(set(outputs)) != len(outputs):
        diags.append(
            "ports target_out, control_out and the measurement path must name distinct paths"
        )

    # the corrections act at the measurement point
    late = corrections + netlist.stages[netlist.measure_after:]
    message = f"touches measurement path {rule.path!r} after the measurement point"
    diags += [f"{_where(spec)}{spec.name}: {message}" for spec in late if rule.path in spec.paths]
    return diags


# ---------------------------------------------------------------------------
# built-in layouts


@cache
def _shipped(name: str) -> CircuitNetlist:
    text = resources.files(__package__).joinpath(f"circuits/{name}.lopc").read_text("utf-8")
    return parse(text)


def builtin_variant(name: str) -> CircuitNetlist:
    """The shipped layout ``circuits/<name>.lopc``, parsed once per process.

    ``ff`` adds to ``basic`` the anti-diagonal detector outcome, corrected by
    a phase flip on the lower target arm right behind the beam splitter that
    mixes target and program photons.  ``dual`` halves the neutral filter
    loss, splits the upper arm 50/50 with an extra half-wave plate and
    accepts both final beam splitter outputs, the second one through a
    polarization swap.  ``full`` has both.

    Every call with the same name returns the same netlist, so its element
    builds are kept for later compiles.
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {list(VARIANTS)}")
    return _shipped(name)
