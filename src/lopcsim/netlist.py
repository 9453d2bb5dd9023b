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
import math
import numbers
import re
from dataclasses import dataclass, fields, replace
from functools import cache
from importlib import resources
from typing import Sequence

import numpy as np

from .elements import KINDS, ElementKind, ElementSpec

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


@dataclass(frozen=True)
class MeasurementRule:
    path: str
    outcomes: tuple[MeasurementOutcome, ...]


@dataclass(frozen=True)
class Ports:
    target_in: str
    control_in: str
    program_in: str
    target_out: tuple[str, ...]
    control_out: str


#: Keys of the ``ports`` statement, in ``Ports`` field order; only
#: ``target_out`` takes more than one path.
_PORTS = tuple(f.name for f in fields(Ports))
_MULTI_PORT = "target_out"
_NO_TARGET_OUT = "ports target_out names no path"
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

    @property
    def corrections(self) -> tuple[ElementSpec, ...]:
        """Each outcome's correction once, in outcome order, told apart by identity:
        two specs that share a name stay two, which ``validate`` reports."""
        specs = [o.correct for o in self.measurement.outcomes if o.correct is not None]
        return tuple(s for i, s in enumerate(specs) if all(s is not t for t in specs[:i]))


# ---------------------------------------------------------------------------
# parsing


#: Literal kinds of a netlist field: the word its messages use and its finiteness test.
_LITERALS = {
    complex: ("complex literal", cmath.isfinite),
    float: ("number", math.isfinite),
    int: ("integer", lambda value: True),
}


def _literal(kind: type, token: str, line: int, col: int):
    """``token`` read as a finite ``kind`` (complex, float or int), or a located error."""
    what, isfinite = _LITERALS[kind]
    try:
        value = kind(token)
    except ValueError:
        raise NetlistError(f"invalid {what} {token!r}", line, col) from None
    if not isfinite(value):
        raise NetlistError(f"non-finite {what} {token!r}", line, col)
    return value


def _usage(name: str, kind: ElementKind) -> str:
    """Statement template of an element kind, e.g. ``hwp <name> path=<p> angle=<deg>``."""
    count = sum(n for _, n in kind.ports)
    marks = [f"<p{i}>" for i in range(1, count + 1)] if count > 1 else ["<p>"]
    ports = [f"{key}={','.join(group)}" for key, group in kind.port_paths(marks)]
    return " ".join([name, "<name>", *ports, *(f"{f.key}={f.usage}" for f in kind.fields)])


def _split(value: str, count: int | None, what: str, line: int, col: int) -> list[str]:
    """``count`` comma-separated parts of ``value``, or any number when ``count`` is None."""
    parts = [value] if count == 1 else value.split(",")
    if count is not None and len(parts) != count:
        raise NetlistError(f"expected {count} comma-separated {what}", line, col)
    return parts


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
    def __init__(self) -> None:
        self.paths: list[str] = []
        self.elements: dict[str, ElementSpec] = {}  # by name, in file order
        self.measure_path: str | None = None
        self.outcomes: list[MeasurementOutcome] = []
        self.corrects: list[str | None] = []  # each outcome's correct= name
        self.measure_lines: list[int] = []
        self.elements_before_measure: int | None = None
        self.postselect: dict[str, int] | None = None
        self.postselect_line = 0
        self.ports: Ports | None = None
        self.last_line = 0

    # -- helpers ----------------------------------------------------------

    def _ident(self, tok: tuple[str, int], line: int, what: str) -> str:
        word, col = tok
        if not _IDENT.match(word):
            raise NetlistError(f"invalid {what} {word!r}", line, col)
        return word

    def _kv(self, tok: tuple[str, int], line: int, key: str) -> tuple[str, int]:
        word, col = tok
        prefix = key + "="
        if not word.startswith(prefix):
            raise NetlistError(f"expected {key}=..., got {word!r}", line, col)
        return word[len(prefix):], col + len(prefix)

    def _paths(self, tok, line: int, key: str, count: int | None) -> list[str]:
        """The declared paths of a ``key=<p>,...`` field: ``count`` of them, or any number."""
        value, col = self._kv(tok, line, key)
        parts = _split(value, count, "paths", line, col)
        for name in parts:
            if name not in self.paths:
                raise NetlistError(f"undeclared path {name!r}", line, col)
        return parts

    def _numbers(self, tok, line: int, key: str, count: int, kind: type, what: str) -> list:
        """The ``count`` literals of ``kind`` in a ``key=<v>,...`` field."""
        value, col = self._kv(tok, line, key)
        return [_literal(kind, e, line, col) for e in _split(value, count, what, line, col)]

    def _arity(self, toks, line: int, n: int, usage: str) -> None:
        if len(toks) != n:
            raise NetlistError(f"expected {usage}", line, toks[0][1])

    def _new_name(self, tok: tuple[str, int], line: int) -> str:
        name = self._ident(tok, line, "element name")
        if name in self.elements:
            raise NetlistError(f"duplicate element name {name!r}", line, tok[1])
        return name

    # -- statement handlers -------------------------------------------------

    def stmt_path(self, toks, line: int) -> None:
        self._arity(toks, line, 2, "path <name>")
        name = self._ident(toks[1], line, "path name")
        if name in self.paths:
            raise NetlistError(f"duplicate path {name!r}", line, toks[1][1])
        self.paths.append(name)

    def stmt_element(self, toks, line: int) -> None:
        kind_name, kind_col = toks[0]
        kind = KINDS[kind_name]
        if len(toks) != 2 + len(kind.ports) + len(kind.fields):
            raise NetlistError(f"expected {_usage(kind_name, kind)}", line, kind_col)
        name = self._new_name(toks[1], line)
        paths: list[str] = []
        for tok, (key, count) in zip(toks[2:], kind.ports):
            paths += self._paths(tok, line, key, count)
        params: list[complex] = []
        for tok, f in zip(toks[2 + len(kind.ports):], kind.fields):
            literal = complex if f.is_complex else float
            entries = self._numbers(tok, line, f.key, f.count, literal, f"{f.key}= entries")
            params += map(complex, entries)
        self.elements[name] = ElementSpec(kind_name, name, tuple(paths), tuple(params), line=line)

    def stmt_measure(self, toks, line: int) -> None:
        if len(toks) not in (5, 6):
            usage = "measure path=<p> outcome <label> ket=<a>,<b> [correct=<name>]"
            raise NetlistError(f"expected {usage}", line, toks[0][1])
        [path] = self._paths(toks[1], line, "path", 1)
        if toks[2][0] != "outcome":
            raise NetlistError(f"expected 'outcome', got {toks[2][0]!r}", line, toks[2][1])
        label = self._ident(toks[3], line, "outcome label")
        ket = self._numbers(toks[4], line, "ket", 2, complex, "ket components")
        correct: str | None = None
        if len(toks) == 6:
            correct = self._ident(self._kv(toks[5], line, "correct"), line, "correction name")
        if self.measure_path is None:
            self.measure_path = path
            self.elements_before_measure = len(self.elements)
        elif self.measure_path != path:
            raise NetlistError(
                f"measurement path {path!r} conflicts with earlier {self.measure_path!r}",
                line,
                toks[1][1] + len("path="),
            )
        if any(o.label == label for o in self.outcomes):
            raise NetlistError(f"duplicate outcome label {label!r}", line, toks[3][1])
        self.outcomes.append(MeasurementOutcome(label, (ket[0], ket[1])))
        self.corrects.append(correct)
        self.measure_lines.append(line)

    def stmt_postselect(self, toks, line: int) -> None:
        if self.postselect is not None:
            raise NetlistError("duplicate postselect statement", line, toks[0][1])
        if len(toks) < 2:
            raise NetlistError("expected postselect <path>=<count> ...", line, toks[0][1])
        pattern: dict[str, int] = {}
        for word, col in toks[1:]:
            if "=" not in word:
                raise NetlistError(f"expected <path>=<count>, got {word!r}", line, col)
            path, count_text = word.split("=", 1)
            if path not in self.paths:
                raise NetlistError(f"undeclared path {path!r}", line, col)
            if path in pattern:
                raise NetlistError(f"duplicate path {path!r} in postselect", line, col)
            count = _literal(int, count_text, line, col + len(path) + 1)
            if count < 0:
                raise NetlistError("postselect counts must be non-negative", line, col)
            pattern[path] = count
        self.postselect = pattern
        self.postselect_line = line

    def stmt_ports(self, toks, line: int) -> None:
        if self.ports is not None:
            raise NetlistError("duplicate ports statement", line, toks[0][1])
        self._arity(toks, line, 1 + len(_PORTS), _PORTS_USAGE)
        values: list[str | tuple[str, ...]] = []
        for tok, key in zip(toks[1:], _PORTS):
            paths = self._paths(tok, line, key, None if key == _MULTI_PORT else 1)
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
        problems = _rule_problems(self.outcomes)
        if problems:
            index, message = problems[0]
            raise NetlistError(message, self.measure_lines[index])
        conditional = {name for name in self.corrects if name is not None}
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
        pairs = zip(self.outcomes, self.corrects)
        outcomes = tuple(replace(o, correct=self.elements.get(c)) for o, c in pairs)
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
        # A handler locates a token by its position, index * stride, plus an
        # offset within the token; only an error maps that to a column.
        stride = len(code) + 1
        toks = list(zip(words, range(0, stride * len(words), stride)))
        try:
            handler = _HANDLERS.get(words[0])
            if handler is None:
                raise NetlistError(f"unknown keyword {words[0]!r}", lineno, 0)
            handler(parser, toks, lineno)
        except NetlistError as err:
            index, offset = divmod(err.col, stride)
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
    """Canonical textual form; parse(render(n)) == n.  ValueError on an empty
    ``target_out``, on a ``correct`` that is not an ``ElementSpec`` and on an
    element ``ElementSpec.checked_kind`` rejects, with ``validate``'s text."""
    ports, measured = netlist.ports, netlist.measurement.path
    if not ports.target_out:
        raise ValueError(_NO_TARGET_OUT)
    wrong = _wrong_corrections(netlist.measurement.outcomes)
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
    groups = _port_groups(ports)
    lines.append(" ".join(["ports", *(f"{k}={','.join(g)}" for k, g in groups)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def _where(spec: ElementSpec) -> str:
    return f"line {spec.line}: " if spec.line else ""


def _is_ident(word) -> bool:
    return isinstance(word, str) and _IDENT.match(word) is not None


def _wrong_corrections(outcomes) -> list[str]:
    return [f"outcome {o.label!r}: correct must be an ElementSpec, got {o.correct!r}"
            for o in outcomes if not isinstance(o.correct, (ElementSpec, type(None)))]


def validate(netlist: CircuitNetlist) -> list[str]:
    """Structural and numeric checks; an empty list means none failed.  Where
    light goes is checked only by compiling, so a netlist that passes may not compile.
    A path name, element name or outcome label that is not an identifier is
    reported as invalid and takes no further part: it declares no path and is
    compared with no other name."""
    diags: list[str] = []
    declared: set[str] = set()
    for p in netlist.paths:
        if not _is_ident(p):
            diags.append(f"invalid path name {p!r}")
        elif p in declared:
            diags.append(f"duplicate path {p!r}")
        else:
            declared.add(p)
    rule = netlist.measurement
    corrections = tuple(c for c in netlist.corrections if isinstance(c, ElementSpec))
    names: set[str] = set()
    for spec in netlist.stages + corrections:
        if not _is_ident(spec.name):
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

    if rule.path not in declared:
        diags.append(f"measurement on undeclared path {rule.path!r}")
    if not rule.outcomes:
        diags.append("measurement declares no outcomes")
    diags.extend(m for _, m in _rule_problems(rule.outcomes))
    labels: set[str] = set()
    for outcome in rule.outcomes:
        if not _is_ident(outcome.label):
            diags.append(f"invalid outcome label {outcome.label!r}")
        elif outcome.label in labels:
            diags.append(f"duplicate outcome label {outcome.label!r}")
        else:
            labels.add(outcome.label)
    diags += _wrong_corrections(rule.outcomes)

    ports = netlist.ports
    if isinstance(ports.target_out, str):  # one path, not a tuple of them
        diags.append(f"ports target_out must be a tuple of paths, got {ports.target_out!r}")
        ports = replace(ports, target_out=(ports.target_out,))
    if not ports.target_out:
        diags.append(_NO_TARGET_OUT)
    for path in (p for _, group in _port_groups(ports) for p in group):
        if path not in declared:
            diags.append(f"ports reference undeclared path {path!r}")
    if len({ports.target_in, ports.control_in, ports.program_in}) != 3:
        diags.append("ports target_in, control_in and program_in must name three distinct paths")
    outputs = [*ports.target_out, ports.control_out, rule.path]
    if len(set(outputs)) != len(outputs):
        diags.append(
            "ports target_out, control_out and the measurement path must name distinct paths"
        )

    late, at = corrections, netlist.measure_after  # the corrections act at the measurement point
    if not isinstance(at, numbers.Integral):
        diags.append(f"measurement position must be an integer, got {at!r}")
    elif not 0 <= at <= len(netlist.stages):
        diags.append("measurement position outside the stage list")
    else:
        late += netlist.stages[at:]
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
