"""Seeded netlist corpus: valid rewrites of the four gate layouts and
corrupted copies that the parser or validator must reject.

The layouts are described here, independently of the simulator, so the
corpus stays the same when the program's renderer or its shipped circuit
files change.  A valid rewrite keeps the layout a legal circuit: paths,
elements and outcome labels are renamed, comments and blank lines are
inserted, parameters are redrawn inside their legal ranges, and pairs of
identical half-wave plates (each one self-inverse) are inserted.  A
corrupted copy changes exactly one statement of a fresh rewrite.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

VARIANTS = ("basic", "ff", "dual", "full")
_R2 = 1.0 / math.sqrt(2.0)
_PATHS = ("t_in", "t_in2", "t_up", "t_low", "c_in", "C_OUT", "p_in", "d", "T_OUT", "T_OUT2")
#: An undeclared path name: every declared one starts with "p".
_GHOST = "ghost"
_WORDS = ("beam", "arm", "plate", "tilt", "note", "probe", "lab", "bench", "align", "fibre")


def layout(variant: str) -> list[dict]:
    """Statements of one built-in layout, in file order."""
    ff = variant in ("ff", "full")
    dual = variant in ("dual", "full")
    f1 = _R2 if dual else 0.5
    third = 1.0 / math.sqrt(3.0)
    s: list[dict] = [{"kind": "path", "name": p} for p in _PATHS]
    s.append({"kind": "pbs", "name": "PBS1", "ins": ["t_in", "t_in2"], "outs": ["t_up", "t_low"]})
    s.append({"kind": "filter", "name": "F1", "path": "t_up", "th": f1, "tv": f1})
    if dual:
        s.append({"kind": "hwp", "name": "HWP4", "path": "t_up", "angle": 22.5})
    half3 = math.sqrt(3.0) / 2.0
    s.append({"kind": "jones", "name": "HWP1", "path": "t_low", "m": [-half3, 0.5, 0.5, half3]})
    s.append({"kind": "ppbs", "name": "PPBS", "ins": ["t_low", "c_in"], "outs": ["t_low", "C_OUT"],
              "tv": third})
    s.append({"kind": "filter", "name": "F2", "path": "C_OUT", "th": third, "tv": 1.0})
    s.append({"kind": "hwp", "name": "HWP2", "path": "t_low", "angle": 22.5})
    s.append({"kind": "pbs", "name": "PBS3", "ins": ["t_low", "p_in"], "outs": ["t_low", "d"]})
    if ff:
        s.append({"kind": "phaseflip", "name": "PLM", "path": "t_low"})
    s.append({"kind": "measure", "path": "d", "label": "D", "ket": [_R2, _R2], "correct": None})
    if ff:
        s.append({"kind": "measure", "path": "d", "label": "A", "ket": [_R2, -_R2],
                  "correct": "PLM"})
    s.append({"kind": "hwp", "name": "HWP3", "path": "t_low", "angle": 22.5})
    s.append({"kind": "pbs", "name": "PBS2", "ins": ["t_up", "t_low"], "outs": ["T_OUT", "T_OUT2"]})
    if dual:
        s.append({"kind": "hwp", "name": "HWP5", "path": "T_OUT2", "angle": 45.0})
    s.append({"kind": "postselect", "counts": [["T_OUT", 1], ["C_OUT", 1], ["d", 1]]})
    s.append({"kind": "ports", "target_in": "t_in", "control_in": "c_in", "program_in": "p_in",
              "target_out": ["T_OUT", "T_OUT2"] if dual else ["T_OUT"], "control_out": "C_OUT"})
    return s


def _num(value: float, rng: random.Random) -> str:
    """A float written in one of three spellings that all parse back exactly."""
    style = rng.randrange(3)
    if style == 0:
        return repr(float(value))
    if style == 1:
        return format(value, ".17g")
    return format(value, ".16e")


def _cnum(value: complex, rng: random.Random) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return _num(value.real, rng)
    imag = _num(value.imag, rng)
    sign = "" if imag.startswith("-") else "+"
    return f"{_num(value.real, rng)}{sign}{imag}j"


def statement_text(st: dict, rng: random.Random) -> str:
    kind = st["kind"]
    if kind == "path":
        return f"path {st['name']}"
    if kind in ("pbs", "ppbs"):
        tail = f" tv={_num(st['tv'], rng)}" if kind == "ppbs" else ""
        return f"{kind} {st['name']} in={','.join(st['ins'])} out={','.join(st['outs'])}{tail}"
    if kind == "filter":
        return f"filter {st['name']} path={st['path']} th={_num(st['th'], rng)} tv={_num(st['tv'], rng)}"
    if kind == "hwp":
        return f"hwp {st['name']} path={st['path']} angle={_num(st['angle'], rng)}"
    if kind == "jones":
        return f"jones {st['name']} path={st['path']} m={','.join(_cnum(v, rng) for v in st['m'])}"
    if kind == "phaseflip":
        return f"phaseflip {st['name']} path={st['path']}"
    if kind == "measure":
        ket = ",".join(_cnum(v, rng) for v in st["ket"])
        tail = f" correct={st['correct']}" if st["correct"] else ""
        return f"measure path={st['path']} outcome {st['label']} ket={ket}{tail}"
    if kind == "postselect":
        return "postselect " + " ".join(f"{p}={n}" for p, n in st["counts"])
    return (
        f"ports target_in={st['target_in']} control_in={st['control_in']} "
        f"program_in={st['program_in']} target_out={','.join(st['target_out'])} "
        f"control_out={st['control_out']}"
    )


@dataclass
class Rewrite:
    """A valid rewrite: its statements plus the text each one is written as."""

    statements: list[dict]
    texts: list[str]
    comments: list[str | None]  # trailing comment per statement
    before: list[list[str]]  # comment or blank lines placed before each statement
    stages: int  # unconditional element count the parser must produce

    def render(self, replace: dict[int, str | None] | None = None) -> tuple[str, dict[int, int]]:
        """Text of the netlist and the 1-based line of each statement.

        ``replace`` maps a statement index to its substitute text, or to
        None to drop the statement.
        """
        replace = replace or {}
        lines: list[str] = []
        where: dict[int, int] = {}
        for i, text in enumerate(self.texts):
            lines.extend(self.before[i])
            text = replace.get(i, text)
            if text is None:
                continue
            if self.comments[i]:
                text = f"{text}  # {self.comments[i]}"
            lines.append(text)
            where[i] = len(lines)
        return "\n".join(lines) + "\n", where


def _fresh(rng: random.Random, prefix: str, taken: set[str]) -> str:
    while True:
        name = prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_") for _ in range(6))
        if name not in taken:
            taken.add(name)
            return name


def _unit_ket_pair(rng: random.Random) -> tuple[list[complex], list[complex]]:
    a = rng.uniform(0.0, math.pi / 2)
    b = rng.uniform(-math.pi, math.pi)
    first = [complex(math.cos(a)), cmath.exp(1j * b) * math.sin(a)]
    second = [-cmath.exp(-1j * b) * math.sin(a), complex(math.cos(a))]
    return first, second


def rewrite(variant: str, rng: random.Random) -> Rewrite:
    """A seeded, valid rewrite of one layout."""
    stmts = layout(variant)
    taken: set[str] = set()
    paths = {p: _fresh(rng, "p", taken) for p in _PATHS}
    names = {st["name"]: _fresh(rng, "e", taken) for st in stmts if st["kind"] not in
             ("path", "measure", "postselect", "ports")}
    labels = {st["label"]: _fresh(rng, "o", taken) for st in stmts if st["kind"] == "measure"}
    kets = _unit_ket_pair(rng)
    measured = 0
    for st in stmts:
        kind = st["kind"]
        if kind == "path":
            st["name"] = paths[st["name"]]
            continue
        if "name" in st:
            st["name"] = names[st["name"]]
        for key in ("ins", "outs", "target_out"):
            if key in st:
                st[key] = [paths[p] for p in st[key]]
        for key in ("path", "target_in", "control_in", "program_in", "control_out"):
            if key in st:
                st[key] = paths[st[key]]
        if kind == "postselect":
            st["counts"] = [[paths[p], n] for p, n in st["counts"]]
        elif kind == "ppbs":
            st["tv"] = rng.uniform(0.05, 0.95)
        elif kind == "filter":
            st["th"], st["tv"] = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        elif kind == "hwp":
            st["angle"] = rng.uniform(-180.0, 180.0)
        elif kind == "jones":
            st["m"] = _subunitary(rng)
        elif kind == "measure":
            st["label"] = labels[st["label"]]
            st["ket"] = kets[measured]
            measured += 1
            if st["correct"]:
                st["correct"] = names[st["correct"]]

    # Pairs of identical half-wave plates cancel; keep them off the detector
    # path so no element touches it after the measurement point.
    detector = paths["d"]
    first_element = len(_PATHS)
    last_element = next(i for i, st in enumerate(stmts) if st["kind"] == "postselect")
    pairs = rng.randrange(4)
    for _ in range(pairs):
        at = rng.randint(first_element, last_element)
        path = rng.choice([p for p in paths.values() if p != detector])
        angle = rng.uniform(-90.0, 90.0)
        pair = [{"kind": "hwp", "name": _fresh(rng, "e", taken), "path": path, "angle": angle}
                for _ in range(2)]
        stmts[at:at] = pair
        last_element += 2

    texts = [statement_text(st, rng) for st in stmts]
    comments = [" ".join(rng.sample(_WORDS, 3)) if rng.random() < 0.2 else None for _ in stmts]
    before = []
    for _ in stmts:
        extra = []
        if rng.random() < 0.1:
            extra.append("# " + " ".join(rng.sample(_WORDS, 4)))
        if rng.random() < 0.05:
            extra.append("")
        before.append(extra)
    stages = sum(
        1 for st in stmts
        if st["kind"] in ("pbs", "ppbs", "filter", "hwp", "jones")
    )
    return Rewrite(stmts, texts, comments, before, stages)


def _subunitary(rng: random.Random) -> list[complex]:
    """Row-major entries of scale * U for a random 2x2 unitary U, scale <= 1."""
    a = math.cos(rng.uniform(0.0, math.pi / 2)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    b = math.sqrt(max(0.0, 1.0 - abs(a) ** 2)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    g = rng.uniform(0.5, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return [g * a, g * b, -g * b.conjugate(), g * a.conjugate()]


# ---------------------------------------------------------------------------
# corruptions


def _index(rw: Rewrite, kind: str, nth: int = 0) -> int:
    found = [i for i, st in enumerate(rw.statements) if st["kind"] == kind]
    return found[nth]


def _mut(rw: Rewrite, rng: random.Random, key: str) -> tuple[int, str | None]:
    """Statement index to corrupt and its replacement text (None drops it)."""
    st_of = rw.statements
    if key == "unknown_keyword":
        i = _index(rw, "path")
        return i, f"paths {st_of[i]['name']}"
    if key == "bad_identifier":
        i = _index(rw, "path")
        return i, f"path 0{st_of[i]['name']}"
    if key == "duplicate_path":
        i = _index(rw, "path", 1)
        return i, f"path {st_of[_index(rw, 'path')]['name']}"
    if key in ("pbs_arity", "pbs_undeclared", "pbs_key_order", "pbs_stray_token"):
        i = _index(rw, "pbs")
        st = st_of[i]
        (a, b), (c, d) = st["ins"], st["outs"]
        return i, {
            "pbs_arity": f"pbs {st['name']} in={a} out={c},{d}",
            "pbs_undeclared": f"pbs {st['name']} in={a},{_GHOST} out={c},{d}",
            "pbs_key_order": f"pbs {st['name']} out={a},{b} in={c},{d}",
            "pbs_stray_token": f"pbs {st['name']} in={a},{b} out={c},{d} extra=1",
        }[key]
    if key in ("filter_bad_float", "filter_missing_arg", "filter_bad_key"):
        i = _index(rw, "filter", 1 if key == "filter_bad_key" else 0)
        st = st_of[i]
        th, tv = _num(st["th"], rng), _num(st["tv"], rng)
        return i, {
            "filter_bad_float": f"filter {st['name']} path={st['path']} th=abc tv={tv}",
            "filter_missing_arg": f"filter {st['name']} path={st['path']} th={th}",
            "filter_bad_key": f"filter {st['name']} paths={st['path']} th={th} tv={tv}",
        }[key]
    if key == "hwp_empty_angle":
        i = _index(rw, "hwp")
        return i, f"hwp {st_of[i]['name']} path={st_of[i]['path']} angle="
    if key in ("jones_three_entries", "jones_bad_complex"):
        i = _index(rw, "jones")
        st = st_of[i]
        entries = [_cnum(v, rng) for v in st["m"]]
        entries = entries[:3] if key == "jones_three_entries" else entries[:3] + ["badj"]
        return i, f"jones {st['name']} path={st['path']} m={','.join(entries)}"
    if key == "ppbs_missing_tv":
        i = _index(rw, "ppbs")
        st = st_of[i]
        return i, f"ppbs {st['name']} in={','.join(st['ins'])} out={','.join(st['outs'])}"
    if key == "phaseflip_missing_path":
        i = _index(rw, "phaseflip")
        return i, f"phaseflip {st_of[i]['name']}"
    if key.startswith("measure_"):
        two = sum(1 for st in st_of if st["kind"] == "measure") == 2
        i = _index(rw, "measure", 1 if two else 0)
        st = dict(st_of[i])
        if key == "measure_one_component":
            return i, f"measure path={st['path']} outcome {st['label']} ket={_cnum(st['ket'][0], rng)}"
        if key == "measure_misspelled_outcome":
            return i, statement_text(st, rng).replace(" outcome ", " outcom ")
        if key == "measure_conflicting_path":
            st["path"] = st_of[_index(rw, "ports")]["target_out"][0]
        elif key == "measure_unnormalized":
            st["ket"] = [0.9, -0.1]
        elif key == "measure_unknown_correction":
            st["correct"] = "GHOST"
        elif key == "measure_duplicate_label":
            st["label"] = st_of[_index(rw, "measure")]["label"]
        return i, statement_text(st, rng)
    if key.startswith("postselect_"):
        i = _index(rw, "postselect")
        if key == "postselect_removed":
            return i, None
        counts = [list(c) for c in st_of[i]["counts"]]
        if key == "postselect_budget":
            counts[-1][1] = 2
        elif key == "postselect_undeclared":
            counts[-1][0] = _GHOST
        words = [f"{p}={n}" for p, n in counts]
        if key == "postselect_bad_count":
            words[-1] = words[-1].split("=")[0] + "=x"
        return i, "postselect " + " ".join(words)
    if key == "ports_missing_field":
        i = _index(rw, "ports")
        return i, statement_text(st_of[i], rng).rsplit(" ", 1)[0]
    return _nonfinite(rw, rng, key)


def _nonfinite(rw: Rewrite, rng: random.Random, key: str) -> tuple[int, str]:
    st_of = rw.statements
    if key in ("ket_nan", "ket_inf"):
        # The last outcome, so a normalization or orthogonality error, which
        # the parser reports on the later of two outcome lines, names this line.
        i = [j for j, st in enumerate(st_of) if st["kind"] == "measure"][-1]
        st = dict(st_of[i])
        st["ket"] = [float("nan"), float("nan")] if key == "ket_nan" else [float("inf"), 0.0]
        return i, statement_text(st, rng)
    if key in ("jones_inf", "jones_nan"):
        i = _index(rw, "jones")
        st = dict(st_of[i])
        st["m"] = [float(key[6:])] + list(st["m"][1:])
        return i, statement_text(st, rng)
    if key in ("hwp_nan", "hwp_inf"):
        i = _index(rw, "hwp")
        st = dict(st_of[i])
        st["angle"] = float(key[4:])
        return i, statement_text(st, rng)
    if key in ("ppbs_nan", "ppbs_inf"):
        i = _index(rw, "ppbs")
        st = dict(st_of[i])
        st["tv"] = float(key[5:])
        return i, statement_text(st, rng)
    if key == "filter_inf":
        i = _index(rw, "filter")
        st = dict(st_of[i])
        st["th"] = float("inf")
        return i, statement_text(st, rng)
    raise KeyError(key)


#: Corruption kinds of the parser's mutation corpus, generalised to any
#: rewrite.  The value lists the layouts the kind applies to.
STRUCTURAL = {
    "unknown_keyword": VARIANTS,
    "bad_identifier": VARIANTS,
    "duplicate_path": VARIANTS,
    "pbs_arity": VARIANTS,
    "pbs_undeclared": VARIANTS,
    "pbs_key_order": VARIANTS,
    "filter_bad_float": VARIANTS,
    "filter_missing_arg": VARIANTS,
    "hwp_empty_angle": VARIANTS,
    "jones_three_entries": VARIANTS,
    "jones_bad_complex": VARIANTS,
    "ppbs_missing_tv": VARIANTS,
    "filter_bad_key": VARIANTS,
    "pbs_stray_token": VARIANTS,
    "phaseflip_missing_path": ("ff", "full"),
    "measure_one_component": VARIANTS,
    "measure_misspelled_outcome": VARIANTS,
    "measure_conflicting_path": ("ff", "full"),
    "measure_unnormalized": VARIANTS,
    "measure_unknown_correction": ("ff", "full"),
    "measure_duplicate_label": ("ff", "full"),
    "postselect_budget": VARIANTS,
    "postselect_undeclared": VARIANTS,
    "postselect_bad_count": VARIANTS,
    "ports_missing_field": VARIANTS,
    "postselect_removed": VARIANTS,
}

#: Non-finite literals, one per numeric field kind.
NONFINITE = ("ket_nan", "ket_inf", "jones_inf", "jones_nan", "hwp_nan", "hwp_inf", "ppbs_nan",
             "ppbs_inf", "filter_inf")

#: Non-finite literals that ``parse`` and ``validate`` accept today (ROADMAP
#: item 5).  An accepted input of one of these kinds is a known defect,
#: counted and reported apart from failed ops; accepting an input of any
#: other corrupted kind, or rejecting one at the wrong line, is a failed op.
KNOWN_ACCEPTED = ("ket_nan", "ket_inf", "jones_inf")

#: Kinds whose error the parser can only detect, and so locates, at the
#: end of the input: a dangling cross-reference and a missing statement.
AT_END = ("measure_unknown_correction", "postselect_removed")


@dataclass(frozen=True)
class CorpusEntry:
    text: str
    kind: str  # "valid" or a corruption key
    variant: str
    line: int  # line the rejection must name; 0 for valid entries
    stages: int  # unconditional elements of a valid entry


def valid_entry(variant: str, rng: random.Random) -> CorpusEntry:
    rw = rewrite(variant, rng)
    text, _ = rw.render()
    return CorpusEntry(text, "valid", variant, 0, rw.stages)


def corrupt_entry(key: str, rng: random.Random) -> CorpusEntry:
    allowed = STRUCTURAL.get(key, VARIANTS)
    variant = rng.choice(allowed)
    rw = rewrite(variant, rng)
    index, replacement = _mut(rw, rng, key)
    text, where = rw.render({index: replacement})
    line = len(text.splitlines()) if key in AT_END else where[index]
    return CorpusEntry(text, key, variant, line, 0)

