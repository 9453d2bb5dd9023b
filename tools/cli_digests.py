"""Digest every output of a fixed matrix of lopcsim commands.

Prints one line per command: the blake2b digest of its exit code, standard
error and output file, two spaces, then the argv.  To check that a change
leaves every byte of ``verify``, ``sweep`` and ``hom`` output (and every
exit code) as it was at a git revision:

    python3 tools/cli_digests.py --against HEAD

unpacks ``git archive HEAD`` into a temporary directory, runs the matrix
in that checkout and in this one, each in a fresh interpreter, prints
each line that differs (``-`` at the revision, ``+`` here, with its label)
and exits 1 if any does, 0 if none does.

The optional argument is the checkout whose ``src/lopcsim`` is run (default:
the one holding this script).  Commands run in-process from the checkout
root, so the ``--netlist`` paths in the argv, and in ``--meta`` output, are
the same relative paths for every checkout.

The fixed matrix ends with the long grids (``LONG``): ``verify`` and ``sweep``
of each built-in variant at 1001 and 10001 points, in CSV and JSON.  In all,
the listing has 2485 lines.

After the fixed matrix come argparse's own outputs (``ARGV``): each argv is
run as it stands, without ``--out``, and its digest takes standard output in
place of the output file, so that help, the version and every usage error
are pinned byte for byte.  Help is wrapped at ``COLUMNS=80``.  Then comes a
33-point ``sweep`` of ``full.lopc`` with two plates turned (``DETUNED``), written to the temporary directory and
labelled in its line, so that the fidelity column changes from phase to
phase.  Then come the shipped layouts with all of one input's light
filtered out (``DEAD``), each run through ``sweep`` and ``verify
--netlist``: compiling rejects them, naming the dead input per outcome.
Then ``basic.lopc`` with each ranged element kind at and just past the
edge of its range (``RANGE``), run through ``verify --netlist``, so that
each kind's range check is pinned on both sides.  Then ``dual.lopc`` and
``full.lopc`` with other ``postselect`` statements (``POSTSELECT``), each
run through ``verify --netlist`` and ``sweep --netlist``: one on ``T_OUT2``,
which the ports allow, and two that they do not, rejected at their line.
Then ``ff.lopc`` and ``full.lopc`` with the feed-forward correction moved
(``FEEDFORWARD``), run the same way: declared after the last element, they
print what the shipped files print; carried by both outcomes, they fail
verification with fidelity 0.25.  This pins that where the file declares
the correction does not matter.
Then ``full.lopc`` with mixed faults in one literal field (``LITERALS``):
``jones m=``, ``measure ket=`` and ``filter th= tv=`` set to entries with a
non-finite or invalid entry beside another fault, or finite entries whose sum
overflows, run through ``verify --netlist``, so that the leftmost fault of a
field is pinned as the one reported, and such a sum as accepted by the parser.
Then ``basic.lopc`` with a splitter that sends light onto a lit path
(``MERGED``): the two layouts of ``tests/test_compiled.py``, which merge onto
``C_OUT``, and one that sends light onto both ``C_OUT`` and ``d``, run through
``verify --netlist`` and ``sweep --netlist``, so that the element and the path
the compile names are pinned.

Then come the malformed netlists: every statement of the
shipped ``basic.lopc`` and ``full.lopc`` with exactly one token dropped,
prefixed with ``?``, or (for a ``key=value`` token) its value set to each of
``MALFORMED_VALUES``, run through ``verify --netlist``.  Each is written to
the temporary directory, and its line shows a stable label,
``<file>:<line>:<token>:<edit>``, in place of that file's path, so the
parser's error path is pinned byte for byte too.

Last comes the same matrix of ``full.lopc`` re-spaced: the tokens of each
line joined by a tab, by two spaces or by a no-break space (``RESPACED``),
labelled ``full.lopc(<separator>):<line>:<token>:<edit>``.  A parser error
locates its token in the raw line, so these pin each column through
whitespace other than one space.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

VARIANTS = ("basic", "ff", "dual", "full")
#: Phase grids, each run through ``verify`` and ``sweep`` of every variant.
#: Besides the default lengths, the emitter's edges: 4 points, where a
#: ``full`` sweep's per-row columns hold exactly ``cli.SHORTEST_DEDUPED``
#: cells; 16 points, where the per-phase columns do; and a constant grid,
#: where every phase repeats.
GRIDS = (
    *(["--steps", str(n)] for n in (1, 7, 33, 401)),
    ["--phi", "0.5"],
    ["--from=-90", "--to", "270", "--steps", "33", "--degrees"],
    ["--from=-7", "--to", "20", "--steps", "33"],
    ["--steps", "4"],
    ["--steps", "16"],
    ["--from=0.7", "--to=0.7", "--steps", "17"],
)
#: Failing and rejected runs: a 1e-16 tolerance fails some phases (exit 1), a
#: netlist checked against another variant's oracle, a grid whose span
#: overflows a float and one whose last point does are usage errors (exit 2).
#: Then a phase or overlap of -0.0, which must print apart from 0.0.
OTHER = (
    *(["verify", "--variant", v, "--steps", "7", "--tol", "1e-16"] for v in VARIANTS),
    ["verify", "--variant", "basic", "--netlist", "src/lopcsim/circuits/full.lopc"],
    *([command, "--from=-1e308", "--to=1e308", "--steps", "3"] for command in ("verify", "hom")),
    *([command, "--to=1.5e308", "--steps", "3"] for command in ("sweep", "hom")),
    *([command, "--variant", v, "--phi=-0.0"] for command in ("verify", "sweep") for v in VARIANTS),
    ["hom", "--from=-0.0", "--steps", "1"],
)
#: ``hom`` scans, each run with and without ``--meta``, in CSV and JSON: the
#: default grid, a descending one, lengths around ``cli.SHORTEST_DEDUPED``, a
#: constant grid (every overlap repeats), a grid starting at -0.0, and
#: transmissivities near 0 and near 1.
HOM = (
    ["hom", "--steps", "41"],
    ["hom", "--steps", "41", "--tv", "0.3"],
    ["hom", "--from", "1", "--to", "0", "--steps", "33"],
    *(["hom", "--steps", str(n)] for n in (15, 16, 17)),
    ["hom", "--from", "0.5", "--to", "0.5", "--steps", "40"],
    ["hom", "--from=-0.0", "--to", "1", "--steps", "3"],
    ["hom", "--steps", "17", "--tv", "1e-12"],
    ["hom", "--steps", "17", "--tv", "0.9999999999999999"],
)
#: Long grids, each run through ``verify`` and ``sweep`` of every built-in
#: variant in CSV and JSON: the grid lengths where the per-phase arrays, not the
#: fixed per-call costs, set the time and the memory.
LONG = tuple(["--steps", str(n)] for n in (1001, 10001))
#: argv run without ``--out``: help and the version, each command's help, an
#: unknown command, an option before the command, words that a command does not
#: take, abbreviations, ``--``, bad values, a negative value as its own word,
#: and ``--=x``, an abbreviation of both ``--help`` and ``--version``, which
#: the top-level parser refuses before any command parses it.
ARGV = (
    [],
    ["-h"],
    ["--version"],
    *([command, "-h"] for command in ("verify", "sweep", "hom")),
    ["verif"],
    ["--format", "csv", "verify"],
    ["verify", "--bogus"],
    ["hom", "--variant", "full"],
    ["sweep", "--tol", "1"],
    ["verify", "--version"],
    ["verify", "--phi=1", "extra"],
    ["verify", "--var", "full", "--form", "json"],
    ["verify", "--", "--phi", "1"],
    ["verify", "--steps", "x"],
    ["hom", "--tv"],
    ["verify", "--from", "-1", "--steps", "3"],
    ["verify", "--=x"],
    ["verify", "--", "--=x"],
)
MALFORMED_VARIANTS = ("basic", "full")
MALFORMED_VALUES = ("", "ghost", "nan", "1,2,3,4,5")
RESPACED = (("tab", "\t"), ("2sp", "  "), ("nbsp", "\u00a0"))
#: ``full.lopc`` with two plates turned, as (label, ((statement, replacement),
#: ...)).  HWP2 makes the fidelity change from phase to phase, with repeats;
#: HWP5 acts on T_OUT2 after the last splitter, which no printed column sees,
#: and ``p_success`` stays 1/12 under either.
DETUNED = ("full.lopc(HWP2=32.5,HWP5=30)", (
    ("hwp HWP2 path=t_low angle=22.5", "hwp HWP2 path=t_low angle=32.5"),
    ("hwp HWP5 path=T_OUT2 angle=45.0", "hwp HWP5 path=T_OUT2 angle=30"),
))
F2 = "filter F2 path=C_OUT th=0.5773502691896258 tv=1.0"
PBS1 = "pbs PBS1 in=t_in,t_in2 out=t_up,t_low"
#: Shipped layouts that leave an input dead, as (label, variant, ((statement,
#: replacement),)): F2 blocks the control output, and a filter inserted
#: before PBS1 blocks the program or the target input.
DEAD = (
    ("basic.lopc(F2=0)", "basic", ((F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),)),
    ("full.lopc(F2=0)", "full", ((F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),)),
    ("basic.lopc(+FP=0)", "basic", ((PBS1, f"filter FP path=p_in th=0.0 tv=0.0\n{PBS1}"),)),
    ("basic.lopc(+FT=0)", "basic", ((PBS1, f"filter FT path=t_in th=0.0 tv=0.0\n{PBS1}"),)),
)

PPBS = "ppbs PPBS in=t_low,c_in out=t_low,C_OUT tv=0.5773502691896258"
F1 = "filter F1 path=t_up th=0.5 tv=0.5"
HWP1 = "jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,0.8660254037844386"
HWP2 = "hwp HWP2 path=t_low angle=22.5"


def _scaled(statement: str, scale: float) -> str:
    """A ``jones`` statement with each (real) entry of its ``m=`` times ``scale``."""
    head, entries = statement.split("m=")
    return head + "m=" + ",".join(repr(float(e) * scale) for e in entries.split(","))


#: ``basic.lopc`` with one ranged element at or just past the edge of what its
#: kind accepts, as (label, statement, replacement): ppbs takes tv in (0, 1),
#: filter values in [0, 1], hwp any finite angle, and jones a matrix whose
#: largest singular value is at most 1 + 1e-12.
RANGE = (
    ("PPBS:tv=1.0", PPBS, PPBS.replace("0.5773502691896258", "1.0")),
    ("PPBS:tv=0.9999999999999999", PPBS, PPBS.replace("0.5773502691896258", "0.9999999999999999")),
    ("F1:th=1.0000000000000002", F1, F1.replace("th=0.5", "th=1.0000000000000002")),
    ("F1:th=-0.0", F1, F1.replace("th=0.5", "th=-0.0")),
    ("HWP2:angle=1e6", HWP2, HWP2.replace("22.5", "1e6")),
    ("HWP1:m*(1+0.5e-12)", HWP1, _scaled(HWP1, 1.0 + 0.5e-12)),
    ("HWP1:m*(1+2e-12)", HWP1, _scaled(HWP1, 1.0 + 2e-12)),
)

POSTSELECT_LINE = "postselect T_OUT=1 C_OUT=1 d=1"
#: Shipped layouts with another postselect statement, as (label, variant,
#: statement).  ``ports`` fix what is post-selected, so the ``T_OUT2`` runs
#: print what the shipped files print.
POSTSELECT = (
    ("dual.lopc(T_OUT2=1)", "dual", "postselect T_OUT2=1 C_OUT=1 d=1"),
    ("full.lopc(T_OUT2=1)", "full", "postselect T_OUT2=1 C_OUT=1 d=1"),
    ("full.lopc(C_OUT=2,d=0)", "full", "postselect T_OUT=1 C_OUT=2 d=0"),
    ("full.lopc(T_OUT2=0)", "full", "postselect T_OUT=1 T_OUT2=0 C_OUT=1 d=1"),
)

PLM = "phaseflip PLM path=t_low\n"
D_OUTCOME = "measure path=d outcome D ket=0.7071067811865475,0.7071067811865475"
#: ``ff.lopc`` and ``full.lopc`` with the correction PLM declared after the
#: last element, or applied on the D outcome too, as (label, variant, edits).
FEEDFORWARD = tuple(
    (f"{variant}.lopc({tag})", variant, edits)
    for variant in ("ff", "full")
    for tag, edits in (
        ("PLM-last", ((PLM, ""), (POSTSELECT_LINE, PLM + POSTSELECT_LINE))),
        ("D,A:correct=PLM", ((D_OUTCOME, D_OUTCOME + " correct=PLM"),)),
    )
)

#: ``full.lopc`` with a literal field given mixed faults, as (label, statement,
#: replacement): an infinity beside an invalid entry on either side, infinities
#: whose sum is NaN, a NaN, an entry past the float range, and finite entries
#: whose sum overflows, which the parser accepts and the element's or the ket's
#: own check rejects.
MIXED_PAIRS = (("inf", "x"), ("x", "inf"), ("-inf", "inf"), ("0", "nan"), ("0", "1e309"),
               ("1e308", "1e308"))
MIXED_M = ("inf,x,0,1", "x,inf,0,1", "-inf,inf,0,0", "0,nan,0,0", "0,0,0,1e309", "1e308,1e308,0,0")
LITERALS = (
    *((f"HWP1:m={m}", HWP1, f"jones HWP1 path=t_low m={m}") for m in MIXED_M),
    *((f"D:ket={a},{b}", D_OUTCOME, f"measure path=d outcome D ket={a},{b}")
      for a, b in MIXED_PAIRS),
    *((f"F2:th={a},tv={b}", F2, f"filter F2 path=C_OUT th={a} tv={b}") for a, b in MIXED_PAIRS),
)

PBS3 = "pbs PBS3 in=t_low,p_in out=t_low,d"
#: ``basic.lopc`` with light merged onto a lit path, as (label, edits): PX after
#: F2 reflects t_up onto C_OUT, behind a plate turning t_up or on its own, and
#: PY after PBS3 sends t_up onto C_OUT and d, both lit.
MERGED = (
    ("basic.lopc(+HX,PX)", ((F2, f"{F2}\nhwp HX path=t_up angle=22.5\n"
                                 "pbs PX in=t_up,t_in2 out=t_up,C_OUT"),)),
    ("basic.lopc(+PX)", ((F2, f"{F2}\npbs PX in=t_up,t_in2 out=C_OUT,t_up"),)),
    ("basic.lopc(+PY)", ((PBS3, f"{PBS3}\npbs PY in=t_up,t_in2 out=C_OUT,d"),)),
)


def commands():
    """The fixed argv matrix, without ``--out``."""
    for command, variant, builtin, grid, meta, fmt in itertools.product(
        ("verify", "sweep"), VARIANTS, (True, False), GRIDS, (False, True), ("csv", "json")
    ):
        source = [] if builtin else ["--netlist", f"src/lopcsim/circuits/{variant}.lopc"]
        yield [command, "--variant", variant, *source, *grid, *(["--meta"] * meta),
               "--format", fmt]
    for argv, meta, fmt in itertools.product(OTHER, (False, True), ("csv", "json")):
        yield [*argv, *(["--meta"] * meta), "--format", fmt]
    for argv, meta, fmt in itertools.product(HOM, (False, True), ("csv", "json")):
        yield [*argv, *(["--meta"] * meta), "--format", fmt]
    for command, variant, grid, fmt in itertools.product(
        ("verify", "sweep"), VARIANTS, LONG, ("csv", "json")
    ):
        yield [command, "--variant", variant, *grid, "--format", fmt]


def malformed():
    """(variant, label, text) of each one-token corruption of a shipped netlist,
    then of ``full.lopc`` re-spaced with each of ``RESPACED``."""
    sources = [(variant, f"{variant}.lopc", " ") for variant in MALFORMED_VARIANTS]
    sources += [("full", f"full.lopc({tag})", sep) for tag, sep in RESPACED]
    for variant, name, sep in sources:
        text = Path("src/lopcsim/circuits", f"{variant}.lopc").read_text(encoding="utf-8")
        lines = [sep.join(line.split()) for line in text.splitlines()]
        for i, line in enumerate(lines):
            for t, match in enumerate(re.finditer(r"\S+", line.split("#", 1)[0])):
                word = match.group()
                edits = [("drop", ""), ("?", "?" + word)]
                if "=" in word:
                    key = word.split("=", 1)[0]
                    edits += [(f"={value}", f"{key}={value}") for value in MALFORMED_VALUES]
                for edit, new in edits:
                    bad = line[:match.start()] + new + line[match.end():]
                    text = "\n".join([*lines[:i], bad, *lines[i + 1:]]) + "\n"
                    yield variant, f"{name}:{i + 1}:{t + 1}:{edit}", text


def edited(variant: str, edits) -> str:
    """The shipped ``<variant>.lopc`` with each (statement, replacement) made."""
    text = Path("src/lopcsim/circuits", f"{variant}.lopc").read_text(encoding="utf-8")
    for statement, replacement in edits:
        if statement not in text:
            raise SystemExit(f"{variant}.lopc has no statement {statement!r}")
        text = text.replace(statement, replacement)
    return text


def listing(root: Path) -> list[str]:
    """The digest lines of the matrix run in ``root``, from a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, str(root)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def against(revision: str, root: Path) -> int:
    """Print each digest line that differs between ``revision`` and ``root``;
    1 if any does, else 0."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=root,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        before = listing(Path(tmp))
    after = listing(root)
    differ = [(old, new) for old, new in itertools.zip_longest(before, after, fillvalue="")
              if old != new]
    for old, new in differ:
        print(f"- {old}\n+ {new}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", metavar="REV",
                        help="print only the lines that differ from this git revision")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    if args.against:
        return against(args.against, root)
    os.chdir(root)
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(root / "src"))
    from lopcsim.cli import main as lopcsim

    with tempfile.TemporaryDirectory() as tmp:
        out, netlist = Path(tmp) / "out", Path(tmp) / "malformed.lopc"

        def digest(args: list[str], to_file: bool = True) -> str:
            out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()) as err, \
                    contextlib.redirect_stdout(io.StringIO()) as printed:
                code = lopcsim([*args, "--out", str(out)] if to_file else args)
            h = hashlib.blake2b(f"{code}\n{err.getvalue()}\0".encode(), digest_size=16)
            if to_file:
                h.update(out.read_bytes() if out.exists() else b"")
            else:
                h.update(printed.getvalue().encode())
            return h.hexdigest()

        for args in commands():
            print(f"{digest(args)}  {' '.join(args)}")
        for args in ARGV:
            print(f"{digest(args, to_file=False)}  (stdout) {' '.join(args)}")
        label, edits = DETUNED
        netlist.write_text(edited("full", edits), encoding="utf-8")
        args = ["sweep", "--variant", "full", "--netlist"]
        for fmt in ("csv", "json"):
            grid = ["--steps", "33", "--format", fmt]
            print(f"{digest([*args, str(netlist), *grid])}  {' '.join([*args, label, *grid])}")
        for label, variant, edits in DEAD:
            netlist.write_text(edited(variant, edits), encoding="utf-8")
            for command in ("sweep", "verify"):
                args = [command, "--variant", variant, "--netlist"]
                print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
        for label, statement, replacement in RANGE:
            netlist.write_text(edited("basic", ((statement, replacement),)), encoding="utf-8")
            args = ["verify", "--variant", "basic", "--netlist"]
            print(f"{digest([*args, str(netlist)])}  {' '.join([*args, f'basic.lopc({label})'])}")
        for label, variant, statement in POSTSELECT:
            netlist.write_text(edited(variant, ((POSTSELECT_LINE, statement),)), encoding="utf-8")
            for command in ("verify", "sweep"):
                args = [command, "--variant", variant, "--netlist"]
                print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
        for label, variant, edits in FEEDFORWARD:
            netlist.write_text(edited(variant, edits), encoding="utf-8")
            for command in ("verify", "sweep"):
                args = [command, "--variant", variant, "--netlist"]
                print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
        for label, statement, replacement in LITERALS:
            netlist.write_text(edited("full", ((statement, replacement),)), encoding="utf-8")
            args = ["verify", "--variant", "full", "--netlist"]
            print(f"{digest([*args, str(netlist)])}  {' '.join([*args, f'full.lopc({label})'])}")
        for label, edits in MERGED:
            netlist.write_text(edited("basic", edits), encoding="utf-8")
            for command in ("verify", "sweep"):
                args = [command, "--variant", "basic", "--netlist"]
                print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
        for variant, label, text in malformed():
            netlist.write_text(text, encoding="utf-8")
            args = ["verify", "--variant", variant, "--netlist"]
            print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
