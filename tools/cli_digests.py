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

After the fixed matrix comes a 33-point ``sweep`` of ``full.lopc`` with two
plates turned (``DETUNED``), written to the temporary directory and
labelled in its line, so that the fidelity column changes from phase to
phase.  Then come the shipped layouts with all of one input's light
filtered out (``DEAD``), each run through ``sweep`` and ``verify
--netlist``: compiling rejects them, naming the dead input per outcome.

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
GRIDS = (
    *(["--steps", str(n)] for n in (1, 7, 33, 401)),
    ["--phi", "0.5"],
    ["--from=-90", "--to", "270", "--steps", "33", "--degrees"],
    ["--from=-7", "--to", "20", "--steps", "33"],
)
#: Failing and rejected runs: a 1e-16 tolerance fails some phases (exit 1), a
#: netlist checked against another variant's oracle and a grid whose span
#: overflows a float are usage errors (exit 2).  Then a phase or overlap of
#: -0.0, which must print apart from 0.0.
OTHER = (
    *(["verify", "--variant", v, "--steps", "7", "--tol", "1e-16"] for v in VARIANTS),
    ["verify", "--variant", "basic", "--netlist", "src/lopcsim/circuits/full.lopc"],
    *([command, "--from=-1e308", "--to=1e308", "--steps", "3"] for command in ("verify", "hom")),
    *([command, "--variant", v, "--phi=-0.0"] for command in ("verify", "sweep") for v in VARIANTS),
    ["hom", "--from=-0.0", "--steps", "1"],
)
HOM = (["hom", "--steps", "41"], ["hom", "--steps", "41", "--tv", "0.3", "--meta"])
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
    for argv, fmt in itertools.product(HOM, ("csv", "json")):
        yield [*argv, "--format", fmt]


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
    sys.path.insert(0, str(root / "src"))
    from lopcsim.cli import main as lopcsim

    with tempfile.TemporaryDirectory() as tmp:
        out, netlist = Path(tmp) / "out", Path(tmp) / "malformed.lopc"

        def digest(args: list[str]) -> str:
            out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = lopcsim([*args, "--out", str(out)])
            h = hashlib.blake2b(f"{code}\n{err.getvalue()}\0".encode(), digest_size=16)
            h.update(out.read_bytes() if out.exists() else b"")
            return h.hexdigest()

        for args in commands():
            print(f"{digest(args)}  {' '.join(args)}")
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
        for variant, label, text in malformed():
            netlist.write_text(text, encoding="utf-8")
            args = ["verify", "--variant", variant, "--netlist"]
            print(f"{digest([*args, str(netlist)])}  {' '.join([*args, label])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
