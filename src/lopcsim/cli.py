"""Command-line front end: verification, phase sweeps and interference scans.

All commands emit deterministic CSV or JSON: identical configuration gives
byte-identical output.  Run metadata is only added behind --meta and never
includes timestamps.

Exit codes: 0 success, 1 verification failure, 2 usage or netlist errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import __version__
from .gates import CompiledCircuit, hom_scan
from .netlist import VARIANTS, NetlistValidationError, builtin_variant, parse
from .oracle import branch_table

_DEFAULT_TV = 1.0 / math.sqrt(3.0)
#: Most points a --steps grid may have; larger requests are rejected before
#: any grid is built (the benchmark's longest grid has about 1100 points).
MAX_STEPS = 100_000
DEFAULT_STEPS = 21
#: Shortest float column whose repeats the emitter looks for: in a shorter
#: one (a short ``verify`` grid), formatting each value costs less.
SHORTEST_DEDUPED = 16


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a non-negative tolerance, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser, phase_grid: bool) -> list[argparse.Action]:
    """Add the options ``verify``, ``sweep`` and ``hom`` share; return their actions."""
    actions = [
        sub.add_argument("--format", choices=("csv", "json"), default="csv"),
        sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout"),
        sub.add_argument("--meta", action="store_true", help="include run configuration metadata"),
        sub.add_argument(
            "--from", dest="grid_from", type=_finite, default=None, metavar="X",
            help="grid start; write a negative value as --from=-1e-3",
        ),
        sub.add_argument(
            "--to", dest="grid_to", type=_finite, default=None, metavar="X",
            help="grid end; write a negative value as --to=-1e-3",
        ),
        sub.add_argument(
            "--steps", type=int, default=None, metavar="N", help=f"grid points, 1 to {MAX_STEPS}"
        ),
    ]
    if phase_grid:
        actions += [
            sub.add_argument("--variant", choices=VARIANTS, default="basic"),
            sub.add_argument("--netlist", metavar="FILE", help="run this netlist file instead"),
            sub.add_argument(
                "--phi", type=_finite, help="single phase, instead of --from/--to/--steps"
            ),
            sub.add_argument(
                "--degrees", action="store_true", help="interpret --phi/--from/--to in degrees"
            ),
        ]
    return actions


def build_parser() -> argparse.ArgumentParser:
    """The ``lopcsim`` parser; its ``options`` maps each command word to the
    actions of that command's options, by option string."""
    parser = argparse.ArgumentParser(
        prog="lopcsim",
        description="Simulate and verify the programmable-phase photonic two-qubit gate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="check the gate against the scalar oracle over a phase grid"
    )
    verify_actions = [*_add_common(verify, phase_grid=True), verify.add_argument(
        "--tol", type=_tolerance, default=1e-10, help="pass/fail tolerance, at least 0"
    )]

    sweep = commands.add_parser("sweep", help="tabulate probabilities over a phase grid")
    sweep_actions = _add_common(sweep, phase_grid=True)

    hom = commands.add_parser(
        "hom", help="two-photon interference scan against wavepacket overlap"
    )
    hom_actions = [*_add_common(hom, phase_grid=False), hom.add_argument(
        "--tv", type=_finite, default=_DEFAULT_TV, help="splitter transmissivity"
    )]
    parser.options = {
        word: {option: action for action in actions for option in action.option_strings}
        for word, actions in [("verify", verify_actions), ("sweep", sweep_actions),
                              ("hom", hom_actions)]
    }
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one ``build_parser()``: it depends on no input, and parsing
    leaves it as it was."""
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, read in one scan where it can be.

    The scan takes an argv whose first word is a command and whose every
    other word is an exact option string of that command: a flag alone, or
    a value option with its value after ``=`` (not empty, not ``--``) or in
    the next word (not empty, not led by ``-``), a value that the option's
    ``type`` converts and its ``choices`` hold.  Each option the argv leaves
    out keeps its default, and a repeated option its last value.  Any other
    argv goes through the parser, which writes every usage, help, version
    and error text.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    options = parser.options.get(argv[0]) if argv else None
    values = None if options is None else _scan(options, argv[1:])
    if values is None:
        return parser.parse_args(argv)
    return argparse.Namespace(command=argv[0], **values)


def _scan(options: dict, words: list[str]) -> dict | None:
    """Each option's value after ``words``, by ``dest``, or None where the scan
    of ``_parse_args`` does not take them."""
    values = {action.dest: action.default for action in options.values()}
    words = iter(words)
    for word in words:
        option, equals, value = word.partition("=")
        action = options.get(option)
        if action is not None and action.nargs == 0 and not equals:
            values[action.dest] = action.const
            continue
        if action is None or action.nargs == 0:
            return None
        if not equals:
            value = next(words, "")
            if value.startswith("-"):
                return None
        if value in ("", "--"):  # argparse reads ``--out=--`` as an empty list
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return values


def _grid(args, lo: float, hi: float) -> np.ndarray:
    """The float64 grid of --phi or --from/--to/--steps, in radians.

    Point i is ``start + i * (stop - start) / (steps - 1)``, bit for bit,
    except where ``i * (stop - start)`` overflows: there it is
    ``start + i * ((stop - start) / (steps - 1))``.  A point that rounds past
    the float range is inf, left to the command to reject.
    """
    single = getattr(args, "phi", None)
    if single is not None:
        if (args.grid_from, args.grid_to, args.steps) != (None, None, None):
            raise ValueError("--phi cannot be combined with --from/--to/--steps")
        values = np.array([float(single)])
    else:
        start = lo if args.grid_from is None else float(args.grid_from)
        stop = hi if args.grid_to is None else float(args.grid_to)
        steps = DEFAULT_STEPS if args.steps is None else int(args.steps)
        if not 1 <= steps <= MAX_STEPS:
            raise ValueError(f"grid needs 1 to {MAX_STEPS} points, got steps={steps}")
        if steps == 1:
            values = np.array([start])
        elif not math.isfinite(stop - start):
            raise ValueError(f"--from={start!r} to --to={stop!r} spans more than a float holds")
        else:
            span, last = stop - start, steps - 1
            with np.errstate(over="ignore"):
                offsets = np.arange(steps) * span / last
                if not math.isfinite(last * span):  # the largest product overflows
                    over = np.isinf(offsets)
                    offsets[over] = np.flatnonzero(over) * (span / last)
                values = start + offsets
    if getattr(args, "degrees", False):
        values = np.radians(values)
    return values


def _load_netlist(args):
    """The netlist named on the command line, parsed but not yet validated."""
    if args.netlist:
        return parse(Path(args.netlist).read_text(encoding="utf-8"))
    return builtin_variant(args.variant)


def _meta_pairs(args, command: str) -> list[tuple[str, str]]:
    pairs = [("tool", f"lopcsim {__version__}"), ("command", command)]
    if hasattr(args, "variant"):
        pairs.append(("variant", args.variant))
        if args.netlist:
            pairs.append(("netlist", args.netlist))
    return pairs + [(k, "%.17g" % getattr(args, k)) for k in ("tv", "tol") if hasattr(args, k)]


def _emit(args, command: str, header: list[str], columns, repeats=()) -> None:
    """Write columns as rows, one column per header field.

    Each column (floats or bools that numpy reads, or str) becomes its cells
    through ``_cells``; ``repeats[i]``, if given, writes each cell of column i
    on that many consecutive rows, and a column that then holds fewer cells
    than the table has rows is written whole, again and again, until it fills
    them.  CSV prints floats as ``%.17g`` and JSON equals ``json.dumps(rows,
    indent=2, sort_keys=True, allow_nan=False)`` of the row dicts, byte for
    byte.

    Each output column has a fixed prefix, the text before each of its cells:
    a newline or a comma in CSV; in JSON its quoted key, after the previous
    row's close for the first key in sorted order.  The first row's first
    prefix gives way to the lead (the meta and header lines, or the opening
    of the list), and the tail (the closing and the final newline) follows
    the last row, so that the whole text is built at once.  A table whose
    every column ``_cells`` leaves as float values (a ``hom`` scan) is one
    ``%`` of its row template repeated once per row, over the values row by
    row.  Any other table places each column's cells, prefixes included, by
    strided slices into one list that is joined once, and a column written
    again and again (a ``sweep``'s branch labels) is formatted once.
    ``--out`` gets the UTF-8 bytes of the text through one unbuffered file,
    written until every byte is.
    """
    as_json = args.format == "json"
    meta = _meta_pairs(args, command) if args.meta else []
    order = sorted(range(len(header)), key=header.__getitem__) if as_json else range(len(header))
    if as_json:
        pad = "    " if meta else "  "
        fields = [f"\n{pad}  {_quote(header[i])}: " for i in order]
        prefixes = [f"\n{pad}}},\n{pad}{{{fields[0]}", *(f",{field}" for field in fields[1:])]
        opening = closing = ""
        if meta:
            pairs = ",\n".join(f"    {_quote(k)}: {_quote(v)}" for k, v in sorted(meta))
            opening, closing = f'{{\n  "meta": {{\n{pairs}\n  }},\n  "rows": ', "\n}"
        # the first row opens the list where each other row closes the one before
        lead = f"{opening}[\n{pad}{{{fields[0]}"
        tail, empty = f"\n{pad}}}\n{pad[2:]}]{closing}\n", f"{opening}[]{closing}\n"
    else:
        prefixes = ["\n", *[","] * (len(header) - 1)]
        lead = "\n".join([*(f"# {key}={value}" for key, value in meta), ",".join(header)]) + "\n"
        tail, empty = "\n", lead
    before = dict(zip(order, prefixes))
    cells = [_cells(column, as_json, before[i]) for i, column in enumerate(columns)]
    number = "%r" if as_json else "%.17g"
    formats = {i: prefix.replace("%", "%%") + number for i, prefix in before.items()}
    times = [*repeats, *[1] * (len(cells) - len(repeats))]
    rows = max(len(column) * n for column, n in zip(cells, times))
    if not rows:
        text = empty
    elif all(isinstance(column, np.ndarray) and len(column) == rows for column in cells):
        values = tuple(np.column_stack([cells[i] for i in order]).ravel().tolist())
        row = "".join(formats[i] for i in order)
        first = lead.replace("%", "%%") + row[len(prefixes[0].replace("%", "%%")):]
        text = (first + row * (rows - 1) + tail.replace("%", "%%")) % values
    else:
        stride = len(cells)
        parts = [""] * (rows * stride)
        for j, i in enumerate(order):
            pieces, n = cells[i], times[i]
            if isinstance(pieces, np.ndarray):
                pieces = list(map(formats[i].__mod__, pieces.tolist()))
            if len(pieces) * n < rows:
                pieces = pieces * (rows // (len(pieces) * n))
            for k in range(n):
                parts[j + k * stride::n * stride] = pieces
        parts[0] = lead + parts[0][len(prefixes[0]):]
        parts.append(tail)
        text = "".join(parts)
    if args.out:
        with open(args.out, "wb", buffering=0) as file:
            data = memoryview(text.encode())
            while data:
                data = data[file.write(data):]
    else:
        sys.stdout.write(text)


def _cells(column, as_json: bool, prefix: str) -> list[str] | np.ndarray:
    """The text of each cell of one column, each after ``prefix``, or its
    float64 values where each is to be formatted on its own.

    Floats are told apart by their bit pattern, so ``0.0`` and ``-0.0`` print
    apart.  One sort of the bit patterns shows whether any value repeats; a
    column of distinct values, or one shorter than ``SHORTEST_DEDUPED``, comes
    back as its values, and any other float column as its text, each distinct
    value formatted once.  JSON refuses a non-finite float.
    """
    if len(column) and isinstance(column[0], str):
        quote = _quote if as_json else str
        return [prefix + quote(label) for label in column]
    values = np.asarray(column)
    if values.dtype == bool:
        return np.where(values, prefix + "true", prefix + "false").tolist()
    values = values.astype(np.float64, copy=False)
    bad = values[~np.isfinite(values)] if as_json else ()
    if len(bad):
        raise ValueError(f"Out of range float values are not JSON compliant: {float(bad[0])!r}")
    if len(values) >= SHORTEST_DEDUPED:
        bits = values.view(np.int64)
        keys = np.sort(bits)
        changes = keys[1:] != keys[:-1]
        if np.count_nonzero(changes) + 1 < len(keys):
            number = prefix.replace("%", "%%") + ("%r" if as_json else "%.17g")
            distinct = keys[np.concatenate(([True], changes))]
            cells = np.array(list(map(number.__mod__, distinct.view(np.float64).tolist())),
                             dtype=object)
            return cells[np.searchsorted(distinct, bits)].tolist()
    return values


def _labels(keys) -> str:
    return ", ".join(sorted(f"{outcome}:{port}" for outcome, port in keys))


def _check_oracle_shape(circuit: CompiledCircuit, variant: str, table: dict) -> None:
    """The netlist must have exactly the branches of the oracle's ``table`` (of any phase)."""
    found = set(circuit.branch_keys)
    expected = set(table)
    if found == expected:
        return
    matching = [v for v in VARIANTS if set(branch_table([0.0], v)) == found]
    hint = (
        f"rerun with --variant {matching[0]}"
        if matching
        else "no built-in oracle variant has these branches"
    )
    raise ValueError(
        f"netlist branches [{_labels(found)}] differ from the {variant!r} oracle's "
        f"[{_labels(expected)}]; {hint}"
    )


def _amplitude_error(ops: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Per phase, the largest modulus of an entry of ``ops`` (P, B, 4, 4) less
    the diagonal operators whose diagonals ``oracle`` (B, P, 4) holds."""
    diagonal = np.arange(4)
    err = np.abs(ops)
    err[..., diagonal, diagonal] = np.abs(ops.diagonal(0, 2, 3) - oracle.transpose(1, 0, 2))
    return err.max(axis=(1, 2, 3))


def cmd_verify(args) -> int:
    circuit = CompiledCircuit(_load_netlist(args))
    phis = _grid(args, 0.0, math.pi)
    table = branch_table(phis, args.variant)
    _check_oracle_shape(circuit, args.variant, table)
    tol = float(args.tol)
    nominal = len(table) / 48.0
    grid = circuit.evaluate(phis)
    # popped, so that each branch's oracle array is freed once it is stacked
    err = _amplitude_error(circuit.operators(phis),
                           np.array([table.pop(key) for key in grid.branch_keys]))
    ok = (err <= tol) & (abs(grid.p_success - nominal) <= tol) & (abs(grid.fidelity - 1.0) <= tol)
    header = ["phi_rad", "p_success", "fidelity", "max_amp_err", "ok"]
    columns = [phis, grid.p_success, grid.fidelity, err, ok]
    _emit(args, "verify", header, columns)
    status = "PASS" if ok.all() else "FAIL"
    print(f"verify {args.variant}: {status} over {len(phis)} phase values", file=sys.stderr)
    return 0 if ok.all() else 1


def cmd_sweep(args) -> int:
    phis = np.sort(_grid(args, 0.0, math.pi), kind="stable")
    grid = CompiledCircuit(_load_netlist(args)).evaluate(phis)
    del phis  # grid.phis is evaluate's own copy
    labels, order = zip(*sorted((f"{o}:{p}", b) for b, (o, p) in enumerate(grid.branch_keys)))
    columns = [grid.phis, grid.p_success, grid.fidelity, labels]
    _emit(args, "sweep", ["phi_rad", "p_success", "fidelity", "branch", "branch_prob"],
          columns + [grid.probabilities[:, order].ravel()], repeats=[len(order)] * 3)
    return 0


def cmd_hom(args) -> int:
    grid = _grid(args, 0.0, 1.0)
    _emit(args, "hom", ["v", "coincidence"], [grid, hom_scan(float(args.tv), grid)])
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # looked up on each call, so a replaced ``cmd_*`` is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except NetlistValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # NetlistError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
