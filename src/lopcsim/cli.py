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


def _add_common(sub: argparse.ArgumentParser, phase_grid: bool) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sub.add_argument("--meta", action="store_true", help="include run configuration metadata")
    sub.add_argument(
        "--from", dest="grid_from", type=_finite, default=None, metavar="X",
        help="grid start; write a negative value as --from=-1e-3",
    )
    sub.add_argument(
        "--to", dest="grid_to", type=_finite, default=None, metavar="X",
        help="grid end; write a negative value as --to=-1e-3",
    )
    sub.add_argument(
        "--steps", type=int, default=None, metavar="N", help=f"grid points, 1 to {MAX_STEPS}"
    )
    if phase_grid:
        sub.add_argument("--variant", choices=VARIANTS, default="basic")
        sub.add_argument("--netlist", metavar="FILE", help="run this netlist file instead")
        sub.add_argument("--phi", type=_finite, help="single phase, instead of --from/--to/--steps")
        sub.add_argument(
            "--degrees", action="store_true", help="interpret --phi/--from/--to in degrees"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lopcsim",
        description="Simulate and verify the programmable-phase photonic two-qubit gate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="check the gate against the scalar oracle over a phase grid"
    )
    _add_common(verify, phase_grid=True)
    verify.add_argument(
        "--tol", type=_tolerance, default=1e-10, help="pass/fail tolerance, at least 0"
    )
    verify.set_defaults(func=cmd_verify)

    sweep = commands.add_parser("sweep", help="tabulate probabilities over a phase grid")
    _add_common(sweep, phase_grid=True)
    sweep.set_defaults(func=cmd_sweep)

    hom = commands.add_parser(
        "hom", help="two-photon interference scan against wavepacket overlap"
    )
    _add_common(hom, phase_grid=False)
    hom.add_argument("--tv", type=_finite, default=_DEFAULT_TV, help="splitter transmissivity")
    hom.set_defaults(func=cmd_hom)
    return parser


def _grid(args, lo: float, hi: float) -> list[float]:
    single = getattr(args, "phi", None)
    if single is not None:
        if (args.grid_from, args.grid_to, args.steps) != (None, None, None):
            raise ValueError("--phi cannot be combined with --from/--to/--steps")
        values = [float(single)]
    else:
        start = lo if args.grid_from is None else float(args.grid_from)
        stop = hi if args.grid_to is None else float(args.grid_to)
        steps = DEFAULT_STEPS if args.steps is None else int(args.steps)
        if not 1 <= steps <= MAX_STEPS:
            raise ValueError(f"grid needs 1 to {MAX_STEPS} points, got steps={steps}")
        if steps == 1:
            values = [start]
        else:
            values = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    if getattr(args, "degrees", False):
        values = [math.radians(v) for v in values]
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
    """Write equal-length columns as rows, one column per header field.

    Each column (floats or bools that numpy reads, or str) is formatted once
    and the rows are joined from one template; ``repeats[i]``, if given,
    writes each cell of column i on that many consecutive rows.  CSV prints
    floats as ``%.17g``; JSON is ``json.dumps(rows, indent=2,
    sort_keys=True, allow_nan=False)`` of the row dicts, byte for byte.
    """
    as_json = args.format == "json"
    cells = [_cells(column, as_json) for column in columns]
    for i, n in enumerate(repeats):
        cells[i] = [cell for cell in cells[i] for _ in range(n)]
    meta = _meta_pairs(args, command) if args.meta else []
    if as_json:
        pad = "    " if meta else "  "
        keys = sorted(range(len(header)), key=header.__getitem__)
        fields = ",\n".join(f"{pad}  {_quote(header[i]).replace('%', '%%')}: %s" for i in keys)
        template = "{\n" + fields + "\n" + pad + "}"
        rows = f",\n{pad}".join([template % row for row in zip(*(cells[i] for i in keys))])
        text = f"[\n{pad}{rows}\n{pad[2:]}]" if rows else "[]"
        if meta:
            pairs = ",\n".join(f"    {_quote(k)}: {_quote(v)}" for k, v in sorted(meta))
            text = f'{{\n  "meta": {{\n{pairs}\n  }},\n  "rows": {text}\n}}'
    else:
        lines = [*(f"# {key}={value}" for key, value in meta), ",".join(header)]
        text = "\n".join(lines + list(map(",".join, zip(*cells))))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _cells(column, as_json: bool) -> list[str]:
    if len(column) and isinstance(column[0], str):
        return list(map(_quote, column)) if as_json else list(column)
    values = np.asarray(column)
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    bad = values[~np.isfinite(values)] if as_json else ()
    if len(bad):
        raise ValueError(f"Out of range float values are not JSON compliant: {float(bad[0])!r}")
    return list(map(float.__repr__ if as_json else "%.17g".__mod__, values.tolist()))


def _labels(keys) -> str:
    return ", ".join(sorted(f"{outcome}:{port}" for outcome, port in keys))


def _check_oracle_shape(circuit: CompiledCircuit, variant: str, table: dict) -> None:
    """The netlist must have exactly the branches of the oracle's ``table`` (of any phase)."""
    found = set(circuit.branch_keys)
    expected = set(table)
    if found == expected:
        return
    matching = [v for v in VARIANTS if set(branch_table(0.0, v)) == found]
    hint = (
        f"rerun with --variant {matching[0]}"
        if matching
        else "no built-in oracle variant has these branches"
    )
    raise ValueError(
        f"netlist branches [{_labels(found)}] differ from the {variant!r} oracle's "
        f"[{_labels(expected)}]; {hint}"
    )


def cmd_verify(args) -> int:
    circuit = CompiledCircuit(_load_netlist(args))
    phis = _grid(args, 0.0, math.pi)
    tables = [branch_table(phis[0], args.variant)]
    _check_oracle_shape(circuit, args.variant, tables[0])
    tables += [branch_table(phi, args.variant) for phi in phis[1:]]
    tol = float(args.tol)
    grid = circuit.evaluate(phis)
    expected = np.array([[np.diag(t[key]) for key in grid.branch_keys] for t in tables])
    nominal = np.array([len(t) for t in tables]) / 48.0
    err = np.max(np.abs(grid.ops - expected), axis=(1, 2, 3))
    ok = (err <= tol) & (abs(grid.p_success - nominal) <= tol) & (abs(grid.fidelity - 1.0) <= tol)
    header = ["phi_rad", "p_success", "fidelity", "max_amp_err", "ok"]
    _emit(args, "verify", header, [phis, grid.p_success, grid.fidelity, err, ok])
    status = "PASS" if ok.all() else "FAIL"
    print(f"verify {args.variant}: {status} over {len(phis)} phase values", file=sys.stderr)
    return 0 if ok.all() else 1


def cmd_sweep(args) -> int:
    grid = CompiledCircuit(_load_netlist(args)).evaluate(sorted(_grid(args, 0.0, math.pi)))
    labels, order = zip(*sorted((f"{o}:{p}", b) for b, (o, p) in enumerate(grid.branch_keys)))
    columns = [grid.phis, grid.p_success, grid.fidelity, list(labels) * len(grid.phis)]
    _emit(args, "sweep", ["phi_rad", "p_success", "fidelity", "branch", "branch_prob"],
          columns + [grid.probabilities[:, order].ravel()], repeats=[len(order)] * 3)
    return 0


def cmd_hom(args) -> int:
    pairs = hom_scan(float(args.tv), _grid(args, 0.0, 1.0))
    _emit(args, "hom", ["v", "coincidence"], zip(*pairs))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NetlistValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # NetlistError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
