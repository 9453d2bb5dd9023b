"""Command-line front end: verification, phase sweeps and interference scans.

All commands emit deterministic CSV or JSON: identical configuration gives
byte-identical output.  Run metadata is only added behind --meta and never
includes timestamps.

Exit codes: 0 success, 1 verification failure, 2 usage or netlist errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gates import CompiledCircuit, hom_scan, sweep_phi
from .netlist import VARIANTS, NetlistError, NetlistValidationError, builtin_variant, parse
from .oracle import branch_table

_DEFAULT_TV = 1.0 / math.sqrt(3.0)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser, phase_grid: bool) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sub.add_argument("--meta", action="store_true", help="include run configuration metadata")
    sub.add_argument("--from", dest="grid_from", type=_finite, default=None, metavar="X")
    sub.add_argument("--to", dest="grid_to", type=_finite, default=None, metavar="X")
    sub.add_argument("--steps", type=int, default=None, metavar="N")
    if phase_grid:
        sub.add_argument("--variant", choices=sorted(VARIANTS), default="basic")
        sub.add_argument("--netlist", metavar="FILE", help="run this netlist file instead")
        sub.add_argument("--phi", type=_finite, default=None, help="single phase value")
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
    verify.add_argument("--tol", type=_finite, default=1e-10, help="pass/fail tolerance")
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


def _grid(args, lo: float, hi: float, default_steps: int = 21) -> list[float]:
    single = getattr(args, "phi", None)
    if single is not None:
        values = [float(single)]
    else:
        start = lo if args.grid_from is None else float(args.grid_from)
        stop = hi if args.grid_to is None else float(args.grid_to)
        steps = default_steps if args.steps is None else int(args.steps)
        if steps < 1:
            raise ValueError(f"grid needs at least one point, got steps={steps}")
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
    if hasattr(args, "tv"):
        pairs.append(("tv", _fmt(args.tv)))
    if hasattr(args, "tol"):
        pairs.append(("tol", _fmt(args.tol)))
    return pairs


def _emit(args, command: str, header: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        lines = []
        if args.meta:
            lines.extend(f"# {key}={value}" for key, value in _meta_pairs(args, command))
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_cell(value) for value in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(header, row)) for row in rows]
        if args.meta:
            payload = {"meta": dict(_meta_pairs(args, command)), "rows": payload}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _labels(keys) -> str:
    return ", ".join(sorted(f"{outcome}:{port}" for outcome, port in keys))


def _check_oracle_shape(circuit: CompiledCircuit, variant: str) -> None:
    """The netlist must have exactly the branches of the oracle it is checked against."""
    found = set(circuit.branch_keys)
    expected = set(branch_table(0.0, variant))
    if found == expected:
        return
    matching = [v for v in sorted(VARIANTS) if set(branch_table(0.0, v)) == found]
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
    _check_oracle_shape(circuit, args.variant)
    tol = float(args.tol)
    header = ["phi_rad", "p_success", "fidelity", "max_amp_err", "ok"]
    rows = []
    all_ok = True
    for phi, report in zip(phis, circuit.evaluate(phis)):
        expected = branch_table(phi, args.variant)
        nominal = len(expected) / 48.0
        err = 0.0
        for branch in report.branches:
            target = np.diag(expected[(branch.outcome, branch.port)]).astype(complex)
            err = max(err, float(np.max(np.abs(branch.amplitudes - target))))
        ok = (
            err <= tol
            and abs(report.p_success - nominal) <= tol
            and abs(report.fidelity - 1.0) <= tol
        )
        all_ok = all_ok and ok
        rows.append([phi, report.p_success, report.fidelity, err, ok])
    _emit(args, "verify", header, rows)
    status = "PASS" if all_ok else "FAIL"
    print(f"verify {args.variant}: {status} over {len(phis)} phase values", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_sweep(args) -> int:
    circuit = _load_netlist(args)
    phis = sorted(_grid(args, 0.0, math.pi))
    header = ["phi_rad", "p_success", "fidelity", "branch", "branch_prob"]
    rows = [
        [report.phi, report.p_success, report.fidelity, label, prob]
        for report in sweep_phi(circuit, phis)
        for label, prob in sorted((b.label, b.probability) for b in report.branches)
    ]
    _emit(args, "sweep", header, rows)
    return 0


def cmd_hom(args) -> int:
    overlaps = _grid(args, 0.0, 1.0)
    rows = [[v, p] for v, p in hom_scan(float(args.tv), overlaps)]
    _emit(args, "hom", ["v", "coincidence"], rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetlistValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
