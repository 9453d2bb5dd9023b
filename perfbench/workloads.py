"""The four workloads: seeded operation generators and independent checks.

An operation ("op") is one user-level call: a CLI command run in-process
through ``lopcsim.cli.main(argv)`` with ``--out`` pointing at a file, or
one netlist taken through parse, validate, render and parse again.  Each
check compares the output with an answer worked out here, not with the
simulator: the closed-form probabilities of the gate and of two-photon
interference, the requested grids, and the corruption planted in a netlist.

Generators draw everything from ``random.Random(seed)``.  Within a block the
mix of costly and cheap ops is fixed and only their order and parameters
depend on the seed, so the median op of a run measures the same work on
every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus

VARIANTS = ("basic", "ff", "dual", "full")
#: Accepted branches per variant; each carries probability 1/48.
BRANCHES = {"basic": 1, "ff": 2, "dual": 2, "full": 4}
SWEEP_LABELS = ("A:T_OUT", "A:T_OUT2", "D:T_OUT", "D:T_OUT2")
TOL = 1e-10
HOM_TOL = 1e-12

#: Grid lengths of sweep-long in the order they are run.  The 101-point
#: class fills every other slot and the 401-point sweep comes last, so the
#: median op of any run of five ops or more is a 101-point sweep wherever
#: the time limit cuts the run.
SWEEP_CYCLE = (21, 101, 51, 101, 201, 101, 401)
#: Overlap-grid lengths of one hom-scan block.  An odd number of classes
#: puts the median op inside one class (601 points), not between two.
HOM_LENGTHS = tuple(range(101, 1102, 100))
#: Valid rewrites of each layout in one netlist-corpus block: 16 of 51
#: inputs.  The odd block size puts the median op inside one input kind.
VALID_PER_LAYOUT = 4

WORKLOADS = ("sweep-long", "verify-short", "netlist-corpus", "hom-scan")
#: What one work item is on each workload.
ITEM = {
    "sweep-long": "phase_points",
    "verify-short": "phase_points",
    "netlist-corpus": "netlists",
    "hom-scan": "overlap_points",
}


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...] = ()  # CLI argv, without --out
    text: str = ""  # netlist text, for netlist-corpus
    items: int = 1
    label: str = ""  # cost class, for the cost-versus-size table
    expect: dict = field(default_factory=dict, compare=False)
    malformed: bool = False  # an input the program must reject


@dataclass
class Outcome:
    start: float
    end: float
    output: bytes  # digest of the data output, to compare traced and untraced runs
    problem: str | None  # None when the check passed
    known_defect: str | None = None  # a corrupted input accepted as corpus.KNOWN_ACCEPTED says


def _grid(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + i * (stop - start) / (steps - 1) for i in range(steps)]


def sweep_ops(seed: int):
    rng = random.Random(seed)
    k = 0
    while True:
        steps = SWEEP_CYCLE[k % len(SWEEP_CYCLE)] + rng.randint(-2, 2)
        lo, hi = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
        fmt = ("csv", "json")[k % 2]
        yield Op(
            args=("sweep", "--variant", "full", f"--from={lo!r}", f"--to={hi!r}",
                  "--steps", str(steps), "--format", fmt),
            items=steps,
            label=str(SWEEP_CYCLE[k % len(SWEEP_CYCLE)]),
            expect={"fmt": fmt, "grid": sorted(_grid(lo, hi, steps))},
        )
        k += 1


def verify_ops(seed: int, circuits: Path):
    rng = random.Random(seed)
    while True:
        block = [(v, n, f) for v in VARIANTS for n in range(1, 6) for f in (False, True)]
        rng.shuffle(block)
        for variant, points, from_file in block:
            degrees = rng.random() < 1 / 3
            scale = 180.0 / math.pi if degrees else 1.0
            fmt = rng.choice(("csv", "json"))
            args = ["verify", "--variant", variant, "--format", fmt]
            if points == 1:
                phi = rng.uniform(-math.pi, 2 * math.pi) * scale
                args.append(f"--phi={phi!r}")
                grid = [phi]
            else:
                lo = rng.uniform(-math.pi, 2 * math.pi) * scale
                hi = rng.uniform(-math.pi, 2 * math.pi) * scale
                args += [f"--from={lo!r}", f"--to={hi!r}", "--steps", str(points)]
                grid = _grid(lo, hi, points)
            if degrees:
                args.append("--degrees")
                grid = [math.radians(v) for v in grid]
            if from_file:
                args += ["--netlist", str(circuits / f"{variant}.lopc")]
            yield Op(args=tuple(args), items=points, label=f"{variant}x{points}",
                     expect={"fmt": fmt, "grid": grid, "p": BRANCHES[variant] / 48.0})


def hom_ops(seed: int):
    rng = random.Random(seed)
    k = 0
    while True:
        lengths = [n + rng.randint(-2, 2) for n in HOM_LENGTHS]
        rng.shuffle(lengths)
        for steps in lengths:
            tv = rng.uniform(0.05, 0.95)
            lo, hi = rng.uniform(0.0, 0.999), rng.uniform(0.0, 0.999)
            fmt = ("csv", "json")[k % 2]
            k += 1
            yield Op(
                args=("hom", f"--tv={tv!r}", f"--from={lo!r}", f"--to={hi!r}",
                      "--steps", str(steps), "--format", fmt),
                items=steps,
                label=str(round(steps, -2)),
                expect={"fmt": fmt, "grid": _grid(lo, hi, steps), "tv": tv},
            )


def netlist_ops(seed: int):
    rng = random.Random(seed)
    while True:
        block = [corpus.valid_entry(v, rng) for v in VARIANTS for _ in range(VALID_PER_LAYOUT)]
        block += [corpus.corrupt_entry(key, rng) for key in corpus.STRUCTURAL]
        block += [corpus.corrupt_entry(key, rng) for key in corpus.NONFINITE]
        rng.shuffle(block)
        for entry in block:
            yield Op(text=entry.text, label=entry.kind, expect={"entry": entry},
                     malformed=entry.kind != "valid")


def ops(workload: str, seed: int, circuits: Path):
    """The endless, seeded op sequence of a workload."""
    if workload == "sweep-long":
        return sweep_ops(seed)
    if workload == "verify-short":
        return verify_ops(seed, circuits)
    if workload == "hom-scan":
        return hom_ops(seed)
    return netlist_ops(seed)


def warm_up_ops(workload: str, circuits: Path) -> list[Op]:
    """Small ops that load every code path of a workload before timing."""
    if workload == "sweep-long":
        return [Op(args=("sweep", "--variant", "full", "--steps", "3"), items=3,
                   expect={"fmt": "csv", "grid": _grid(0.0, math.pi, 3)})]
    if workload == "verify-short":
        return [Op(args=("verify", "--variant", v, "--phi", "0.5", "--netlist",
                         str(circuits / f"{v}.lopc")), items=1,
                   expect={"fmt": "csv", "grid": [0.5], "p": BRANCHES[v] / 48.0})
                for v in VARIANTS]
    if workload == "hom-scan":
        return [Op(args=("hom", "--steps", "11"), items=11,
                   expect={"fmt": "csv", "grid": _grid(0.0, 1.0, 11), "tv": 1.0 / math.sqrt(3.0)})]
    rng = random.Random(0)
    entries = [corpus.valid_entry(v, rng) for v in VARIANTS]
    entries += [corpus.corrupt_entry(key, rng) for key in list(corpus.STRUCTURAL)[:4]]
    return [Op(text=e.text, label=e.kind, expect={"entry": e}, malformed=e.kind != "valid")
            for e in entries]


# ---------------------------------------------------------------------------
# running and checking


class Runner:
    """Executes ops against an imported lopcsim and checks their outputs."""

    def __init__(self, out_file: Path):
        import lopcsim.cli
        import lopcsim.netlist

        self.cli = lopcsim.cli
        self.netlist = lopcsim.netlist
        self.out_file = out_file

    def load_circuits(self, circuits: Path) -> None:
        """Parse and validate the four shipped layouts, as a user's first call would."""
        for variant in VARIANTS:
            parsed = self.netlist.parse((circuits / f"{variant}.lopc").read_text(encoding="utf-8"))
            if self.netlist.validate(parsed):
                raise RuntimeError(f"shipped {variant}.lopc does not validate")

    def execute(self, op: Op) -> Outcome:
        start = perf_counter()
        try:
            return self._netlist(op) if op.text else self._command(op)
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            return Outcome(start, perf_counter(), b"", f"raised {type(exc).__name__}: {exc}")

    def _command(self, op: Op) -> Outcome:
        self.out_file.unlink(missing_ok=True)
        argv = [*op.args, "--out", str(self.out_file)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            finally:
                end = perf_counter()
        data = self.out_file.read_bytes() if self.out_file.exists() else b""
        if code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
        else:
            problem = CHECKS[op.args[0]](op, data)
        return Outcome(start, end, _digest(data), problem)

    def _netlist(self, op: Op) -> Outcome:
        nl = self.netlist
        parsed = again = error = None
        diagnostics: list[str] = []
        start = perf_counter()
        try:
            parsed = nl.parse(op.text)
            diagnostics = nl.validate(parsed)
            if not diagnostics:
                rendered = nl.render(parsed)
                again = nl.parse(rendered)
        except nl.NetlistError as exc:
            # Without its traceback and context, whose frames lead back to
            # this one, the error forms no reference cycle; cycles left to the
            # collector made peak memory and op times depend on when it ran.
            error = exc.with_traceback(None)
            error.__context__ = None
        finally:
            end = perf_counter()
        if error is not None:
            output = f"error line {error.line}: {error}".encode()
        elif diagnostics:
            output = "\n".join(diagnostics).encode()
        else:
            output = rendered.encode()
        entry = op.expect["entry"]
        problem = _check_netlist(entry, parsed, again, error, diagnostics)
        if problem and entry.kind in corpus.KNOWN_ACCEPTED and error is None and not diagnostics:
            return Outcome(start, end, _digest(output), None, problem)
        return Outcome(start, end, _digest(output), problem)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _check_netlist(entry, parsed, again, error, diagnostics) -> str | None:
    if entry.kind == "valid":
        if error is not None:
            return f"valid {entry.variant} rewrite rejected: {error}"
        if diagnostics:
            return f"valid {entry.variant} rewrite failed validation: {diagnostics[0]}"
        if again != parsed:
            return f"parse(render(n)) != n for a {entry.variant} rewrite"
        if len(parsed.stages) != entry.stages:
            return f"{len(parsed.stages)} stages parsed, {entry.stages} written"
        return None
    if error is not None:
        if error.line != entry.line:
            return f"{entry.kind}: rejected at line {error.line}, corrupted line {entry.line}"
        return None
    if diagnostics:
        if not any(d.startswith(f"line {entry.line}:") for d in diagnostics):
            return f"{entry.kind}: diagnostics do not name line {entry.line}: {diagnostics[0]}"
        return None
    return f"{entry.kind}: corrupted netlist accepted (line {entry.line})"


def _rows(data: bytes, fmt: str) -> list[dict]:
    text = data.decode("utf-8")
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def _check_grid(rows: list[dict], key: str, grid: list[float], per_point: int) -> str | None:
    if len(rows) != per_point * len(grid):
        return f"{len(rows)} rows for a {len(grid)}-point grid"
    for k, row in enumerate(rows):
        if not math.isclose(float(row[key]), grid[k // per_point], rel_tol=1e-12, abs_tol=1e-12):
            return f"row {k}: {key}={row[key]}, requested {grid[k // per_point]!r}"
    return None


def check_sweep(op: Op, data: bytes) -> str | None:
    rows = _rows(data, op.expect["fmt"])
    problem = _check_grid(rows, "phi_rad", op.expect["grid"], len(SWEEP_LABELS))
    if problem:
        return problem
    for k, row in enumerate(rows):
        if row["branch"] != SWEEP_LABELS[k % len(SWEEP_LABELS)]:
            return f"row {k}: branch {row['branch']}"
        if not (_close(row["branch_prob"], 1 / 48, TOL) and _close(row["p_success"], 1 / 12, TOL)
                and _close(row["fidelity"], 1.0, TOL)):
            return f"row {k}: {row}"
    return None


def check_verify(op: Op, data: bytes) -> str | None:
    rows = _rows(data, op.expect["fmt"])
    problem = _check_grid(rows, "phi_rad", op.expect["grid"], 1)
    if problem:
        return problem
    for k, row in enumerate(rows):
        if row["ok"] not in (True, "true"):
            return f"row {k}: ok={row['ok']}"
        if not _close(row["p_success"], op.expect["p"], TOL):
            return f"row {k}: p_success={row['p_success']}, nominal {op.expect['p']!r}"
    return None


def check_hom(op: Op, data: bytes) -> str | None:
    rows = _rows(data, op.expect["fmt"])
    problem = _check_grid(rows, "v", op.expect["grid"], 1)
    if problem:
        return problem
    t2 = op.expect["tv"] ** 2
    r2 = 1.0 - t2
    for k, row in enumerate(rows):
        v = float(row["v"])
        expected = v * (t2 - r2) ** 2 + (1.0 - v) * (t2 * t2 + r2 * r2)
        if not _close(row["coincidence"], expected, HOM_TOL):
            return f"row {k}: coincidence {row['coincidence']}, closed form {expected!r}"
    return None


CHECKS = {"sweep": check_sweep, "verify": check_verify, "hom": check_hom}
