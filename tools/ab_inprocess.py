"""Time the working tree against a parent commit in one process, op by op.

    python3 tools/ab_inprocess.py --parent HEAD [--workload W] [--reps N]

``git archive`` of ``--parent``'s ``src/lopcsim`` and the working tree's
``src/lopcsim`` (as it is on disk, staged or not) are unpacked into a
temporary directory as the packages ``lopcsim_parent`` and
``lopcsim_change``, and both are imported into this process.  The ops come
from the benchmark's own seeded generators in ``perfbench/workloads.py``
(seed 1), imported as they stand, with no bytecode written: the first
``OPS`` ops of each workload, run ``--reps`` times over.  Each op runs on
both sides back to back, the side that goes first alternating from op to
op and from round to round, so that drift in the machine's speed falls on
both sides alike.  A command op is ``cli.main(argv)`` with ``--out`` to a
temporary file; a netlist op is parse, validate, render and parse again,
as the benchmark times them.  Only the call itself is timed.

The JSON on standard output gives, for each workload, ``ratio``, the
change's total time over the parent's; ``change_wins``, the share of op
pairs the change ran faster; ``ops``, the number of op pairs; and
``differ``, the number of op pairs whose outputs differ (a byte-identical
change reads 0).  ``environment`` gives the core count and the Python and
numpy versions.  It holds no timestamps.

With ``--parent HEAD`` on a clean tree both sides run the same code, so
the ratios show the method's own noise (A/A).  At the default 40 reps,
A/A runs on an otherwise idle 2-core machine stayed within 0.993–1.004 on
every workload, where at 20 reps they read 0.989–1.012; with other
processes running beside it, one 40-rep run read 0.983 on sweep-long.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy is first imported, as the benchmark sets it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEED = 1
#: Ops drawn from each workload's generator: whole blocks of verify-short
#: (40 ops) and of sweep-long's grid-length cycle (7 ops).
OPS = 280


def unpack(parent: str, tmp: Path) -> Path:
    """``tmp/packages`` holding ``lopcsim_parent`` (``parent``'s ``src/lopcsim``)
    and ``lopcsim_change`` (the working tree's)."""
    packages = tmp / "packages"
    archive = subprocess.run(["git", "archive", "--format=tar", parent, "src/lopcsim"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp / "parent", filter="data")
    packages.mkdir()
    (tmp / "parent" / "src" / "lopcsim").rename(packages / "lopcsim_parent")
    shutil.copytree(ROOT / "src" / "lopcsim", packages / "lopcsim_change",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return packages


class Side:
    """One imported copy of the package, and how it runs an op."""

    def __init__(self, name: str, out: Path):
        self.cli = importlib.import_module(f"lopcsim_{name}.cli")
        self.netlist = importlib.import_module(f"lopcsim_{name}.netlist")
        self.out = out

    def run(self, op) -> tuple[float, bytes]:
        """Seconds the op took, and a digest of what it gave."""
        if op.text:
            nl = self.netlist
            start = perf_counter()
            try:
                parsed = nl.parse(op.text)
                output = nl.validate(parsed) or nl.parse(nl.render(parsed))
            except nl.NetlistError as exc:
                output = exc
            end = perf_counter()
            data = repr(output).encode()
        else:
            self.out.unlink(missing_ok=True)
            argv = [*op.args, "--out", str(self.out)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                start = perf_counter()
                code = self.cli.main(argv)
                end = perf_counter()
            data = b"%d\0%s\0%s" % (code, err.getvalue().encode(),
                                     self.out.read_bytes() if self.out.exists() else b"")
        return end - start, hashlib.blake2b(data, digest_size=16).digest()


def compare(sides: dict, ops: list, reps: int) -> dict:
    """Each op on both sides, the first side alternating; totals and wins."""
    total = dict.fromkeys(SIDES, 0.0)
    wins = differ = 0
    for rep in range(reps):
        for j, op in enumerate(ops):
            order = SIDES if (j + rep) % 2 == 0 else SIDES[::-1]
            timed = {side: sides[side].run(op) for side in order}
            for side in SIDES:
                total[side] += timed[side][0]
            wins += timed["change"][0] < timed["parent"][0]
            differ += timed["change"][1] != timed["parent"][1]
    pairs = reps * len(ops)
    return {"ratio": total["change"] / total["parent"], "change_wins": wins / pairs,
            "ops": pairs, "differ": differ}


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True  # the benchmark's files are only read
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision to compare")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                        help="a workload to run (repeatable; default: all four)")
    parser.add_argument("--reps", type=int, default=40, metavar="N",
                        help="rounds over each workload's ops, at least 1")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    report = {}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        sys.path.insert(0, str(unpack(commit, tmp)))
        sides = {side: Side(side, tmp / f"{side}.out") for side in SIDES}
        circuits = tmp / "packages" / "lopcsim_change" / "circuits"
        for workload in args.workload or workloads.WORKLOADS:
            for op in workloads.warm_up_ops(workload, circuits):
                for side in SIDES:
                    sides[side].run(op)
            generator = workloads.ops(workload, SEED, circuits)
            ops = [next(generator) for _ in range(OPS)]
            report[workload] = compare(sides, ops, args.reps)
            print(f"{workload}: {json.dumps(report[workload])}", file=sys.stderr)

    sys.stdout.write(json.dumps({
        "parent": commit,
        "change": "working tree",
        "reps": args.reps,
        "environment": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": numpy.__version__},
        "workloads": report,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
