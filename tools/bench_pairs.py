"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 > BENCH_8.json

``git archive`` of ``--parent`` is unpacked into a temporary directory,
and the working tree's tracked files (as they are on disk, staged or not;
untracked files are left out) are copied next to it, so that both sides
run from a fresh directory under the same temporary root.  Then, for each
pair and each workload of ``BENCHMARK.json``, the benchmark's own runner
``perfbench/run.py --trace 0`` runs once in the parent and once in the
working tree's copy for ``run_seconds``, with the same
seed (the pair's number) and alternating which side goes first.  Each run
is a fresh interpreter of its own checkout, one after another; progress
goes to standard error.

The JSON on standard output gives, for each workload and end-to-end metric, the per-pair
values of both sides, their medians and quartiles, the median change and
the number of pairs the working tree wins (is better in the metric's
direction), plus the attempted and failed op counts, the core count and
the Python and numpy versions.  It holds no timestamps.  ``program_lines``
gives the number of lines of ``src/lopcsim/*.py`` in each checkout, so a
change's net line count stands next to its benchmark delta.

``one_shot_s`` gives, per side, the median and quartiles of the wall time
of one fixed ``verify``, ``sweep`` and ``hom`` command (``ONE_SHOT``), each
a fresh interpreter that imports ``lopcsim`` from the checkout's ``src``
and writes its table to the null device: the time a user who runs the
command once waits for.  Each command runs once per side after each
pair's workloads, the side that goes first alternating, after one untimed
run per side that writes the bytecode.

Each workload also gets ``by_label``: for each cost class of its ops (grid
length on sweep-long and hom-scan, variant and points on verify-short,
input kind on netlist-corpus), the median over the runs of each side of
that class's ``median_ms``, read from the run's record
``perfbench/out/<workload>-seed<N>-trace0.json`` in its checkout, and the
change between the two medians.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parents[1]
#: The commands whose fresh-interpreter wall time each side reports.
ONE_SHOT = {
    "verify": ["verify", "--variant", "full", "--steps", "3"],
    "sweep": ["sweep", "--variant", "full", "--steps", "101"],
    "hom": ["hom", "--steps", "601"],
}
LAUNCH = "import sys; from lopcsim.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``, with
    ``by_label``, each cost class's median op time in ms, from its record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    by_label = json.loads(record.read_text(encoding="utf-8"))["summary"]["by_label"]
    result["by_label"] = {label: row["median_ms"] for label, row in by_label.items()}
    return result


def one_shot(checkout: Path, argv: list[str]) -> float:
    """Wall seconds of one fresh interpreter that runs ``lopcsim`` with ``argv``
    from ``checkout``'s ``src``, its table written to the null device."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", LAUNCH, *argv, "--out", os.devnull], cwd=checkout,
                   env=env, stderr=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def program_lines(checkout: Path) -> int:
    """Lines of the program's modules, ``src/lopcsim/*.py``, in ``checkout``."""
    return sum(len(path.read_bytes().splitlines())
               for path in (checkout / "src" / "lopcsim").glob("*.py"))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(spec: dict, results: dict) -> dict:
    """Per workload: each end-to-end metric of both sides, and the op counts."""
    out = {}
    for workload, sides in results.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent, change = ([r["metrics"][name]["value"] for r in sides[side]]
                              for side in ("parent", "change"))
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            before, after = spread(parent), spread(change)
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": before, "change": after,
                "median_change": after["median"] / before["median"] - 1.0,
                "wins": f"{wins}/{len(parent)}",
            }
        by_label = {}
        for label in sorted({label for r in sides["parent"] for label in r["by_label"]}):
            parent, change = ([r["by_label"][label] for r in sides[side] if label in r["by_label"]]
                              for side in ("parent", "change"))
            if change:
                before, after = statistics.median(parent), statistics.median(change)
                by_label[label] = {"parent_ms": before, "change_ms": after,
                                   "median_change": after / before - 1.0}
        out[workload] = {
            "metrics": metrics,
            "by_label": by_label,
            **{key: {side: sum(r[key] for r in sides[side]) for side in sides}
               for key in ("attempted", "failed")},
        }
    return out


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision to compare")
    parser.add_argument("--pairs", type=int, default=10, metavar="N", help="at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = [w["name"] for w in spec["workloads"]]
    commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    results = {w: {"parent": [], "change": []} for w in workloads}
    waits = {name: {"parent": [], "change": []} for name in ONE_SHOT}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent, filter="data")
        change = Path(tmp) / "change"
        tracked = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT,
                                 capture_output=True, check=True).stdout.decode()
        for name in filter(None, tracked.split("\0")):
            if (ROOT / name).is_file():  # a tracked file deleted from the tree is left out
                (change / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(ROOT / name, change / name)
        sides = [("parent", parent), ("change", change)]
        for _, checkout in sides:
            for argv in ONE_SHOT.values():
                one_shot(checkout, argv)
        for pair in range(args.pairs):
            order = sides if pair % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side, checkout in order:
                    result = run_once(checkout, workload, pair + 1, spec["run_seconds"])
                    results[workload][side].append(result)
                    print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                          f"{json.dumps(result['metrics'])}", file=sys.stderr)
            for name, argv in ONE_SHOT.items():
                for side, checkout in order:
                    waits[name][side].append(one_shot(checkout, argv))
        lines = {"parent": program_lines(parent), "change": program_lines(change)}

    report = {
        "parent": commit,
        "change": "working tree",
        "pairs": args.pairs,
        "seconds": spec["run_seconds"],
        "program_lines": lines,
        "environment": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": numpy.__version__},
        "workloads": summarize(spec, results),
        "one_shot_s": {
            name: {"argv": ONE_SHOT[name], "parent": spread(times["parent"]),
                   "change": spread(times["change"]),
                   "median_change": (statistics.median(times["change"])
                                     / statistics.median(times["parent"]) - 1.0)}
            for name, times in waits.items()
        },
    }
    sys.stdout.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
