"""lopcsim benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; lopcsim is imported from its
``src`` directory.  The load is one closed-loop client in one thread: the
next op starts when the previous one has returned and been checked.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs the ops untraced for half the time, replays the same ops with every
public lopcsim function wrapped, and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it
repeat every figure by name with its unit, and the full record, with the
environment, goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy is first imported, here and in every
# set-up probe this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import clock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calls": "count", "rejected": "count", "terms_in": "count", "terms_out": "count",
    "spans": "count", "ops": "count", "items": "count", "nonfinite_accepted": "count",
    "busy_s": "s", "self_s": "s",
    "build_per_op": "count/op", "validate_per_op": "count/op", "calls_per_phase": "count/item",
    "unique_ratio": "ratio", "kept_ratio": "ratio", "overhead_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(root),
    }


def probe_setup(workload: str, tmp: Path) -> float:
    """Wall seconds of set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), str(ROOT),
         workload, str(tmp / "probe.out")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Per-op records of one measured phase, in flat arrays, so that the
    benchmark's own memory does not grow with the op count and
    ``peak_rss_mb`` stays the program's.  With ``keep``, the ops and output
    digests are kept too, for a traced replay."""

    def __init__(self, keep: bool = False):
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.labels: list[str] = []
        self.problems: list[tuple[bool, str]] = []  # (input malformed, what failed)
        self.known: list[str] = []  # known defects (corpus.KNOWN_ACCEPTED), not failures
        self.ops: list | None = [] if keep else None
        self.digests: list[bytes] = []
        self.setup: list[tuple[float, float, float]] = []  # (set-up s, start, end)

    def __len__(self) -> int:
        return len(self.start)

    def add(self, op, outcome) -> None:
        self.start.append(outcome.start)
        self.end.append(outcome.end)
        self.items.append(op.items)
        self.labels.append(op.label)
        if outcome.problem:
            self.problems.append((op.malformed, outcome.problem))
        if outcome.known_defect:
            self.known.append(outcome.known_defect)
        if self.ops is not None:
            self.ops.append(op)
            self.digests.append(outcome.output)


def measure(runner, ops, seconds: float, log: clock.SpeedLog, keep=False, on_op=None,
            probe=None) -> Tally:
    """Run ops in a closed loop until ``seconds`` of op time have passed;
    at least one.

    ``probe``, if given, is called ``SETUP_PROBES`` times, spread over the
    run between ops with the speed kernel's timer stopped; back-to-back
    probes read alike, spread ones sample the machine's state independently.
    Probe time does not count against ``seconds``."""
    tally = Tally(keep)
    due = [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)] if probe else []
    begun = perf_counter()

    def run_probe():
        nonlocal begun
        start = perf_counter()
        tally.setup.append((log.paused(probe), start, perf_counter()))
        begun += perf_counter() - start
        due.pop(0)

    with log:
        for index, op in enumerate(ops):
            while due and perf_counter() - begun >= due[0]:
                run_probe()
            if on_op:
                on_op(index)
            tally.add(op, runner.execute(op))
            if perf_counter() - begun >= seconds:
                break
        while due:
            run_probe()
    return tally


def summarize(tally: Tally, log: clock.SpeedLog) -> dict:
    pairs = list(zip(tally.start, tally.end))
    corrected = [log.corrected(a, b) for a, b in pairs]
    wall = [log.wall(a, b) for a, b in pairs]
    items = tally.items
    setup = [s for s, _, _ in tally.setup]
    s = {
        "ops": len(tally),
        "items": sum(items),
        "setup_s": statistics.median(s * log.factor(a, b) for s, a, b in tally.setup),
        "op_p50_ms": statistics.median(corrected) * 1000,
        "items_per_s": statistics.median(n / t for n, t in zip(items, corrected)),
        "wall_setup_s": statistics.median(setup),
        "wall_op_p50_ms": statistics.median(wall) * 1000,
        "wall_items_per_s": statistics.median(n / t for n, t in zip(items, wall)),
        "slowdown": log.slowdown(),
        "setup": setup,
    }
    if len(tally) >= 100:  # at least ten ops beyond the 90th percentile
        s["op_p90_ms"] = statistics.quantiles(corrected, n=10)[8] * 1000
        s["wall_op_p90_ms"] = statistics.quantiles(wall, n=10)[8] * 1000
    by_label: dict[str, list[tuple[int, float]]] = {}
    for label, n, t in zip(tally.labels, items, corrected):
        by_label.setdefault(label, []).append((n, t))
    s["by_label"] = {
        label: {"ops": len(v), "median_ms": statistics.median(t for _, t in v) * 1000,
                "ms_per_item": statistics.median(t / n for n, t in v) * 1000}
        for label, v in sorted(by_label.items())
    }
    return s


def run(args) -> dict:
    if not (ROOT / "src" / "lopcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no lopcsim sources under {ROOT / 'src'}; "
                         "run from the root of a lopcsim checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import lopcsim

    if Path(lopcsim.__file__).resolve().parent != ROOT / "src" / "lopcsim":
        raise SystemExit(f"error: imported lopcsim from {lopcsim.__file__}, not this checkout")
    circuits = ROOT / "src" / "lopcsim" / "circuits"
    OUT.mkdir(parents=True, exist_ok=True)
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(ROOT)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        runner = workloads.Runner(tmp / "data.out")
        runner.load_circuits(circuits)
        for op in workloads.warm_up_ops(args.workload, circuits):
            problem = runner.execute(op).problem
            if problem:
                print(f"warm-up op failed: {problem}", file=sys.stderr)
        ops = workloads.ops(args.workload, args.seed, circuits)
        log = clock.SpeedLog()
        if args.trace:
            tallies, identical, result["layers"] = traced_run(runner, ops, args, log)
        else:
            tally = measure(runner, ops, args.seconds, log,
                            probe=lambda: probe_setup(args.workload, tmp))
            result["summary"] = summarize(tally, log)
            tallies, identical = [tally], True
    problems = [p for t in tallies for p in t.problems]
    # A wrong answer to a well-formed input, or traced output that differs
    # from untraced output, makes the run incorrect; a malformed input that
    # is not rejected at its corrupted line is a failed op.
    correct = identical and not any(not malformed for malformed, _ in problems)
    known = [k for t in tallies for k in t.known]
    result.update(correct=correct, attempted=sum(len(t) for t in tallies),
                  failed=len(problems), problems=[p for _, p in problems[:20]],
                  known_defects=len(known), known_examples=sorted({k.split(":")[0]: k for k in known}.values()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def traced_run(runner, ops, args, log):
    """Half the time untraced, then the same ops again with tracing on.

    Returns both phases' tallies, whether their outputs are identical, and
    the per-layer metrics."""
    first = measure(runner, ops, args.seconds / 2, log, keep=True)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        second = measure(runner, iter(first.ops), float("inf"), log, keep=True,
                         on_op=lambda index: setattr(tracer, "op", index))
    finally:
        uninstall()
    tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    items = sum(second.items)
    layers = tracing.layer_metrics(tracer, len(second), items)
    layers["trace.overhead_ratio"] = (
        sum(log.corrected(a, b) for a, b in zip(second.start, second.end))
        / sum(log.corrected(a, b) for a, b in zip(first.start, first.end)))
    layers["netlist.nonfinite_accepted"] = len(second.known)
    layers["trace.ops"] = len(second)
    layers["trace.items"] = items
    return [first, second], first.digests == second.digests, layers


def metrics_of(result: dict) -> dict:
    if result["trace"]:
        return {name: {"value": value, "unit": per_layer_unit(name)}
                for name, value in result["layers"].items()}
    s = result["summary"]
    values = {
        "setup_s": s["setup_s"],
        "items_per_s": s["items_per_s"],
        "op_p50_ms": s["op_p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(result: dict, metrics: dict) -> None:
    """Every figure by name and unit, one per line, before the result line."""
    env = result["environment"]
    print(f"# lopcsim benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if result["trace"]:
        rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    else:
        s = result["summary"]
        n = s["ops"]
        item = workloads.ITEM[result["workload"]]
        rows = [
            ("setup_s", s["setup_s"], "s", f"median of {len(s['setup'])} fresh interpreters"),
            ("items_per_s", s["items_per_s"], "1/s", f"median of {n} ops"),
            (f"{item}_per_s", s["items_per_s"], "1/s", "the same, named by its work item"),
            ("op_p50_ms", s["op_p50_ms"], "ms", f"n={n}"),
        ]
        if "op_p90_ms" in s:
            rows.append(("op_p90_ms", s["op_p90_ms"], "ms", f"n={n}"))
        rows += [
            ("error_rate", result["failed"] / result["attempted"], "ratio",
             f"{result['failed']} of {result['attempted']} ops failed their check"),
            ("known_defect_rate", result["known_defects"] / result["attempted"], "ratio",
             f"{result['known_defects']} non-finite literals accepted (ROADMAP item 5)"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", ""),
            ("wall_setup_s", s["wall_setup_s"], "s", "uncorrected wall time"),
            ("wall_items_per_s", s["wall_items_per_s"], "1/s", "uncorrected wall time"),
            ("wall_op_p50_ms", s["wall_op_p50_ms"], "ms", "uncorrected wall time"),
            ("machine_slowdown", s["slowdown"], "ratio", "speed kernel time / reference"),
        ]
    for name, value, unit, note in rows:
        print(f"{name:34} {value:16.6g} {unit:10} {note}")
    if not result["trace"] and result["workload"] in ("sweep-long", "hom-scan"):
        print("# cost versus grid length (corrected):")
        for label, row in sorted(result["summary"]["by_label"].items(), key=lambda kv: int(kv[0])):
            print(f"#   length ~{label:>5}: {row['ops']:4} ops, median {row['median_ms']:10.3f} ms, "
                  f"{row['ms_per_item']:.4f} ms per point")
    for problem in result["problems"]:
        print(f"# failed: {problem}")
    for defect in result["known_examples"]:
        print(f"# known defect: {defect}")


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    metrics = metrics_of(result)
    result["metrics"] = metrics
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(result, metrics)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
