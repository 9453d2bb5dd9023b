"""Tests of the benchmark itself: seeding, emitted metrics, tracing, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import corpus
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
CIRCUITS = ROOT / "src" / "lopcsim" / "circuits"
FIRST = {"sweep-long": 14, "verify-short": 80, "hom-scan": 20, "netlist-corpus": 100}

ELEMENTS = {"elements.build", "elements.pbs", "elements.ppbs", "elements.hwp", "elements.jones",
            "elements.pol_filter", "fock.linear_element"}
GATE = ELEMENTS | {
    "cli.main", "cli.build_parser", "gates.conditional_gate", "gates.run", "gates.prepare_inputs",
    "gates.fidelity", "gates.ideal_cphase", "netlist.validate", "fock.make_photon_state",
    "fock.apply_element", "fock.post_select", "fock.project_detector", "fock.two_qubit_amplitudes",
}
#: Functions each workload must reach; a wrapper that is not rebound where
#: the caller looks the name up would leave one of these at zero calls.
USED = {
    "sweep-long": GATE | {"cli.cmd_sweep", "netlist.builtin_variant", "netlist.builtin_optimized",
                          "elements.phase_flip"},
    "verify-short": GATE | {"cli.cmd_verify", "netlist.parse", "netlist.builtin_variant",
                            "netlist.builtin_optimized", "oracle.branch_table",
                            "oracle.path_amplitude", "elements.phase_flip"},
    "hom-scan": {"cli.main", "cli.build_parser", "cli.cmd_hom", "gates.hom_scan", "elements.ppbs",
                 "fock.linear_element", "fock.make_photon_state", "fock.apply_element",
                 "fock.post_select"},
    "netlist-corpus": ELEMENTS | {"netlist.parse", "netlist.validate", "netlist.render",
                                  "elements.phase_flip"},
}
#: Public functions no CLI command or netlist round trip calls.
UNUSED = {"gates.success_probability", "gates.sweep_phi", "netlist.builtin_basic",
          "netlist.strip_corrections", "oracle.oracle_conditional_gate"}


def _ops(workload, seed, n):
    return list(islice(workloads.ops(workload, seed, CIRCUITS), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    n = FIRST[workload]
    first = _ops(workload, 7, n)
    assert first == _ops(workload, 7, n)
    assert first != _ops(workload, 8, n)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_metric_is_emitted(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for line in done.stdout.splitlines()[:-1]:
        assert not line.startswith("{")


def _run(workload, ops, traced):
    runner = workloads.Runner(ROOT / "perfbench" / "out" / f"test-{workload}.out")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if traced else (lambda: None)
    try:
        outcomes = [runner.execute(op) for op in ops]
    finally:
        uninstall()
    (ROOT / "perfbench" / "out" / f"test-{workload}.out").unlink(missing_ok=True)
    return outcomes, tracer


@pytest.fixture(scope="module", autouse=True)
def _out_dir():
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrapped_functions_record_calls_and_output_is_unchanged(workload):
    n = {"sweep-long": 1, "verify-short": 40, "hom-scan": 2, "netlist-corpus": 60}[workload]
    ops = workloads.warm_up_ops(workload, CIRCUITS) + _ops(workload, 5, n)
    plain, _ = _run(workload, ops, traced=False)
    traced, tracer = _run(workload, ops, traced=True)
    assert [o.output for o in traced] == [o.output for o in plain]
    assert [o.problem for o in traced] == [o.problem for o in plain]
    called = {name for _, name, *_ in tracer.spans}
    assert USED[workload] <= called, USED[workload] - called


def test_every_wrapped_function_is_used_by_some_workload():
    assert set().union(*USED.values()) | UNUSED == tracing.wrapped_names()


def test_install_is_undone():
    import lopcsim.cli
    import lopcsim.gates

    before = lopcsim.cli.conditional_gate, lopcsim.gates.run
    uninstall = tracing.install(tracing.Tracer())
    assert lopcsim.cli.conditional_gate is not before[0]
    uninstall()
    assert (lopcsim.cli.conditional_gate, lopcsim.gates.run) == before


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.spans = [(1, "fock.apply_element", 1.0, 2.0, 0, 0), (0, "gates.run", 0.0, 3.0, -1, 0)]
    m = tracing.layer_metrics(t, ops=1, items=1)
    assert m["gates.run.self_s"] == pytest.approx(2.0)
    assert m["fock.apply_element.busy_s"] == pytest.approx(1.0)
    assert m["gates.self_s"] == pytest.approx(2.0)


def test_checks_reject_wrong_outputs():
    sweep = _ops("sweep-long", 1, 1)[0]
    grid = sweep.expect["grid"]
    rows = [{"phi_rad": p, "p_success": 1 / 12, "fidelity": 1.0, "branch": b, "branch_prob": 1 / 48}
            for p in grid for b in workloads.SWEEP_LABELS]
    good = json.dumps(rows).encode()
    op = workloads.Op(args=sweep.args, items=sweep.items, expect={**sweep.expect, "fmt": "json"})
    assert workloads.check_sweep(op, good) is None
    rows[5]["branch_prob"] += 1e-9
    assert workloads.check_sweep(op, json.dumps(rows).encode())
    assert workloads.check_sweep(op, json.dumps(rows[:-4]).encode())

    hom = _ops("hom-scan", 1, 1)[0]
    op = workloads.Op(args=hom.args, items=hom.items, expect={**hom.expect, "fmt": "csv"})
    t2 = hom.expect["tv"] ** 2
    lines = ["v,coincidence"] + [
        f"{v!r},{v * (2 * t2 - 1) ** 2 + (1 - v) * (t2 ** 2 + (1 - t2) ** 2)!r}"
        for v in hom.expect["grid"]
    ]
    assert workloads.check_hom(op, ("\n".join(lines) + "\n").encode()) is None
    lines[3] = lines[3].split(",")[0] + ",0.5"
    assert workloads.check_hom(op, ("\n".join(lines) + "\n").encode())


@pytest.mark.parametrize("key", sorted(corpus.STRUCTURAL) + list(corpus.NONFINITE))
def test_corruptions_are_rejected_at_their_line(key):
    """Or, for the kinds in corpus.KNOWN_ACCEPTED only, accepted as a known defect."""
    import random

    rng = random.Random(key)
    ops = [workloads.Op(text=e.text, label=e.kind, expect={"entry": e}, malformed=True)
           for e in (corpus.corrupt_entry(key, rng) for _ in range(8))]
    outcomes, _ = _run("netlist-corpus", ops, traced=False)
    assert [o.problem for o in outcomes] == [None] * len(ops)
    if key not in corpus.KNOWN_ACCEPTED:
        assert [o.known_defect for o in outcomes] == [None] * len(ops)


@pytest.mark.parametrize("variant", corpus.VARIANTS)
def test_valid_rewrites_pass(variant):
    import random

    rng = random.Random(variant)
    ops = [workloads.Op(text=e.text, label="valid", expect={"entry": e})
           for e in (corpus.valid_entry(variant, rng) for _ in range(20))]
    outcomes, _ = _run("netlist-corpus", ops, traced=False)
    assert [o.problem for o in outcomes] == [None] * len(ops)
