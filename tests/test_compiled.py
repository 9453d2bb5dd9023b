"""The compiled circuit's phase-affine operators against per-phase runs.

``reference_gate`` is the per-phase assembly: it runs the four basis
inputs with the program photon (|H> - e^{i phi}|V>)/sqrt(2) through
``CompiledCircuit.run``, one (2, 2, 2) input at a time, and scores the
operators with plain loops.  The
compiled circuit must agree with it on every operator to 1e-12 and on
every flag exactly.
"""

import math
from collections.abc import Sequence
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import lopcsim.gates
from lopcsim import (
    CompiledCircuit,
    GateGrid,
    NetlistValidationError,
    builtin_variant,
    parse,
    validate,
)
from lopcsim import cli
from lopcsim.elements import ElementSpec
from lopcsim.netlist import MeasurementRule

from .gate_checks import branch_scores, strip_corrections
from .test_gates import KET0, KET1, product_input


def detuned(variant, plate, angle):
    """A built-in layout with one half-wave plate turned to ``angle`` degrees."""
    nl = builtin_variant(variant)
    stages = tuple(
        replace(s, params=(complex(angle),)) if s.name == plate else s for s in nl.stages
    )
    return replace(nl, stages=stages)


NETLISTS = {
    **{v: builtin_variant(v) for v in ("basic", "ff", "dual", "full")},
    "full-uncorrected": strip_corrections(builtin_variant("full")),
    "basic-HWP2-32.5": detuned("basic", "HWP2", 32.5),
    "full-HWP2-32.5": detuned("full", "HWP2", 32.5),
    "full-HWP5-30": detuned("full", "HWP5", 30.0),
}


def reference_gate(netlist, phi, branch_tol=1e-10, diag_tol=1e-12):
    circuit = CompiledCircuit(netlist)
    operators = {key: np.zeros((4, 4), dtype=complex) for key in circuit.branch_keys}
    kets = (KET0, KET1)
    for t in (0, 1):
        for c in (0, 1):
            for key, amplitudes in zip(circuit.branch_keys,
                                       circuit.run(product_input(kets[t], kets[c], phi))):
                operators[key][:, 2 * t + c] = amplitudes
    ops = list(operators.values())
    primary = ops[0]
    ref_idx = int(np.argmax(np.abs(primary.ravel())))
    consistent = True
    for op in ops:
        ratio = op.ravel()[ref_idx] * primary.ravel()[ref_idx].conjugate()
        phase = ratio / abs(ratio) if abs(ratio) > 0 else 1.0
        if np.max(np.abs(op - phase * primary)) > branch_tol:
            consistent = False
    diagonal = all(np.max(np.abs(op - np.diag(np.diag(op)))) <= diag_tol for op in ops)
    probs = [float(np.sum(np.abs(op[:, 0]) ** 2)) for op in ops]
    u = np.diag([1, 1, 1, np.exp(1j * phi)])
    fid = abs(np.trace(primary.conj().T @ u)) ** 2 / (4 * np.sum(np.abs(primary) ** 2))
    return list(operators), ops, probs, sum(probs), fid, consistent, diagonal


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_phase_affine_operators_match_direct_evolution(name):
    netlist = NETLISTS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    phis = [0.0, math.pi, *rng.uniform(-3 * math.pi, 3 * math.pi, size=5)]
    grid = CompiledCircuit(netlist).evaluate(phis)
    grid_consistent, grid_diagonal = branch_scores(grid.ops)
    for k, phi in enumerate(phis):
        keys, ops, probs, p_success, fid, consistent, diagonal = reference_gate(netlist, phi)
        assert list(grid.branch_keys) == keys
        for branch_op, branch_prob, op, prob in zip(grid.ops[k], grid.probabilities[k], ops, probs):
            assert np.max(np.abs(branch_op - op)) <= 1e-12
            assert abs(branch_prob - prob) <= 1e-12
        assert abs(grid.p_success[k] - p_success) <= 1e-12
        assert abs(grid.fidelity[k] - fid) <= 1e-12
        assert grid_consistent[k] == consistent
        assert grid_diagonal[k] == diagonal


def test_detuned_netlists_depart_from_ideal():
    grids = {
        name: CompiledCircuit(NETLISTS[name]).evaluate([0.7])
        for name in ("basic-HWP2-32.5", "ff", "full-uncorrected", "full-HWP5-30")
    }
    consistent, diagonal = {}, {}
    for name, grid in grids.items():
        (consistent[name],), (diagonal[name],) = branch_scores(grid.ops)
    assert grids["basic-HWP2-32.5"].fidelity[0] < 0.96
    assert diagonal["basic-HWP2-32.5"]
    # a single branch always agrees with itself, whatever the phase of its
    # largest entry
    assert consistent["basic-HWP2-32.5"]
    assert consistent["ff"]
    assert not consistent["full-uncorrected"]
    assert not diagonal["full-HWP5-30"]


def test_sweep_cost_does_not_grow_with_grid_length(monkeypatch):
    calls = {"run": 0, "permanents": 0}
    run, permanents = CompiledCircuit.run, lopcsim.gates.permanents

    def counting_run(self, psi):
        calls["run"] += 1
        return run(self, psi)

    def counting_permanents(m):
        calls["permanents"] += 1
        return permanents(m)

    monkeypatch.setattr(CompiledCircuit, "run", counting_run)
    monkeypatch.setattr(lopcsim.gates, "permanents", counting_permanents)
    netlist = builtin_variant("full")
    CompiledCircuit(netlist).evaluate(np.linspace(0.0, math.pi, 3))
    short = dict(calls)
    calls.update(run=0, permanents=0)
    CompiledCircuit(netlist).evaluate(np.linspace(0.0, math.pi, 51))
    assert calls == short
    # one batch of permanents over the eight basis inputs, and no run
    assert short == {"run": 0, "permanents": 1}


def test_grid_is_a_record_of_arrays():
    circuit = CompiledCircuit(builtin_variant("full"))
    phis = [0.0, 0.4, math.pi]
    grid = circuit.evaluate(phis)
    assert isinstance(grid, GateGrid) and not isinstance(grid, Sequence)
    assert grid.phis.tolist() == phis
    assert grid.ops.shape == (3, 4, 4, 4) and grid.probabilities.shape == (3, 4)
    for field in ("phis", "p_success", "fidelity"):
        assert getattr(grid, field).shape == (3,)
    assert grid.branch_keys == circuit.branch_keys
    assert np.allclose(grid.p_success, 1 / 12, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["basic", "ff", "dual", "full"])
def test_the_order_of_the_path_statements_changes_no_bit(variant):
    """The netlist's path order is the row order of the compile, but every
    composed entry and every permanent is taken in port order: a layout
    gives the same bits whatever order it declares its paths in."""
    text = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    lines = text.splitlines(keepends=True)
    declared = [i for i, line in enumerate(lines) if line.startswith("path ")]
    grid = np.linspace(-math.pi, math.pi, 9)
    shipped = CompiledCircuit(builtin_variant(variant)).evaluate(grid)
    rng = np.random.default_rng(sum(map(ord, variant)))
    orders = set()
    for _ in range(30):
        shuffled = list(lines)
        for at, line in zip(declared, rng.permutation([lines[i] for i in declared])):
            shuffled[at] = line
        netlist = parse("".join(shuffled))
        orders.add(netlist.paths)
        grid_of_shuffle = CompiledCircuit(netlist).evaluate(grid)
        assert grid_of_shuffle.branch_keys == shipped.branch_keys
        for field in ("ops", "probabilities", "p_success", "fidelity"):
            assert getattr(grid_of_shuffle, field).tobytes() == getattr(shipped, field).tobytes()
    assert len(orders) == 30


def test_compiled_circuit_validates_once_and_rejects_invalid_netlists(monkeypatch):
    nl = builtin_variant("basic")
    bad = replace(nl, ports=replace(nl.ports, target_out=()))
    with pytest.raises(NetlistValidationError):
        CompiledCircuit(bad)
    calls = []
    monkeypatch.setattr(lopcsim.gates, "validate", lambda n: calls.append(n) or validate(n))
    circuit = CompiledCircuit(nl)
    assert circuit.branch_keys == (("D", "T_OUT"),)
    first = circuit.evaluate([0.3]).ops[0, 0]
    again = circuit.evaluate([0.3, 1.0]).ops[0, 0]
    assert np.array_equal(first, again)
    assert len(calls) == 1


@pytest.mark.parametrize("variant, specs", [("basic", 9), ("ff", 10), ("dual", 11), ("full", 12)])
def test_compiling_builds_each_element_spec_once(monkeypatch, variant, specs):
    built = []
    build = ElementSpec.build

    def counting(spec):
        built.append(spec.name)
        return build(spec)

    shipped = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    CompiledCircuit(builtin_variant(variant))  # the shared layout may be built already
    monkeypatch.setattr(ElementSpec, "build", counting)
    circuit = CompiledCircuit(parse(shipped))  # a fresh parse; validate included
    assert len(built) == len(set(built)) == specs
    circuit.evaluate([0.3])
    circuit.evaluate([0.3, 1.0])
    assert len(built) == specs
    CompiledCircuit(builtin_variant(variant))  # the shared layout keeps its builds
    assert len(built) == specs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_raises(bad):
    circuit = CompiledCircuit(builtin_variant("basic"))
    with pytest.raises(ValueError, match="finite"):
        circuit.evaluate([0.0, bad])
    with pytest.raises(ValueError, match="empty"):
        circuit.evaluate([])


#: basic.lopc with HX and PX inserted after F2: PX reflects light from t_up
#: onto C_OUT, which the control photon already lights.  ``validate``
#: accepts it; compiling must not.
MERGED_LOPC = """\
path t_in
path t_in2
path t_up
path t_low
path c_in
path C_OUT
path p_in
path d
path T_OUT
path T_OUT2
pbs PBS1 in=t_in,t_in2 out=t_up,t_low
filter F1 path=t_up th=0.5 tv=0.5
jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,0.8660254037844386
ppbs PPBS in=t_low,c_in out=t_low,C_OUT tv=0.5773502691896258
filter F2 path=C_OUT th=0.5773502691896258 tv=1.0
hwp HX path=t_up angle=22.5
pbs PX in=t_up,t_in2 out=t_up,C_OUT
hwp HWP2 path=t_low angle=22.5
pbs PBS3 in=t_low,p_in out=t_low,d
measure path=d outcome D ket=0.7071067811865475,0.7071067811865475
hwp HWP3 path=t_low angle=22.5
pbs PBS2 in=t_up,t_low out=T_OUT,T_OUT2
postselect T_OUT=1 C_OUT=1 d=1
ports target_in=t_in control_in=c_in program_in=p_in target_out=T_OUT control_out=C_OUT
"""


#: basic.lopc with only PX inserted after F2, reflecting t_up onto C_OUT.
#: Both columns that meet on C_OUT are attenuated (by F1 and by PPBS and F2),
#: so the merged light has no more than unit norm, yet it still merges.
ATTENUATED_MERGE_LOPC = MERGED_LOPC.replace("hwp HX path=t_up angle=22.5\n", "").replace(
    "pbs PX in=t_up,t_in2 out=t_up,C_OUT", "pbs PX in=t_up,t_in2 out=C_OUT,t_up"
)
#: (netlist text, line of PX) of each merged-path case.
MERGED_CASES = [
    pytest.param(MERGED_LOPC, 17, id="rotated"),
    pytest.param(ATTENUATED_MERGE_LOPC, 16, id="attenuated"),
]


@pytest.mark.parametrize("text, line", MERGED_CASES)
def test_light_merged_onto_a_lit_path_is_a_located_error(text, line):
    netlist = parse(text)
    assert validate(netlist) == []
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(netlist)
    (diagnostic,) = caught.value.diagnostics
    assert diagnostic == f"line {line}: PX: sends light onto an already-lit path (C_OUT)"
    # the same elements in code carry no line
    with pytest.raises(NetlistValidationError, match=r"^PX: sends light"):
        CompiledCircuit(replace(netlist, stages=tuple(replace(s, line=None) for s in netlist.stages)))


def edited(variant, statement, replacement):
    """The shipped layout's text with one statement replaced."""
    text = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    assert statement in text
    return text.replace(statement, replacement)


F2 = "filter F2 path=C_OUT th=0.5773502691896258 tv=1.0"
PBS1 = "pbs PBS1 in=t_in,t_in2 out=t_up,t_low"
NO_CONTROL = "control input does not reach the control output"
#: (variant, netlist text, diagnostics) of shipped layouts with all of one
#: input's light filtered out: each passes ``validate`` and fails to compile.
DEAD_CASES = [
    pytest.param("basic", edited("basic", F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),
                 [f"outcome 'D': {NO_CONTROL}"], id="basic-F2"),
    pytest.param("full", edited("full", F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),
                 [f"outcome 'D': {NO_CONTROL}", f"outcome 'A': {NO_CONTROL}"], id="full-F2"),
    pytest.param("basic", edited("basic", PBS1, f"filter FP path=p_in th=0.0 tv=0.0\n{PBS1}"),
                 ["outcome 'D': program input does not reach the detector path"], id="p_in"),
    pytest.param("basic", edited("basic", PBS1, f"filter FT path=t_in th=0.0 tv=0.0\n{PBS1}"),
                 ["outcome 'D': target input does not reach any target output"], id="t_in"),
]


@pytest.mark.parametrize("variant, text, diagnostics", DEAD_CASES)
def test_an_input_whose_light_reaches_no_port_is_an_error_per_outcome(variant, text, diagnostics):
    netlist = parse(text)
    assert validate(netlist) == []
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(netlist)
    assert caught.value.diagnostics == diagnostics


def test_a_measurement_without_outcomes_is_a_validation_error(monkeypatch, tmp_path, capsys):
    nl = replace(builtin_variant("basic"), measurement=MeasurementRule("d", ()))
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(nl)
    assert caught.value.diagnostics == ["measurement declares no outcomes"]
    monkeypatch.setattr(cli, "builtin_variant", lambda variant: nl)
    assert cli.main(["verify", "--variant", "basic", "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: measurement declares no outcomes\n"


def test_input_ports_must_be_distinct():
    nl = builtin_variant("basic")
    clash = replace(nl, ports=replace(nl.ports, program_in=nl.ports.control_in))
    assert any("three distinct paths" in d for d in validate(clash))
    assert not any("three distinct paths" in d for d in validate(nl))
