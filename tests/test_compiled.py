"""The compiled circuit's phase-affine operators against direct evolution.

``reference_gate`` is the per-phase assembly: it evolves the four basis
inputs with the program photon (|H> - e^{i phi}|V>)/sqrt(2) through ``run``
and scores the operators with plain loops.  The compiled circuit must agree
with it on every operator to 1e-12 and on every flag exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import lopcsim.gates
from lopcsim import (
    CompiledCircuit,
    NetlistValidationError,
    builtin_variant,
    prepare_inputs,
    run,
    strip_corrections,
    sweep_phi,
    validate,
)
from lopcsim.elements import ElementSpec
from lopcsim.gates import BASIS_KETS


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
    operators = {}
    for t in (0, 1):
        for c in (0, 1):
            state = prepare_inputs(netlist, BASIS_KETS[t], BASIS_KETS[c], phi)
            for branch in run(netlist, state):
                key = (branch.outcome, branch.port)
                operators.setdefault(key, np.zeros((4, 4), dtype=complex))
                operators[key][:, 2 * t + c] = branch.amplitudes
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
    reports = CompiledCircuit(netlist).evaluate(phis)
    for phi, report in zip(phis, reports):
        keys, ops, probs, p_success, fid, consistent, diagonal = reference_gate(netlist, phi)
        assert [(b.outcome, b.port) for b in report.branches] == keys
        for branch, op, prob in zip(report.branches, ops, probs):
            assert np.max(np.abs(branch.amplitudes - op)) <= 1e-12
            assert abs(branch.probability - prob) <= 1e-12
        assert abs(report.p_success - p_success) <= 1e-12
        assert abs(report.fidelity - fid) <= 1e-12
        assert report.branch_consistent == consistent
        assert report.diagonal == diagonal
        assert report.gate is report.branches[0].amplitudes


def test_detuned_netlists_depart_from_ideal():
    scores = {
        name: CompiledCircuit(NETLISTS[name]).evaluate([0.7])[0]
        for name in ("basic-HWP2-32.5", "ff", "full-uncorrected", "full-HWP5-30")
    }
    assert scores["basic-HWP2-32.5"].fidelity < 0.96
    assert scores["basic-HWP2-32.5"].diagonal
    # a single branch always agrees with itself, whatever the phase of its
    # largest entry
    assert scores["basic-HWP2-32.5"].branch_consistent
    assert scores["ff"].branch_consistent
    assert not scores["full-uncorrected"].branch_consistent
    assert not scores["full-HWP5-30"].diagonal


def test_sweep_cost_does_not_grow_with_grid_length(monkeypatch):
    calls = []
    apply_element = lopcsim.gates.apply_element

    def counting(state, element, *args):
        calls.append(element.name)
        return apply_element(state, element, *args)

    monkeypatch.setattr(lopcsim.gates, "apply_element", counting)
    netlist = builtin_variant("full")
    sweep_phi(netlist, np.linspace(0.0, math.pi, 3))
    short = len(calls)
    calls.clear()
    sweep_phi(netlist, np.linspace(0.0, math.pi, 51))
    assert len(calls) == short
    # eight evolutions (four basis inputs, program photon H or V) of the
    # 8 stages before the measurement and 3 + 4 after it (outcome A adds PLM)
    assert short == 8 * (8 + 3 + 4)


def test_compiled_circuit_validates_once_and_rejects_invalid_netlists(monkeypatch):
    nl = builtin_variant("basic")
    bad = replace(nl, postselect=(("T_OUT", 1), ("C_OUT", 1), ("d", 0), ("p_in", 1)))
    with pytest.raises(NetlistValidationError):
        CompiledCircuit(bad)
    calls = []
    monkeypatch.setattr(lopcsim.gates, "validate", lambda n: calls.append(n) or validate(n))
    circuit = CompiledCircuit(nl)
    assert circuit.branch_keys == (("D", "T_OUT"),)
    first = circuit.evaluate([0.3])[0]
    again = circuit.evaluate([0.3, 1.0])[0]
    assert np.array_equal(first.gate, again.gate)
    assert len(calls) == 1


@pytest.mark.parametrize("variant, specs", [("basic", 9), ("ff", 10), ("dual", 11), ("full", 12)])
def test_compiling_builds_each_element_spec_once(monkeypatch, variant, specs):
    built = []
    build = ElementSpec.build

    def counting(spec):
        built.append(spec.name)
        return build(spec)

    monkeypatch.setattr(ElementSpec, "build", counting)
    circuit = CompiledCircuit(builtin_variant(variant))  # validate included
    assert len(built) == len(set(built)) == specs
    circuit.evaluate([0.3])
    circuit.evaluate([0.3, 1.0])
    assert len(built) == specs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_raises(bad):
    circuit = CompiledCircuit(builtin_variant("basic"))
    with pytest.raises(ValueError, match="finite"):
        circuit.evaluate([0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        prepare_inputs(circuit.netlist, BASIS_KETS[0], BASIS_KETS[0], bad)
    with pytest.raises(ValueError, match="empty"):
        circuit.evaluate([])


def test_input_ports_must_be_distinct():
    nl = builtin_variant("basic")
    clash = replace(nl, ports=replace(nl.ports, program_in=nl.ports.control_in))
    assert any("three distinct paths" in d for d in validate(clash))
    assert not any("three distinct paths" in d for d in validate(nl))
