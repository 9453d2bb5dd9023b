import cmath
import math
import re

import numpy as np
import pytest

from lopcsim import (
    CompiledCircuit,
    NetlistValidationError,
    builtin_variant,
    fidelity,
    hom_scan,
    ideal_cphase,
)
from lopcsim.fock import permanents

from . import dense_reference
from .gate_checks import branch_scores, strip_corrections
from .test_elements import element_spec

SQ2 = math.sqrt(2.0)
K = 1.0 / (4.0 * math.sqrt(3.0))
#: Polarization kets of the logical basis: |0> = H, |1> = V.
KET0, KET1 = (1.0, 0.0), (0.0, 1.0)


def product_input(target_ket, control_ket, phi):
    """psi[t, c, p] of a product input: the target and control qubits and the
    phase-programming photon (|H> - e^{i phi}|V>)/sqrt(2)."""
    program = np.array([1.0, -cmath.exp(1j * phi)]) / SQ2
    return np.multiply.outer(np.multiply.outer(target_ket, control_ket), program)


def success_probability(circuit, target_ket, control_ket, phi):
    """Total accepted-branch probability of one product input."""
    return float(np.sum(np.abs(circuit.run(product_input(target_ket, control_ket, phi))) ** 2))


def test_basic_run_on_11_input():
    phi = 1.3
    circuit = CompiledCircuit(builtin_variant("basic"))
    branches = circuit.run(product_input(KET1, KET1, phi))
    assert branches.shape == (1, 4)
    assert circuit.branch_keys == (("D", "T_OUT"),)
    expected = np.array([0, 0, 0, K * cmath.exp(1j * phi)])
    assert np.max(np.abs(branches[0] - expected)) < 1e-12
    assert abs(np.sum(np.abs(branches[0]) ** 2) - 1.0 / 48.0) < 1e-12


def test_basic_run_on_00_input():
    branches = CompiledCircuit(builtin_variant("basic")).run(product_input(KET0, KET0, 0.4))
    assert np.max(np.abs(branches[0] - np.array([K, 0, 0, 0]))) < 1e-12


def test_superposed_target_amplitudes():
    # target (|0>+|1>)/sqrt(2) with control |1>: amplitudes split over
    # |01> and |11> with 1/(4*sqrt(6)) magnitude each.
    phi = 0.77
    target = (1 / SQ2, 1 / SQ2)
    branches = CompiledCircuit(builtin_variant("basic")).run(product_input(target, KET1, phi))
    expected = np.array([0, K / SQ2, 0, K / SQ2 * cmath.exp(1j * phi)])
    assert np.max(np.abs(branches[0] - expected)) < 1e-12
    assert abs(K / SQ2 - 1 / (4 * math.sqrt(6))) < 1e-15


def test_post_select_after_detector_basis_projector():
    # Running all stages, projecting the detector path onto the diagonal
    # basis (photon kept) and then post-selecting one photon on each of
    # T_OUT, C_OUT and d, in either polarization, leaves probability 1/48.
    # The input |00> is one term per program polarization, each a permanent
    # on its three occupied columns.
    nl = builtin_variant("basic")
    index = dense_reference.modes(nl.paths)
    program = product_input(KET0, KET0, 0.6)[0, 0]
    projector = element_spec("jones", "d", 0.5, 0.5, 0.5, 0.5)
    u = dense_reference.transfer(nl.paths, [*nl.stages, projector])
    rows = [u[[index[p, pol] for pol in "HV"]] for p in ("T_OUT", "C_OUT", "d")]
    triples = np.array([[t, c, d] for t in rows[0] for c in rows[1] for d in rows[2]])
    columns = [[index["t_in", "H"], index["c_in", "H"], index["p_in", pol]] for pol in "HV"]
    amplitudes = permanents(np.moveaxis(triples[..., columns], -2, -3)) @ program
    prob = float(np.sum(np.abs(amplitudes) ** 2))
    assert abs(prob - 1.0 / 48.0) < 1e-12


def test_run_rejects_wrong_photon_count():
    # a two-qubit array, even a normalized one, is an input without the program photon
    with pytest.raises(ValueError, match=r"^input must have shape \(2, 2, 2\), got \(2, 2\)$"):
        CompiledCircuit(builtin_variant("basic")).run(np.eye(2) / SQ2)


def off_norm(excess):
    """A (2, 2, 2) input whose squared norm is 1 + ``excess``."""
    psi = np.full((2, 2, 2), 1.0 / math.sqrt(8.0), dtype=complex)
    return psi * math.sqrt(1.0 + excess)


@pytest.mark.parametrize(
    "psi, message",
    [
        pytest.param(np.full(4, 0.5), r"must have shape \(2, 2, 2\), got \(4,\)", id="shape-4"),
        pytest.param(np.eye(2) / SQ2, r"must have shape \(2, 2, 2\), got \(2, 2\)", id="shape-2x2"),
        pytest.param(np.full((2, 2, 2, 1), 8**-0.5),
                     r"must have shape \(2, 2, 2\), got \(2, 2, 2, 1\)", id="shape-2x2x2x1"),
        pytest.param(off_norm(2e-12), r"has squared norm 1\.00000000000\d+, expected 1",
                     id="norm-above"),
        pytest.param(off_norm(-2e-12), r"has squared norm 0\.99999999999\d+, expected 1",
                     id="norm-below"),
        pytest.param(np.zeros((2, 2, 2)), r"has squared norm 0\.0, expected 1", id="zero"),
    ],
)
def test_run_rejects_a_malformed_input(psi, message):
    circuit = CompiledCircuit(builtin_variant("basic"))
    with pytest.raises(ValueError, match=rf"^input {message}$"):
        circuit.run(psi)


@pytest.mark.parametrize("excess", [0.5e-12, -0.5e-12])
def test_run_accepts_a_squared_norm_within_1e_12(excess):
    circuit = CompiledCircuit(builtin_variant("basic"))
    assert circuit.run(off_norm(excess)).shape == (1, 4)


def test_run_rejects_invalid_netlist():
    from dataclasses import replace

    nl = builtin_variant("basic")
    bad = replace(nl, ports=replace(nl.ports, control_out="d"))
    with pytest.raises(NetlistValidationError, match="must name distinct paths"):
        CompiledCircuit(bad)


def test_ff_branches_agree_after_correction():
    phi = 0.5
    nl = builtin_variant("ff")
    grid = CompiledCircuit(nl).evaluate([phi])
    assert len(grid.branch_keys) == 2
    d_op, a_op = grid.ops[0]
    assert np.max(np.abs(d_op - a_op)) < 1e-12
    for probability in grid.probabilities[0]:
        assert abs(probability - 1.0 / 48.0) < 1e-12
    assert branch_scores(grid.ops)[0][0]


def test_uncorrected_a_branch_differs():
    nl = strip_corrections(builtin_variant("ff"))
    grid = CompiledCircuit(nl).evaluate([0.0])
    a_op = dict(zip(grid.branch_keys, grid.ops[0]))["A", "T_OUT"]
    assert abs(fidelity(a_op, 0.0) - 0.25) < 1e-12
    assert not branch_scores(grid.ops)[0][0]


def test_full_variant_branch_structure():
    grid = CompiledCircuit(builtin_variant("full")).evaluate([1.1])
    assert len(grid.branch_keys) == 4
    for probability in grid.probabilities[0]:
        assert abs(probability - 1.0 / 48.0) < 1e-12
    assert abs(grid.p_success[0] - 1.0 / 12.0) < 1e-12
    # Branches on the primary port agree; the swap port carries an extra pi
    # on |11>, so cross-port consistency fails by design.
    ops = dict(zip(grid.branch_keys, grid.ops[0]))
    assert np.max(np.abs(ops[("D", "T_OUT")] - ops[("A", "T_OUT")])) < 1e-12
    assert np.max(np.abs(ops[("D", "T_OUT2")] - ops[("A", "T_OUT2")])) < 1e-12
    ratio = ops[("D", "T_OUT2")][3, 3] / ops[("D", "T_OUT")][3, 3]
    assert abs(ratio + 1.0) < 1e-12
    assert not branch_scores(grid.ops)[0][0]


def test_basic_gate_matches_ideal():
    phis = (0.0, 0.9, math.pi)
    grid = CompiledCircuit(builtin_variant("basic")).evaluate(phis)
    consistent, diagonal = branch_scores(grid.ops)
    for k, phi in enumerate(phis):
        expected = K * ideal_cphase(phi)
        assert np.max(np.abs(grid.ops[k, 0] - expected)) < 1e-12
        assert abs(grid.fidelity[k] - 1.0) < 1e-12
        assert diagonal[k] and consistent[k]


def test_fidelity_examples():
    phi = 0.63
    gate = (0.2 - 0.1j) * ideal_cphase(phi)
    assert abs(fidelity(gate, phi) - 1.0) < 1e-12
    assert abs(fidelity(np.eye(4), math.pi) - 0.25) < 1e-12
    half = np.diag([1, 1, 1, cmath.exp(1j * math.pi / 2)])
    assert abs(fidelity(half, math.pi) - 0.625) < 1e-12
    with pytest.raises(ValueError):
        fidelity(np.zeros((4, 4)), 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (4, 1), (1, 4), (2, 4, 1), (4,)])
def test_fidelity_refuses_a_gate_that_is_not_4x4(shape):
    # numpy would broadcast these against the 4x4 ideal and score them
    with pytest.raises(ValueError, match=rf"^gate must be 4x4 in its last two axes, got shape "
                                         rf"{re.escape(str(shape))}$"):
        fidelity(np.ones(shape), 0.3)


COMPLEX_PHASES = [np.array([0.1 + 0.5j]), [0.1 + 0.5j], [0.0, 1e-300j], 0.1 + 0.5j]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi", COMPLEX_PHASES)
def test_a_complex_phase_is_refused_not_truncated(phi):
    bad = complex(np.asarray(phi).ravel()[-1])
    message = rf"^phase must be real, got {re.escape(str(bad))}$"
    with pytest.raises(ValueError, match=message):
        CompiledCircuit(builtin_variant("basic")).evaluate(phi)
    with pytest.raises(ValueError, match=message):
        fidelity(np.eye(4), phi)
    with pytest.raises(ValueError, match=message):
        ideal_cphase(phi)


@pytest.mark.filterwarnings("error")
def test_a_complex_phase_with_no_imaginary_part_is_its_real_part():
    phis = [0.0, -0.0, 0.7, math.pi]
    circuit = CompiledCircuit(builtin_variant("full"))
    real, as_complex = circuit.evaluate(phis), circuit.evaluate(np.array(phis, dtype=complex))
    assert real.phis.dtype == as_complex.phis.dtype == np.float64
    for name in ("phis", "probabilities", "p_success", "fidelity"):
        np.testing.assert_array_equal(getattr(as_complex, name), getattr(real, name))
    assert np.signbit(as_complex.phis[1])
    np.testing.assert_array_equal(ideal_cphase(np.array(phis, dtype=complex)), ideal_cphase(phis))
    assert fidelity(np.eye(4), 0.7 + 0j) == fidelity(np.eye(4), 0.7)


@pytest.mark.parametrize(
    "variant,expected",
    [("basic", 1 / 48), ("ff", 1 / 24), ("dual", 1 / 24), ("full", 1 / 12)],
)
def test_success_probability_nominal(variant, expected):
    circuit = CompiledCircuit(builtin_variant(variant))
    for phi in (0.0, 1.0, math.pi):
        assert abs(success_probability(circuit, KET0, KET1, phi) - expected) < 1e-12


def test_success_probability_state_independent_sample():
    rng = np.random.default_rng(31)
    circuit = CompiledCircuit(builtin_variant("basic"))
    values = []
    for _ in range(10):
        kets = []
        for _ in range(2):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            kets.append(tuple(z))
        values.append(success_probability(circuit, kets[0], kets[1], 0.8))
    assert max(values) - min(values) < 1e-12


def test_amplitude_linearity():
    phi = 0.31
    nl = builtin_variant("basic")
    alpha, beta = 0.6 + 0.2j, -0.5 + 0.35j
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    s00 = product_input(KET0, KET0, phi)
    s11 = product_input(KET1, KET1, phi)
    combo = alpha * s00 + beta * s11
    run = CompiledCircuit(nl).run
    combo_amps = run(combo)[0]
    split = alpha * run(s00)[0] + beta * run(s11)[0]
    assert np.max(np.abs(combo_amps - split)) < 1e-12


def test_phase_law_and_diagonality():
    grid = CompiledCircuit(builtin_variant("full")).evaluate(np.linspace(0.0, math.pi, 7))
    for phi, gate, diagonal in zip(grid.phis, grid.ops[:, 0], branch_scores(grid.ops)[1]):
        assert diagonal
        measured = cmath.phase(gate[3, 3] * gate[0, 0].conjugate())
        assert abs(cmath.exp(1j * measured) - cmath.exp(1j * phi)) < 1e-10


def test_probability_law_branch_count():
    for variant, count in (("basic", 1), ("ff", 2), ("dual", 2), ("full", 4)):
        grid = CompiledCircuit(builtin_variant(variant)).evaluate([0.4])
        assert len(grid.branch_keys) == count
        assert abs(grid.p_success[0] - count / 48.0) < 1e-12


def test_evaluate_rows():
    circuit = CompiledCircuit(builtin_variant("basic"))
    grid = circuit.evaluate([0.0, 0.5, 1.0])
    assert grid.phis.tolist() == [0.0, 0.5, 1.0]
    for k in range(3):
        assert abs(grid.p_success[k] - 1 / 48) < 1e-12
        assert abs(grid.fidelity[k] - 1.0) < 1e-12
        branch_probs = tuple(
            (f"{outcome}:{port}", p)
            for (outcome, port), p in zip(grid.branch_keys, grid.probabilities[k])
        )
        assert branch_probs == (("D:T_OUT", pytest.approx(1 / 48, abs=1e-12)),)
    with pytest.raises(ValueError):
        circuit.evaluate([])


def test_single_point_grid_matches_longer_grid():
    circuit = CompiledCircuit(builtin_variant("dual"))
    row = circuit.evaluate([0.0])
    longer = circuit.evaluate([0.0, 0.5])
    assert row.p_success[0] == longer.p_success[0]
    assert row.fidelity[0] == longer.fidelity[0]


def test_hom_scan_endpoints_and_affinity():
    t = 1 / math.sqrt(3)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = dict(zip(grid, hom_scan(t, grid)))
    assert abs(rows[1.0] - 1.0 / 9.0) < 1e-12
    assert abs(rows[0.0] - 5.0 / 9.0) < 1e-12
    r2 = 1 - t * t
    for v, p in rows.items():
        closed_form = v * (t * t - r2) ** 2 + (1 - v) * (t**4 + r2**2)
        assert abs(p - closed_form) < 1e-12
    # affine in v
    assert abs(rows[0.5] - (rows[0.0] + rows[1.0]) / 2) < 1e-12


def test_hom_scan_balanced_dip():
    (dip,) = hom_scan(1 / SQ2, [1.0])
    assert dip < 1e-12


def test_hom_scan_validates_arguments():
    with pytest.raises(ValueError):
        hom_scan(0.0, [0.5])
    with pytest.raises(ValueError):
        hom_scan(0.5, [1.5])
