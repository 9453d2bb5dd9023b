"""The scalar oracle multiplies hand-written per-element factors and is the
source of every derived expectation in the other test modules."""

import cmath
import math

import numpy as np
import pytest

from lopcsim import branch_table, oracle, oracle_conditional_gate, path_amplitude
from lopcsim.oracle import OraclePath, VARIANTS

K = 1.0 / (4.0 * math.sqrt(3.0))
PHIS = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6, math.pi]


def single_branch(t, c, phi, variant="basic"):
    branches = path_amplitude(t, c, phi, variant)
    assert len(branches) == 1
    return branches[0]


@pytest.mark.parametrize("t,c", [(0, 0), (0, 1), (1, 0)])
def test_basic_unshifted_inputs(t, c):
    br = single_branch(t, c, 0.37)
    assert br.ket_index == 2 * t + c
    assert abs(br.amplitude - K) < 1e-15


@pytest.mark.parametrize("phi", PHIS)
def test_basic_phase_rides_on_11(phi):
    br = single_branch(1, 1, phi)
    assert br.ket_index == 3
    assert abs(br.amplitude - K * cmath.exp(1j * phi)) < 1e-15


def test_basic_gate_and_probability():
    phi = 1.234
    gate, p = oracle_conditional_gate(phi, "basic")
    expected = K * np.diag([1, 1, 1, cmath.exp(1j * phi)])
    assert np.max(np.abs(gate - expected)) < 1e-15
    assert abs(p - 1.0 / 48.0) < 1e-15


def test_phi_zero_gate_proportional_to_identity():
    gate, _ = oracle_conditional_gate(0.0, "basic")
    assert np.max(np.abs(gate - K * np.eye(4))) < 1e-15


def test_ff_corrected_branch_matches_diagonal_outcome():
    phi = 0.81
    table = branch_table([phi], "ff")
    assert set(table) == {("D", "T_OUT"), ("A", "T_OUT")}
    d = table[("D", "T_OUT")][0]
    a = table[("A", "T_OUT")][0]
    assert np.max(np.abs(d - a)) < 1e-15


def test_dual_second_port_carries_pi_on_11():
    # The swap port picks the H output of the final Hadamard while the
    # primary port takes its V output, so the |11> entry flips sign there.
    phi = 0.81
    table = branch_table([phi], "dual")
    first = table[("D", "T_OUT")][0]
    second = table[("D", "T_OUT2")][0]
    assert np.max(np.abs(first[:3] - second[:3])) < 1e-15
    assert abs(first[3] + second[3]) < 1e-15
    assert abs(second[3] + K * cmath.exp(1j * phi)) < 1e-15


def test_full_branches_reach_one_twelfth():
    phi = 2.0
    gate, p = oracle_conditional_gate(phi, "full")
    assert abs(p - 1.0 / 12.0) < 1e-15
    expected = K * np.diag([1, 1, 1, cmath.exp(1j * phi)])
    assert np.max(np.abs(gate - expected)) < 1e-15


def test_full_10_input_four_branches_magnitude():
    branches = path_amplitude(1, 0, 0.9, "full")
    assert len(branches) == 4
    for br in branches:
        assert br.ket_index == 2
        assert abs(abs(br.amplitude) - K) < 1e-15
        assert abs(br.amplitude - K) < 1e-15  # the |10> row is corrected everywhere


def test_branch_probabilities_are_uniform():
    for variant in VARIANTS:
        for t in (0, 1):
            for c in (0, 1):
                for br in path_amplitude(t, c, 0.3, variant):
                    assert abs(abs(br.amplitude) ** 2 - 1.0 / 48.0) < 1e-15


def test_path_amplitude_product_invariant():
    for variant in VARIANTS:
        for t in (0, 1):
            for c in (0, 1):
                for br in path_amplitude(t, c, 0.55, variant):
                    prod = 1.0 + 0j
                    for _, factor in br.path.steps:
                        prod *= factor
                    assert br.amplitude == prod
                    assert isinstance(br.path, OraclePath)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        path_amplitude(0, 0, 0.0, "nope")
    with pytest.raises(ValueError):
        path_amplitude(2, 0, 0.0, "basic")


#: Grids of 1, 2, 5 and 1001 points, with phases below 0, above 2 pi and
#: converted from degrees.
GRIDS = [
    [0.7],
    [-2.5, 9.0],
    [-7.0, -math.pi, 0.0, 2 * math.pi + 0.1, 20.0],
    [math.radians(d) for d in np.linspace(-90.0, 270.0, 1001).tolist()],
]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("phis", GRIDS, ids=lambda phis: f"{len(phis)}pt")
def test_the_grid_table_stacks_the_scalar_chains_bit_for_bit(variant, phis):
    table = branch_table(phis, variant)
    stacked = {key: np.zeros((len(phis), 4), dtype=complex) for key in table}
    for i, phi in enumerate(phis):
        for t in (0, 1):
            for c in (0, 1):
                for br in path_amplitude(t, c, phi, variant):
                    stacked[br.outcome, br.port][i, br.ket_index] = br.amplitude
    assert set(table) == set(stacked)
    for key, rows in table.items():
        assert rows.shape == (len(phis), 4)
        assert rows.tobytes() == stacked[key].tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_chains_are_built_once_per_branch_and_input(variant, monkeypatch):
    calls = []
    chain = oracle._chain
    monkeypatch.setattr(oracle, "_chain", lambda *args: calls.append(args) or chain(*args))
    for phis in GRIDS:
        calls.clear()
        table = branch_table(phis, variant)
        assert len(calls) == 4 * len(table)
