import cmath
import math

import numpy as np
import pytest

from lopcsim import (
    NetlistValidationError,
    builtin_basic,
    builtin_variant,
    conditional_gate,
    fidelity,
    hom_scan,
    ideal_cphase,
    prepare_inputs,
    run,
    strip_corrections,
    success_probability,
    sweep_phi,
)
from lopcsim.fock import H, ModeLabel, V
from lopcsim.gates import BASIS_KETS

SQ2 = math.sqrt(2.0)
K = 1.0 / (4.0 * math.sqrt(3.0))
KET0, KET1 = BASIS_KETS


def test_prepare_inputs_program_photon():
    nl = builtin_basic()
    reg = nl.registry()
    for phi, expected_v in ((0.0, -1 / SQ2), (math.pi, 1 / SQ2)):
        state = prepare_inputs(nl, KET0, KET0, phi)
        occ_h = tuple(
            sorted(
                (reg.index(m), 1)
                for m in (ModeLabel("t_in", H), ModeLabel("c_in", H), ModeLabel("p_in", H))
            )
        )
        occ_v = tuple(
            sorted(
                (reg.index(m), 1)
                for m in (ModeLabel("t_in", H), ModeLabel("c_in", H), ModeLabel("p_in", V))
            )
        )
        assert abs(state.amplitude(occ_h) - 1 / SQ2) < 1e-12
        assert abs(state.amplitude(occ_v) - expected_v) < 1e-12


def test_prepare_inputs_rejects_unnormalized_kets():
    with pytest.raises(ValueError):
        prepare_inputs(builtin_basic(), (0.5, 0.5), KET0, 0.0)


def test_basic_run_on_11_input():
    phi = 1.3
    nl = builtin_basic()
    branches = run(nl, prepare_inputs(nl, KET1, KET1, phi))
    assert len(branches) == 1
    br = branches[0]
    assert (br.outcome, br.port) == ("D", "T_OUT")
    expected = np.array([0, 0, 0, K * cmath.exp(1j * phi)])
    assert np.max(np.abs(br.amplitudes - expected)) < 1e-12
    assert abs(br.probability - 1.0 / 48.0) < 1e-12


def test_basic_run_on_00_input():
    nl = builtin_basic()
    branches = run(nl, prepare_inputs(nl, KET0, KET0, 0.4))
    assert np.max(np.abs(branches[0].amplitudes - np.array([K, 0, 0, 0]))) < 1e-12


def test_superposed_target_amplitudes():
    # target (|0>+|1>)/sqrt(2) with control |1>: amplitudes split over
    # |01> and |11> with 1/(4*sqrt(6)) magnitude each.
    phi = 0.77
    nl = builtin_basic()
    target = (1 / SQ2, 1 / SQ2)
    branches = run(nl, prepare_inputs(nl, target, KET1, phi))
    expected = np.array([0, K / SQ2, 0, K / SQ2 * cmath.exp(1j * phi)])
    assert np.max(np.abs(branches[0].amplitudes - expected)) < 1e-12
    assert abs(K / SQ2 - 1 / (4 * math.sqrt(6))) < 1e-15


def test_post_select_after_detector_basis_projector():
    # Running all stages, projecting the detector path onto the diagonal
    # basis (photon kept) and then post-selecting one photon on each of
    # T_OUT, C_OUT and d, in either polarization, leaves probability 1/48.
    from lopcsim import coincidence_amplitudes, embed, jones

    nl = builtin_basic()
    reg = nl.registry()
    state = prepare_inputs(nl, KET0, KET0, 0.6)
    u = np.eye(len(reg), dtype=complex)
    for spec in nl.stages:
        u = embed(spec.build(), reg) @ u
    u = embed(jones("d", 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])), reg) @ u
    rows = [u[[reg.index(ModeLabel(p, pol)) for pol in (H, V)]] for p in ("T_OUT", "C_OUT", "d")]
    triples = np.array([[t, c, d] for t in rows[0] for c in rows[1] for d in rows[2]])
    prob = float(np.sum(np.abs(coincidence_amplitudes(state, triples)) ** 2))
    assert abs(prob - 1.0 / 48.0) < 1e-12


def test_run_rejects_wrong_photon_count():
    nl = builtin_basic()
    reg = nl.registry()
    from lopcsim import make_photon_state

    two = make_photon_state(
        reg, [[(ModeLabel("t_in", H), 1.0)], [(ModeLabel("c_in", H), 1.0)]]
    )
    with pytest.raises(ValueError):
        run(nl, two)


def test_run_rejects_invalid_netlist():
    from dataclasses import replace

    nl = builtin_basic()
    bad = replace(nl, postselect=(("T_OUT", 1), ("C_OUT", 1), ("d", 0), ("p_in", 1)))
    state = prepare_inputs(nl, KET0, KET0, 0.0)
    with pytest.raises(NetlistValidationError):
        run(bad, state)


def test_ff_branches_agree_after_correction():
    phi = 0.5
    nl = builtin_variant("ff")
    report = conditional_gate(nl, phi)
    assert len(report.branches) == 2
    d_op = report.branches[0].amplitudes
    a_op = report.branches[1].amplitudes
    assert np.max(np.abs(d_op - a_op)) < 1e-12
    for branch in report.branches:
        assert abs(branch.probability - 1.0 / 48.0) < 1e-12
    assert report.branch_consistent


def test_uncorrected_a_branch_differs():
    nl = strip_corrections(builtin_variant("ff"))
    report = conditional_gate(nl, 0.0)
    a_branch = next(b for b in report.branches if b.outcome == "A")
    assert abs(fidelity(a_branch.amplitudes, 0.0) - 0.25) < 1e-12
    assert not report.branch_consistent


def test_full_variant_branch_structure():
    report = conditional_gate(builtin_variant("full"), 1.1)
    assert len(report.branches) == 4
    for branch in report.branches:
        assert abs(branch.probability - 1.0 / 48.0) < 1e-12
    assert abs(report.p_success - 1.0 / 12.0) < 1e-12
    # Branches on the primary port agree; the swap port carries an extra pi
    # on |11>, so cross-port consistency fails by design.
    ops = {(b.outcome, b.port): b.amplitudes for b in report.branches}
    assert np.max(np.abs(ops[("D", "T_OUT")] - ops[("A", "T_OUT")])) < 1e-12
    assert np.max(np.abs(ops[("D", "T_OUT2")] - ops[("A", "T_OUT2")])) < 1e-12
    ratio = ops[("D", "T_OUT2")][3, 3] / ops[("D", "T_OUT")][3, 3]
    assert abs(ratio + 1.0) < 1e-12
    assert not report.branch_consistent


def test_basic_gate_matches_ideal():
    for phi in (0.0, 0.9, math.pi):
        report = conditional_gate(builtin_basic(), phi)
        expected = K * ideal_cphase(phi)
        assert np.max(np.abs(report.gate - expected)) < 1e-12
        assert abs(report.fidelity - 1.0) < 1e-12
        assert report.diagonal and report.branch_consistent


def test_fidelity_examples():
    phi = 0.63
    gate = (0.2 - 0.1j) * ideal_cphase(phi)
    assert abs(fidelity(gate, phi) - 1.0) < 1e-12
    assert abs(fidelity(np.eye(4), math.pi) - 0.25) < 1e-12
    half = np.diag([1, 1, 1, cmath.exp(1j * math.pi / 2)])
    assert abs(fidelity(half, math.pi) - 0.625) < 1e-12
    with pytest.raises(ValueError):
        fidelity(np.zeros((4, 4)), 0.0)


@pytest.mark.parametrize(
    "variant,expected",
    [("basic", 1 / 48), ("ff", 1 / 24), ("dual", 1 / 24), ("full", 1 / 12)],
)
def test_success_probability_nominal(variant, expected):
    nl = builtin_variant(variant)
    for phi in (0.0, 1.0, math.pi):
        assert abs(success_probability(nl, KET0, KET1, phi) - expected) < 1e-12


def test_success_probability_state_independent_sample():
    rng = np.random.default_rng(31)
    nl = builtin_basic()
    values = []
    for _ in range(10):
        kets = []
        for _ in range(2):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            kets.append(tuple(z))
        values.append(success_probability(nl, kets[0], kets[1], 0.8))
    assert max(values) - min(values) < 1e-12


def test_amplitude_linearity():
    phi = 0.31
    nl = builtin_basic()
    alpha, beta = 0.6 + 0.2j, -0.5 + 0.35j
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    s00 = prepare_inputs(nl, KET0, KET0, phi)
    s11 = prepare_inputs(nl, KET1, KET1, phi)
    combo = alpha * s00 + beta * s11
    combo_amps = run(nl, combo)[0].amplitudes
    split = alpha * run(nl, s00)[0].amplitudes + beta * run(nl, s11)[0].amplitudes
    assert np.max(np.abs(combo_amps - split)) < 1e-12


def test_phase_law_and_diagonality():
    nl = builtin_variant("full")
    for phi in np.linspace(0.0, math.pi, 7):
        report = conditional_gate(nl, float(phi))
        assert report.diagonal
        measured = cmath.phase(report.gate[3, 3] * report.gate[0, 0].conjugate())
        assert abs(cmath.exp(1j * measured) - cmath.exp(1j * phi)) < 1e-10


def test_probability_law_branch_count():
    for variant, count in (("basic", 1), ("ff", 2), ("dual", 2), ("full", 4)):
        report = conditional_gate(builtin_variant(variant), 0.4)
        assert len(report.branches) == count
        assert abs(report.p_success - count / 48.0) < 1e-12


def test_sweep_phi_rows():
    nl = builtin_basic()
    rows = sweep_phi(nl, [0.0, 0.5, 1.0])
    assert [r.phi for r in rows] == [0.0, 0.5, 1.0]
    for row in rows:
        assert abs(row.p_success - 1 / 48) < 1e-12
        assert abs(row.fidelity - 1.0) < 1e-12
        branch_probs = tuple((b.label, b.probability) for b in row.branches)
        assert branch_probs == (("D:T_OUT", pytest.approx(1 / 48, abs=1e-12)),)
    with pytest.raises(ValueError):
        sweep_phi(nl, [])


def test_sweep_single_point_matches_conditional_gate():
    nl = builtin_variant("dual")
    row = sweep_phi(nl, [0.0])[0]
    report = conditional_gate(nl, 0.0)
    assert row.p_success == report.p_success
    assert row.fidelity == report.fidelity


def test_hom_scan_endpoints_and_affinity():
    t = 1 / math.sqrt(3)
    rows = dict(hom_scan(t, [0.0, 0.25, 0.5, 0.75, 1.0]))
    assert abs(rows[1.0] - 1.0 / 9.0) < 1e-12
    assert abs(rows[0.0] - 5.0 / 9.0) < 1e-12
    r2 = 1 - t * t
    for v, p in rows.items():
        closed_form = v * (t * t - r2) ** 2 + (1 - v) * (t**4 + r2**2)
        assert abs(p - closed_form) < 1e-12
    # affine in v
    assert abs(rows[0.5] - (rows[0.0] + rows[1.0]) / 2) < 1e-12


def test_hom_scan_balanced_dip():
    rows = dict(hom_scan(1 / SQ2, [1.0]))
    assert rows[1.0] < 1e-12


def test_hom_scan_validates_arguments():
    with pytest.raises(ValueError):
        hom_scan(0.0, [0.5])
    with pytest.raises(ValueError):
        hom_scan(0.5, [1.5])
