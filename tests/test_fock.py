"""States, elements and the permanent engine on small hand-checked cases.

Output amplitudes come from ``coincidence_amplitudes`` over transfer
matrices built by ``dense_reference.transfer``; post-selection is a sum over the output
occupations it keeps, and detection a row contracted with the conjugated
outcome ket.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lopcsim import (
    CompiledCircuit,
    FockState,
    ModeRegistry,
    NetlistValidationError,
    builtin_variant,
    coincidence_amplitudes,
    linear_element,
    make_photon_state,
    prepare_inputs,
    validate,
)
from lopcsim.gates import BASIS_KETS

from . import dense_reference
from .test_elements import element
from .test_fock_properties import engine_output

SQ2 = math.sqrt(2.0)
T = 1.0 / math.sqrt(3.0)
R = math.sqrt(2.0 / 3.0)


def brute_permanent(m):
    n = m.shape[0]
    return sum(
        np.prod([m[i, perm[i]] for i in range(n)])
        for perm in itertools.permutations(range(n))
    )


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def occ(reg, *channels):
    counts = {}
    for channel in channels:
        idx = reg.index(channel)
        counts[idx] = counts.get(idx, 0) + 1
    return tuple(sorted(counts.items()))


def amplitude(state, transfer, *channels):
    """Engine amplitude of the output occupation with one photon per channel."""
    reg = state.registry
    modes = [reg.index(channel) for channel in channels]
    bunching = math.prod(math.factorial(modes.count(m)) for m in set(modes))
    return coincidence_amplitudes(state, transfer[modes]) / math.sqrt(bunching)


def kept_probability(state, transfer, pattern):
    """Probability of the output occupations whose per-path photon totals are ``pattern``."""
    reg = state.registry
    channels = list(reg.channel_index)
    total = 0.0
    for modes, amp in engine_output(state, transfer).items():
        paths = [channels[m][0] for m in modes]
        if all(paths.count(p) == pattern.get(p, 0) for p in reg.paths):
            total += abs(amp) ** 2
    return total


def detector_row(reg, path, ket):
    """The detector rows of ``path`` contracted with the conjugated ``ket``."""
    rows = np.eye(len(reg), dtype=complex)[[reg.index((path, pol)) for pol in "HV"]]
    return np.conj(ket) @ rows


@pytest.fixture
def reg():
    return ModeRegistry(("p", "q", "t", "c"))


def test_program_photon_state(reg):
    phi = 0.9
    state = make_photon_state(
        reg,
        [[(("p", "H"), 1 / SQ2), (("p", "V"), -np.exp(1j * phi) / SQ2)]],
    )
    assert abs(state.amplitudes.get(occ(reg, ("p", "H")), 0j) - 1 / SQ2) < 1e-15
    assert abs(state.amplitudes.get(occ(reg, ("p", "V")), 0j) + np.exp(1j * phi) / SQ2) < 1e-15
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_single_photon_basis_ket(reg):
    state = make_photon_state(reg, [[(("t", "H"), 1.0)]])
    assert state.amplitudes == {occ(reg, ("t", "H")): 1.0 + 0j}


def test_double_occupation_is_normalized(reg):
    channel = ("c", "V")
    state = make_photon_state(reg, [[(channel, 1.0)], [(channel, 1.0)]])
    assert abs(state.amplitudes.get(occ(reg, channel, channel), 0j) - 1.0) < 1e-15
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_make_photon_state_rejects_bad_input(reg):
    with pytest.raises(ValueError, match="squared norm"):
        make_photon_state(reg, [[(("t", "H"), 0.5)]])


def test_make_photon_state_rejects_a_mode_listed_twice(reg):
    # 0.36 + 0.64 passes the norm check, yet the photon's squared norm is 1.96
    with pytest.raises(ValueError, match=re.escape("photon 1: mode ('t', 'H') is listed twice")):
        make_photon_state(reg, [[(("p", "V"), 1.0)], [(("t", "H"), 0.6), (("t", "H"), 0.8)]])


def test_ppbs_single_photon_split(reg):
    u = dense_reference.transfer(reg, [element("ppbs", "p q p q", T)])
    state = make_photon_state(reg, [[(("p", "V"), 1.0)]])
    assert abs(amplitude(state, u, ("p", "V")) - T) < 1e-15
    assert abs(abs(amplitude(state, u, ("q", "V"))) - R) < 1e-15


def test_identity_element_is_noop(reg):
    el = linear_element("ID", (("p", "H"), ("p", "V")), (("p", "H"), ("p", "V")), np.eye(2))
    assert np.array_equal(dense_reference.transfer(reg, [el]), np.eye(len(reg)))
    state = make_photon_state(reg, [[(("p", "H"), 0.6), (("p", "V"), 0.8)]])
    out = engine_output(state, dense_reference.transfer(reg, [el]))
    expected = {tuple(m for m, n in occ for _ in range(n)): a for occ, a in state.terms()}
    assert {k: a for k, a in out.items() if abs(a) > 1e-15} == pytest.approx(expected)


def test_two_photon_coincidence_is_permanent(reg):
    el = element("ppbs", "p q p q", T)
    state = make_photon_state(reg, [[(("p", "V"), 1.0)], [(("q", "V"), 1.0)]])
    coincidence = amplitude(state, dense_reference.transfer(reg, [el]), ("p", "V"), ("q", "V"))
    v_block = el.matrix[2:, 2:]
    assert abs(coincidence - brute_permanent(v_block)) < 1e-15
    assert abs(coincidence + 1.0 / 3.0) < 1e-15


def test_permanent_and_bunching_amplitudes_random():
    rng = np.random.default_rng(7)
    reg2 = ModeRegistry(("a", "b"))
    a_v, b_v = ("a", "V"), ("b", "V")
    for _ in range(20):
        m = random_unitary(rng, 2)
        el = linear_element("U", (("a", "V"), ("b", "V")), (("a", "V"), ("b", "V")), m)
        u = dense_reference.transfer(reg2, [el])
        state = make_photon_state(reg2, [[(a_v, 1.0)], [(b_v, 1.0)]])
        one_each = amplitude(state, u, a_v, b_v)
        both_a = amplitude(state, u, a_v, a_v)
        assert abs(one_each - brute_permanent(m)) < 1e-12
        assert abs(both_a - SQ2 * m[0, 0] * m[0, 1]) < 1e-12
        evolved = dense_reference.evolve(dense_reference.tensor(state), u)
        assert abs(both_a - dense_reference.amplitude(evolved, [reg2.index(a_v)] * 2)) < 1e-12


def test_unitary_preserves_norm_on_random_three_photon_states():
    rng = np.random.default_rng(11)
    reg3 = ModeRegistry(("a", "b", "c"))
    channels = [(p, pol) for p in ("a", "b", "c") for pol in ("H", "V")]
    for _ in range(10):
        photons = []
        for _ in range(3):
            amps = rng.normal(size=6) + 1j * rng.normal(size=6)
            amps /= np.linalg.norm(amps)
            photons.append(list(zip(channels, amps)))
        state = make_photon_state(reg3, photons)
        m = random_unitary(rng, 4)
        el = linear_element(
            "U4",
            (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V")),
            (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V")),
            m,
        )
        out = engine_output(state, dense_reference.transfer(reg3, [el]))
        assert abs(sum(abs(a) ** 2 for a in out.values()) - state.norm_sq()) < 1e-12


def test_element_composition_matches_matrix_product():
    rng = np.random.default_rng(13)
    reg2 = ModeRegistry(("a", "b"))
    chans = (("a", "V"), ("b", "V"))
    m1, m2 = random_unitary(rng, 2), random_unitary(rng, 2)
    e1 = linear_element("M1", chans, chans, m1)
    e2 = linear_element("M2", chans, chans, m2)
    e21 = linear_element("M2M1", chans, chans, m2 @ m1)
    state = make_photon_state(
        reg2,
        [
            [(("a", "V"), 0.8), (("b", "V"), 0.6)],
            [(("b", "V"), 1.0)],
        ],
    )
    # one element after the other in the dense reference, the product in the engine
    t = dense_reference.tensor(state)
    for e in (e1, e2):
        t = dense_reference.evolve(t, dense_reference.transfer(reg2, [e]))
    for modes, amp in engine_output(state, dense_reference.transfer(reg2, [e21])).items():
        assert abs(amp - dense_reference.amplitude(t, modes)) < 1e-12


def test_post_select_basic_counts(reg):
    state = make_photon_state(
        reg,
        [
            [(("p", "H"), 1 / SQ2), (("q", "H"), 1 / SQ2)],
            [(("t", "V"), 1.0)],
        ],
    )
    identity = np.eye(len(reg), dtype=complex)
    assert abs(kept_probability(state, identity, {"p": 1, "t": 1}) - 0.5) < 1e-12
    single = make_photon_state(reg, [[(("t", "V"), 1.0)]])
    assert abs(kept_probability(single, identity, {"t": 1}) - 1.0) < 1e-12


def test_post_select_probabilities_sum_to_norm():
    rng = np.random.default_rng(17)
    reg3 = ModeRegistry(("a", "b", "c"))
    channels = [(p, pol) for p in ("a", "b", "c") for pol in ("H", "V")]
    photons = []
    for _ in range(3):
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        photons.append(list(zip(channels, amps)))
    state = make_photon_state(reg3, photons)
    u = dense_reference.transfer(reg3, [element("ppbs", "a b b a", 0.4)])
    total = 0.0
    for na in range(4):
        for nb in range(4 - na):
            nc = 3 - na - nb
            total += kept_probability(state, u, {"a": na, "b": nb, "c": nc})
    assert abs(total - state.norm_sq()) < 1e-12


def test_post_select_rejects_bad_patterns(reg):
    # a selection of output modes must account for every photon
    state = make_photon_state(reg, [[(("t", "H"), 1.0)]])
    identity = np.eye(len(reg), dtype=complex)
    with pytest.raises(ValueError, match="2 output modes for a state of 1 photons"):
        coincidence_amplitudes(state, identity[[0, 1]])


@pytest.mark.parametrize(
    "channel", [("t", "X"), ("zzz", "H"), ["t", "H"]], ids=["polarization", "path", "list"]
)
def test_make_photon_state_rejects_unknown_modes(reg, channel):
    with pytest.raises(ValueError, match=re.escape(f"unknown mode {channel}")):
        make_photon_state(reg, [[(channel, 1.0)]])


def test_linear_element_rejects_a_bad_polarization():
    with pytest.raises(ValueError, match=r"X: channel \('a', 'X'\) has a polarization not in"):
        linear_element("X", [("a", "X"), ("a", "V")], [("a", "H"), ("a", "V")], np.eye(2))
    with pytest.raises(ValueError, match=r"X: channel \('b', 'h'\)"):
        linear_element("X", [("a", "H")], [("b", "h")], np.eye(1))


def test_project_detector_program_factor(reg):
    phi = 1.1
    state = make_photon_state(
        reg,
        [[(("p", "H"), 1 / SQ2), (("p", "V"), -np.exp(1j * phi) / SQ2)]],
    )
    amp = coincidence_amplitudes(state, detector_row(reg, "p", (1 / SQ2, 1 / SQ2))[None])
    factor = (1 - np.exp(1j * phi)) / 2
    assert abs(amp - factor) < 1e-12


def test_project_detector_aligned_and_orthogonal(reg):
    pure_h = make_photon_state(reg, [[(("p", "H"), 1.0)]])
    aligned = coincidence_amplitudes(pure_h, detector_row(reg, "p", (1.0, 0.0))[None])
    assert abs(aligned - 1.0) < 1e-15
    diag = make_photon_state(reg, [[(("p", "H"), 1 / SQ2), (("p", "V"), 1 / SQ2)]])
    perp = coincidence_amplitudes(diag, detector_row(reg, "p", (1 / SQ2, -1 / SQ2))[None])
    assert abs(perp) ** 2 < 1e-24


def test_project_detector_requires_single_photon(reg):
    # the detector row takes exactly one photon: two photons on its path
    # give no coincidence with any other mode, and one row alone does not
    # account for both
    channel = ("p", "V")
    state = make_photon_state(reg, [[(channel, 1.0)], [(channel, 1.0)]])
    det = detector_row(reg, "p", (0.0, 1.0))
    others = np.eye(len(reg), dtype=complex)[[reg.index(("q", "V"))]]
    assert coincidence_amplitudes(state, np.stack([det, others[0]])) == 0
    with pytest.raises(ValueError, match="output modes"):
        coincidence_amplitudes(state, det[None])


def test_two_qubit_amplitudes_reads_single_term():
    # each basis input |tc> of the diagonal gate lands on amplitude 2t+c only
    circuit = CompiledCircuit(builtin_variant("full"))
    for t in (0, 1):
        for c in (0, 1):
            state = prepare_inputs(circuit.netlist, BASIS_KETS[t], BASIS_KETS[c], 0.7)
            for branch in circuit.run(state):
                others = np.delete(branch.amplitudes, 2 * t + c)
                assert abs(abs(branch.amplitudes[2 * t + c]) - 1 / (4 * math.sqrt(3))) < 1e-12
                assert np.max(np.abs(others)) < 1e-15


def test_two_qubit_amplitudes_rejects_residual():
    # a target output on the control or detector path would read a photon
    # outside the qubit ports as a qubit amplitude
    nl = builtin_variant("basic")
    for clash in ("C_OUT", "d"):
        bad = replace(nl, ports=replace(nl.ports, target_out=(clash,)))
        assert any("distinct paths" in d for d in validate(bad))
        with pytest.raises(NetlistValidationError):
            CompiledCircuit(bad)


def test_operations_are_linear():
    rng = np.random.default_rng(23)
    reg2 = ModeRegistry(("a", "b"))
    chans = (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V"))
    m = random_unitary(rng, 4)
    u = dense_reference.transfer(reg2, [linear_element("U", chans, chans, m)])
    for _ in range(5):
        states = []
        for _ in range(2):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            photons = [list(zip(chans, amps)), [(("b", "V"), 1.0)]]
            states.append(make_photon_state(reg2, photons))
        alpha, beta = 0.6 + 0.1j, -0.3 + 0.7j
        out_combo = engine_output(alpha * states[0] + beta * states[1], u)
        parts = [engine_output(s, u) for s in states]
        for key, amp in out_combo.items():
            assert abs(amp - (alpha * parts[0][key] + beta * parts[1][key])) < 1e-12


def test_projection_operations_are_linear():
    rng = np.random.default_rng(29)
    reg2 = ModeRegistry(("a", "b"))
    channels = [(p, pol) for p in ("a", "b") for pol in ("H", "V")]

    def random_state():
        photons = []
        for _ in range(2):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            photons.append(list(zip(channels, amps)))
        return make_photon_state(reg2, photons)

    s1, s2 = random_state(), random_state()
    alpha, beta = 0.4 - 0.3j, 0.2 + 0.6j
    combo = alpha * s1 + beta * s2
    # one photon detected on a in the diagonal ket, the other kept on b
    det = detector_row(reg2, "a", (1 / SQ2, 1 / SQ2))
    b_rows = np.eye(len(reg2), dtype=complex)[[reg2.index(("b", pol)) for pol in "HV"]]
    rows = np.stack([np.stack([det, b]) for b in b_rows])
    detected = coincidence_amplitudes(combo, rows)
    parts = alpha * coincidence_amplitudes(s1, rows) + beta * coincidence_amplitudes(s2, rows)
    assert np.max(np.abs(detected - parts)) < 1e-12


def test_subunitary_element_rejected():
    with pytest.raises(ValueError, match=r"not subunitary \(max singular value 1.5\)"):
        linear_element("BAD", (("a", "H"),), (("a", "H"),), np.array([[1.5]]))
    # the boundary: a top singular value up to 1 + 1e-12 passes
    chans = [(p, pol) for p in ("a", "b") for pol in ("H", "V")]
    u = random_unitary(np.random.default_rng(11), 4)
    for excess, accepted in ((0.5e-12, True), (2e-12, False)):
        m = u @ np.diag([1.0 + excess, 1.0, 1.0, 1.0])
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(top - (1.0 + excess)) < 1e-14
        if accepted:
            assert np.array_equal(linear_element("U", chans, chans, m).matrix, m)
        else:
            with pytest.raises(ValueError, match=r"U: .*\(max singular value (\S+)\)$") as err:
                linear_element("U", chans, chans, m)
            # the printed value shows the excess over the 1 + 1e-12 boundary
            printed = re.search(r"max singular value (\S+)\)$", str(err.value)).group(1)
            assert float(printed) == top and float(printed) > 1.0 + 1e-12


@pytest.mark.parametrize(
    "photons, occupation",
    [
        pytest.param(2, ((0, 1),), id="too-few-photons"),
        pytest.param(2, ((1, 1), (1, 1)), id="repeated-mode"),
        pytest.param(2, ((1, 1), (0, 1)), id="descending-modes"),
        pytest.param(1, ((8, 1),), id="mode-past-registry"),
        pytest.param(1, ((-1, 1),), id="negative-mode"),
        pytest.param(1, ((0, 1), (1, 0)), id="zero-count"),
        pytest.param(1, ((0, 2), (1, -1)), id="negative-count"),
        pytest.param(1.5, ((0, 1),), id="fractional-photon-number"),
        pytest.param(-1, (), id="negative-photon-number"),
    ],
)
def test_fock_state_occupation_invariant(reg, photons, occupation):
    with pytest.raises(ValueError, match="occupation"):
        FockState(reg, photons, {occupation: 1.0} if occupation else {})


NON_FINITE = [float("nan"), float("inf"), complex(0.0, float("nan"))]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_make_photon_state_rejects_non_finite_amplitudes(reg, bad):
    with pytest.raises(ValueError, match="squared norm"):
        make_photon_state(reg, [[(("t", "H"), bad)]])
    with pytest.raises(ValueError, match="squared norm"):
        make_photon_state(reg, [[(("t", "H"), 1.0), (("t", "V"), bad)]])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_pruning_raises_on_non_finite_amplitudes(reg, bad):
    kept = occ(reg, ("t", "H"))
    with pytest.raises(ValueError, match="non-finite"):
        FockState(reg, 1, {kept: 1.0, occ(reg, ("t", "V")): bad})
    tiny = make_photon_state(reg, [[(("t", "H"), 1.0), (("q", "V"), 1e-20)]])
    assert tiny.amplitudes == {kept: 1.0 + 0j}


@pytest.mark.parametrize("bad", NON_FINITE)
def test_project_detector_rejects_non_finite_ket(bad):
    nl = builtin_variant("basic")
    for ket in ((bad, 0.0), (1.0, bad)):
        outcome = replace(nl.measurement.outcomes[0], ket=ket)
        broken = replace(nl, measurement=replace(nl.measurement, outcomes=(outcome,)))
        with pytest.raises(NetlistValidationError, match="normalized"):
            CompiledCircuit(broken)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_gate_input_kets_reject_non_finite_amplitudes(bad):
    nl = builtin_variant("basic")
    with pytest.raises(ValueError, match="target ket"):
        prepare_inputs(nl, (bad, 0.0), (1.0, 0.0), 0.3)
    with pytest.raises(ValueError, match="control ket"):
        prepare_inputs(nl, (1.0, 0.0), (1.0, bad), 0.3)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_linear_element_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        linear_element("BAD", (("a", "H"),), (("a", "H"),), np.array([[bad]]))
