import itertools
import math

import numpy as np
import pytest

from lopcsim import (
    FockState,
    ModeLabel,
    ModeRegistry,
    apply_element,
    linear_element,
    make_photon_state,
    post_select,
    project_detector,
    two_qubit_amplitudes,
)
from lopcsim.elements import ppbs

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


def occ(reg, *labels):
    counts = {}
    for label in labels:
        idx = reg.index(label)
        counts[idx] = counts.get(idx, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.fixture
def reg():
    return ModeRegistry(("p", "q", "t", "c"))


def test_program_photon_state(reg):
    phi = 0.9
    state = make_photon_state(
        reg,
        [[(ModeLabel("p", "H"), 1 / SQ2), (ModeLabel("p", "V"), -np.exp(1j * phi) / SQ2)]],
    )
    assert abs(state.amplitude(occ(reg, ModeLabel("p", "H"))) - 1 / SQ2) < 1e-15
    assert abs(state.amplitude(occ(reg, ModeLabel("p", "V"))) + np.exp(1j * phi) / SQ2) < 1e-15
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_single_photon_basis_ket(reg):
    state = make_photon_state(reg, [[(ModeLabel("t", "H"), 1.0)]])
    assert state.amplitudes == {occ(reg, ModeLabel("t", "H")): 1.0 + 0j}


def test_double_occupation_is_normalized(reg):
    label = ModeLabel("c", "V")
    state = make_photon_state(reg, [[(label, 1.0)], [(label, 1.0)]])
    assert abs(state.amplitude(occ(reg, label, label)) - 1.0) < 1e-15
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_make_photon_state_rejects_bad_input(reg):
    with pytest.raises(ValueError):
        make_photon_state(reg, [[(ModeLabel("t", "H"), 0.5)]])
    with pytest.raises(ValueError):
        make_photon_state(reg, [[(ModeLabel("zzz", "H"), 1.0)]])


def test_ppbs_single_photon_split(reg):
    el = ppbs("p", "q", "p", "q", T)
    state = make_photon_state(reg, [[(ModeLabel("p", "V"), 1.0)]])
    out = apply_element(state, el)
    assert abs(out.amplitude(occ(reg, ModeLabel("p", "V"))) - T) < 1e-15
    assert abs(abs(out.amplitude(occ(reg, ModeLabel("q", "V")))) - R) < 1e-15


def test_identity_element_is_noop(reg):
    el = linear_element("ID", (("p", "H"), ("p", "V")), (("p", "H"), ("p", "V")), np.eye(2))
    state = make_photon_state(
        reg, [[(ModeLabel("p", "H"), 0.6), (ModeLabel("p", "V"), 0.8)]]
    )
    out = apply_element(state, el)
    assert out.amplitudes == pytest.approx(state.amplitudes)


def test_two_photon_coincidence_is_permanent(reg):
    el = ppbs("p", "q", "p", "q", T)
    state = make_photon_state(
        reg, [[(ModeLabel("p", "V"), 1.0)], [(ModeLabel("q", "V"), 1.0)]]
    )
    out = apply_element(state, el)
    coincidence = out.amplitude(occ(reg, ModeLabel("p", "V"), ModeLabel("q", "V")))
    v_block = el.matrix[2:, 2:]
    assert abs(coincidence - brute_permanent(v_block)) < 1e-15
    assert abs(coincidence + 1.0 / 3.0) < 1e-15


def test_permanent_and_bunching_amplitudes_random():
    rng = np.random.default_rng(7)
    reg2 = ModeRegistry(("a", "b"))
    for _ in range(20):
        m = random_unitary(rng, 2)
        el = linear_element("U", (("a", "V"), ("b", "V")), (("a", "V"), ("b", "V")), m)
        state = make_photon_state(
            reg2, [[(ModeLabel("a", "V"), 1.0)], [(ModeLabel("b", "V"), 1.0)]]
        )
        out = apply_element(state, el)
        one_each = out.amplitude(occ(reg2, ModeLabel("a", "V"), ModeLabel("b", "V")))
        both_a = out.amplitude(occ(reg2, ModeLabel("a", "V"), ModeLabel("a", "V")))
        assert abs(one_each - brute_permanent(m)) < 1e-12
        assert abs(both_a - SQ2 * m[0, 0] * m[0, 1]) < 1e-12


def test_unitary_preserves_norm_on_random_three_photon_states():
    rng = np.random.default_rng(11)
    reg3 = ModeRegistry(("a", "b", "c"))
    labels = [ModeLabel(p, pol) for p in ("a", "b", "c") for pol in ("H", "V")]
    for _ in range(10):
        photons = []
        for _ in range(3):
            amps = rng.normal(size=6) + 1j * rng.normal(size=6)
            amps /= np.linalg.norm(amps)
            photons.append(list(zip(labels, amps)))
        state = make_photon_state(reg3, photons)
        m = random_unitary(rng, 4)
        el = linear_element(
            "U4",
            (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V")),
            (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V")),
            m,
        )
        out = apply_element(state, el)
        assert abs(out.norm_sq() - state.norm_sq()) < 1e-12


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
            [(ModeLabel("a", "V"), 0.8), (ModeLabel("b", "V"), 0.6)],
            [(ModeLabel("b", "V"), 1.0)],
        ],
    )
    seq = apply_element(apply_element(state, e1), e2)
    combined = apply_element(state, e21)
    keys = set(seq.amplitudes) | set(combined.amplitudes)
    for key in keys:
        assert abs(seq.amplitude(key) - combined.amplitude(key)) < 1e-12


def test_post_select_basic_counts(reg):
    state = make_photon_state(
        reg,
        [
            [(ModeLabel("p", "H"), 1 / SQ2), (ModeLabel("q", "H"), 1 / SQ2)],
            [(ModeLabel("t", "V"), 1.0)],
        ],
    )
    kept, prob = post_select(state, {"p": 1, "t": 1})
    assert abs(prob - 0.5) < 1e-12
    assert len(kept.amplitudes) == 1
    full, prob_full = post_select(
        make_photon_state(reg, [[(ModeLabel("t", "V"), 1.0)]]), {"t": 1}
    )
    assert abs(prob_full - 1.0) < 1e-12
    assert len(full.amplitudes) == 1


def test_post_select_probabilities_sum_to_norm():
    rng = np.random.default_rng(17)
    reg3 = ModeRegistry(("a", "b", "c"))
    labels = [ModeLabel(p, pol) for p in ("a", "b", "c") for pol in ("H", "V")]
    photons = []
    for _ in range(3):
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        photons.append(list(zip(labels, amps)))
    state = make_photon_state(reg3, photons)
    total = 0.0
    for na in range(4):
        for nb in range(4 - na):
            nc = 3 - na - nb
            _, p = post_select(state, {"a": na, "b": nb, "c": nc})
            total += p
    assert abs(total - state.norm_sq()) < 1e-12


def test_post_select_rejects_bad_patterns(reg):
    state = make_photon_state(reg, [[(ModeLabel("t", "H"), 1.0)]])
    with pytest.raises(ValueError):
        post_select(state, {"nope": 1})
    with pytest.raises(ValueError):
        post_select(state, {"t": 2})


def test_project_detector_program_factor(reg):
    phi = 1.1
    state = make_photon_state(
        reg,
        [[(ModeLabel("p", "H"), 1 / SQ2), (ModeLabel("p", "V"), -np.exp(1j * phi) / SQ2)]],
    )
    reduced, prob = project_detector(state, "p", (1 / SQ2, 1 / SQ2))
    factor = (1 - np.exp(1j * phi)) / 2
    assert abs(reduced.amplitude(()) - factor) < 1e-12
    assert abs(prob - abs(factor) ** 2) < 1e-12


def test_project_detector_aligned_and_orthogonal(reg):
    pure_h = make_photon_state(reg, [[(ModeLabel("p", "H"), 1.0)]])
    reduced, prob = project_detector(pure_h, "p", (1.0, 0.0))
    assert abs(reduced.amplitude(()) - 1.0) < 1e-15
    assert abs(prob - 1.0) < 1e-12
    diag = make_photon_state(
        reg, [[(ModeLabel("p", "H"), 1 / SQ2), (ModeLabel("p", "V"), 1 / SQ2)]]
    )
    _, prob_perp = project_detector(diag, "p", (1 / SQ2, -1 / SQ2))
    assert prob_perp < 1e-24


def test_project_detector_requires_single_photon(reg):
    label = ModeLabel("p", "V")
    state = make_photon_state(reg, [[(label, 1.0)], [(label, 1.0)]])
    with pytest.raises(ValueError):
        project_detector(state, "p", (1.0, 0.0))


def test_two_qubit_amplitudes_reads_single_term(reg):
    amp = 0.3 - 0.4j
    state = amp * make_photon_state(
        reg, [[(ModeLabel("t", "H"), 1.0)], [(ModeLabel("c", "H"), 1.0)]]
    )
    vec = two_qubit_amplitudes(state, "t", "c")
    assert np.allclose(vec, [amp, 0, 0, 0], atol=1e-15, rtol=0)


def test_two_qubit_amplitudes_rejects_residual(reg):
    state = make_photon_state(
        reg, [[(ModeLabel("t", "H"), 1.0)], [(ModeLabel("q", "H"), 1.0)]]
    )
    with pytest.raises(ValueError):
        two_qubit_amplitudes(state, "t", "c")


def test_operations_are_linear():
    rng = np.random.default_rng(23)
    reg2 = ModeRegistry(("a", "b"))
    chans = (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V"))
    labels = [ModeLabel(p, pol) for p in ("a", "b") for pol in ("H", "V")]
    m = random_unitary(rng, 4)
    el = linear_element("U", chans, chans, m)
    for _ in range(5):
        states = []
        for _ in range(2):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            photons = [list(zip(labels, amps)), [(ModeLabel("b", "V"), 1.0)]]
            states.append(make_photon_state(reg2, photons))
        alpha, beta = 0.6 + 0.1j, -0.3 + 0.7j
        combo = alpha * states[0] + beta * states[1]
        out_combo = apply_element(combo, el)
        out_parts = alpha * apply_element(states[0], el) + beta * apply_element(states[1], el)
        keys = set(out_combo.amplitudes) | set(out_parts.amplitudes)
        for key in keys:
            assert abs(out_combo.amplitude(key) - out_parts.amplitude(key)) < 1e-12


def test_projection_operations_are_linear():
    rng = np.random.default_rng(29)
    reg2 = ModeRegistry(("a", "b"))
    labels = [ModeLabel(p, pol) for p in ("a", "b") for pol in ("H", "V")]

    def random_state():
        photons = []
        for _ in range(2):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            photons.append(list(zip(labels, amps)))
        return make_photon_state(reg2, photons)

    s1, s2 = random_state(), random_state()
    alpha, beta = 0.4 - 0.3j, 0.2 + 0.6j
    combo = alpha * s1 + beta * s2
    sel_combo, _ = post_select(combo, {"a": 1, "b": 1})
    sel_parts = alpha * post_select(s1, {"a": 1, "b": 1})[0] + beta * post_select(s2, {"a": 1, "b": 1})[0]
    for key in set(sel_combo.amplitudes) | set(sel_parts.amplitudes):
        assert abs(sel_combo.amplitude(key) - sel_parts.amplitude(key)) < 1e-12
    ket = (1 / SQ2, 1 / SQ2)
    det_combo, _ = project_detector(sel_combo, "a", ket)
    det_parts = (
        alpha * project_detector(post_select(s1, {"a": 1, "b": 1})[0], "a", ket)[0]
        + beta * project_detector(post_select(s2, {"a": 1, "b": 1})[0], "a", ket)[0]
    )
    for key in set(det_combo.amplitudes) | set(det_parts.amplitudes):
        assert abs(det_combo.amplitude(key) - det_parts.amplitude(key)) < 1e-12


def test_subunitary_element_rejected():
    with pytest.raises(ValueError):
        linear_element("BAD", (("a", "H"),), (("a", "H"),), np.array([[1.5]]))


def test_fock_state_occupation_invariant():
    reg1 = ModeRegistry(("a",))
    with pytest.raises(ValueError):
        FockState(reg1, 2, {((0, 1),): 1.0})


NON_FINITE = [float("nan"), float("inf"), complex(0.0, float("nan"))]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_make_photon_state_rejects_non_finite_amplitudes(reg, bad):
    with pytest.raises(ValueError, match="squared norm"):
        make_photon_state(reg, [[(ModeLabel("t", "H"), bad)]])
    with pytest.raises(ValueError, match="squared norm"):
        make_photon_state(reg, [[(ModeLabel("t", "H"), 1.0), (ModeLabel("t", "V"), bad)]])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_pruning_raises_on_non_finite_amplitudes(reg, bad):
    kept = occ(reg, ModeLabel("t", "H"))
    state = FockState(reg, 1, {kept: 1.0, occ(reg, ModeLabel("t", "V")): bad})
    with pytest.raises(ValueError, match="non-finite"):
        state.pruned()
    tiny = FockState(reg, 1, {kept: 1.0, occ(reg, ModeLabel("q", "V")): 1e-20})
    assert tiny.pruned().amplitudes == {kept: 1.0 + 0j}


@pytest.mark.parametrize("bad", NON_FINITE)
def test_project_detector_rejects_non_finite_ket(reg, bad):
    state = make_photon_state(reg, [[(ModeLabel("p", "H"), 1.0)]])
    with pytest.raises(ValueError, match="normalized"):
        project_detector(state, "p", (bad, 0.0))
    with pytest.raises(ValueError, match="normalized"):
        project_detector(state, "p", (1.0, bad))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_gate_input_kets_reject_non_finite_amplitudes(bad):
    from lopcsim import builtin_basic, prepare_inputs

    nl = builtin_basic()
    with pytest.raises(ValueError, match="target ket"):
        prepare_inputs(nl, (bad, 0.0), (1.0, 0.0), 0.3)
    with pytest.raises(ValueError, match="control ket"):
        prepare_inputs(nl, (1.0, 0.0), (1.0, bad), 0.3)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_linear_element_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        linear_element("BAD", (("a", "H"),), (("a", "H"),), np.array([[bad]]))
