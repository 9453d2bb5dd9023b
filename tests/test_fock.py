"""Elements and the permanent engine on small hand-checked cases.

Inputs and outputs are occupations given as lists of modes, one entry per
photon, so a mode listed twice holds two photons.  An output amplitude is
the permanent of the transfer matrix on the output rows and the input
columns, over sqrt(prod n! prod m!) (``engine_amplitude``), with transfer
matrices built by ``dense_reference.transfer``; a superposed input sums its
terms' amplitudes, post-selection is a sum over the output occupations it
keeps, and detection a row contracted with the conjugated outcome ket.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lopcsim import (
    CompiledCircuit,
    ElementSpec,
    NetlistValidationError,
    builtin_variant,
    permanents,
    validate,
)

from . import dense_reference
from .test_elements import element, element_spec
from .test_fock_properties import bunching, engine_output
from .test_gates import KET0, KET1, product_input

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


def modes(paths, *channels):
    index = dense_reference.modes(paths)
    return [index[channel] for channel in channels]


def engine_amplitude(transfer, ins, outs):
    """Amplitude of the output occupation ``outs`` for the input occupation
    ``ins``: perm(U[outs][:, ins]) / sqrt(prod n! prod m!)."""
    submatrix = transfer[np.ix_(np.asarray(outs, dtype=int), np.asarray(ins, dtype=int))]
    return permanents(submatrix) / math.sqrt(bunching(list(ins)) * bunching(list(outs)))


def superposed_output(terms, transfer):
    """``engine_output`` of a superposition, given as (mode list, amplitude) terms."""
    out = {}
    for ins, amp in terms:
        for key, a in engine_output(ins, transfer).items():
            out[key] = out.get(key, 0j) + amp * a
    return out


def kept_probability(paths, terms, transfer, pattern):
    """Probability of the output occupations whose per-path photon totals are ``pattern``."""
    channels = list(dense_reference.modes(paths))
    total = 0.0
    for outs, amp in superposed_output(terms, transfer).items():
        reached = [channels[m][0] for m in outs]
        if all(reached.count(p) == pattern.get(p, 0) for p in paths):
            total += abs(amp) ** 2
    return total


def detector_row(paths, path, ket):
    """The detector rows of ``path`` contracted with the conjugated ``ket``."""
    rows = np.eye(2 * len(paths), dtype=complex)[modes(paths, (path, "H"), (path, "V"))]
    return np.conj(ket) @ rows


def detected(rows, terms):
    """Amplitude of one photon in each of ``rows`` for a superposition of
    (mode list, amplitude) terms, each with distinct modes."""
    return sum(amp * permanents(rows[:, ins]) for ins, amp in terms)


@pytest.fixture
def paths():
    return ("p", "q", "t", "c")


def test_double_occupation_is_normalized(paths):
    # two photons in one mode: the dense ket has unit norm, and through the
    # identity both photons stay put with amplitude perm([[1, 1], [1, 1]]) / 2 = 1
    twice = modes(paths, ("c", "V"), ("c", "V"))
    ket = dense_reference.tensor(2 * len(paths), twice)
    assert abs(np.linalg.norm(ket) - 1.0) < 1e-15
    assert abs(engine_amplitude(np.eye(2 * len(paths)), twice, twice) - 1.0) < 1e-15
    assert abs(dense_reference.amplitude(ket, twice) - 1.0) < 1e-15


def test_ppbs_single_photon_split(paths):
    u = dense_reference.transfer(paths, [element_spec("ppbs", "p q p q", T)])
    p_v, q_v = modes(paths, ("p", "V"), ("q", "V"))
    assert abs(engine_amplitude(u, [p_v], [p_v]) - T) < 1e-15
    assert abs(abs(engine_amplitude(u, [p_v], [q_v])) - R) < 1e-15


def test_identity_element_is_noop(paths):
    u = dense_reference.transfer(paths, [element_spec("jones", "p", 1.0, 0.0, 0.0, 1.0)])
    assert np.array_equal(u, np.eye(2 * len(paths)))
    p_h, p_v = modes(paths, ("p", "H"), ("p", "V"))
    cases = [([([p_h], 0.6), ([p_v], 0.8)], {(p_h,): 0.6, (p_v,): 0.8})]
    cases += [([(ins, 1.0)], {tuple(ins): 1.0}) for ins in ([p_h, p_v], [p_v, p_v])]
    for terms, expected in cases:
        out = superposed_output(terms, u)
        assert {k: a for k, a in out.items() if abs(a) > 1e-15} == pytest.approx(expected)


def test_two_photon_coincidence_is_permanent(paths):
    el = element_spec("ppbs", "p q p q", T)
    one_each = modes(paths, ("p", "V"), ("q", "V"))
    coincidence = engine_amplitude(dense_reference.transfer(paths, [el]), one_each, one_each)
    v_block = el.element[2:, 2:]
    assert abs(coincidence - brute_permanent(v_block)) < 1e-15
    assert abs(coincidence + 1.0 / 3.0) < 1e-15


def test_permanent_and_bunching_amplitudes_random():
    rng = np.random.default_rng(7)
    a_v, b_v = modes(("a", "b"), ("a", "V"), ("b", "V"))
    for _ in range(20):
        m = random_unitary(rng, 2)
        u = dense_reference.embed(4, [a_v, b_v], [a_v, b_v], m)
        one_each = engine_amplitude(u, [a_v, b_v], [a_v, b_v])
        both_a = engine_amplitude(u, [a_v, b_v], [a_v, a_v])
        assert abs(one_each - brute_permanent(m)) < 1e-12
        assert abs(both_a - SQ2 * m[0, 0] * m[0, 1]) < 1e-12
        evolved = dense_reference.evolve(dense_reference.tensor(4, [a_v, b_v]), u)
        assert abs(both_a - dense_reference.amplitude(evolved, [a_v, a_v])) < 1e-12


def test_the_empty_permanent_is_one(paths):
    assert permanents(np.zeros((0, 0), dtype=complex)) == 1.0
    assert np.array_equal(permanents(np.zeros((2, 3, 0, 0))), np.ones((2, 3)))
    # no photon in, no photon out: the vacuum stays the vacuum
    assert engine_amplitude(np.eye(2 * len(paths)), [], []) == 1.0


@pytest.mark.parametrize("n", range(5))
def test_permanents_match_the_sum_over_permutations(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    got = permanents(stack)
    assert got.shape == (3,)
    for m, value in zip(stack, got):
        perms = itertools.permutations(range(n))
        expected = sum(math.prod(m[i, perm[i]] for i in range(n)) for perm in perms)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_unitary_preserves_norm_on_random_three_photon_states():
    rng = np.random.default_rng(11)
    for _ in range(10):
        ins = sorted(rng.integers(0, 6, size=3).tolist())  # repeats bunch over a, b and c
        m = random_unitary(rng, 4)  # on H and V of a and b
        out = engine_output(ins, dense_reference.embed(6, range(4), range(4), m))
        assert abs(sum(abs(a) ** 2 for a in out.values()) - 1.0) < 1e-12


def test_element_composition_matches_matrix_product():
    rng = np.random.default_rng(13)
    m1, m2 = random_unitary(rng, 2), random_unitary(rng, 2)
    chans = modes(("a", "b"), ("a", "V"), ("b", "V"))
    for ins in (chans, [chans[1]] * 2):
        # one element after the other in the dense reference, the product in the engine
        t = dense_reference.tensor(4, ins)
        for m in (m1, m2):
            t = dense_reference.evolve(t, dense_reference.embed(4, chans, chans, m))
        for outs, amp in engine_output(ins, dense_reference.embed(4, chans, chans, m2 @ m1)).items():
            assert abs(amp - dense_reference.amplitude(t, outs)) < 1e-12


def test_post_select_basic_counts(paths):
    p_h, q_h, t_v = modes(paths, ("p", "H"), ("q", "H"), ("t", "V"))
    # one photon split over p and q, one on t
    terms = [([p_h, t_v], 1 / SQ2), ([q_h, t_v], 1 / SQ2)]
    identity = np.eye(2 * len(paths), dtype=complex)
    assert abs(kept_probability(paths, terms, identity, {"p": 1, "t": 1}) - 0.5) < 1e-12
    assert abs(kept_probability(paths, [([t_v], 1.0)], identity, {"t": 1}) - 1.0) < 1e-12


def test_post_select_probabilities_sum_to_norm():
    rng = np.random.default_rng(17)
    abc = ("a", "b", "c")
    u = dense_reference.transfer(abc, [element_spec("ppbs", "a b b a", 0.4)])
    for _ in range(5):
        ins = sorted(rng.integers(0, 6, size=3).tolist())
        total = 0.0
        for na in range(4):
            for nb in range(4 - na):
                nc = 3 - na - nb
                total += kept_probability(abc, [(ins, 1.0)], u, {"a": na, "b": nb, "c": nc})
        assert abs(total - 1.0) < 1e-12


def test_project_detector_program_factor(paths):
    phi = 1.1
    p_h, p_v = modes(paths, ("p", "H"), ("p", "V"))
    program = [([p_h], 1 / SQ2), ([p_v], -np.exp(1j * phi) / SQ2)]
    amp = detected(detector_row(paths, "p", (1 / SQ2, 1 / SQ2))[None], program)
    factor = (1 - np.exp(1j * phi)) / 2
    assert abs(amp - factor) < 1e-12


def test_project_detector_aligned_and_orthogonal(paths):
    p_h, p_v = modes(paths, ("p", "H"), ("p", "V"))
    aligned = detected(detector_row(paths, "p", (1.0, 0.0))[None], [([p_h], 1.0)])
    assert abs(aligned - 1.0) < 1e-15
    diag = [([p_h], 1 / SQ2), ([p_v], 1 / SQ2)]
    perp = detected(detector_row(paths, "p", (1 / SQ2, -1 / SQ2))[None], diag)
    assert abs(perp) ** 2 < 1e-24


def test_project_detector_requires_single_photon(paths):
    # the detector row takes exactly one photon: two photons on its path
    # give no coincidence with any other mode
    twice = modes(paths, ("p", "V"), ("p", "V"))
    det = detector_row(paths, "p", (0.0, 1.0))
    other = np.eye(2 * len(paths), dtype=complex)[modes(paths, ("q", "V"))[0]]
    assert engine_amplitude(np.stack([det, other]), twice, [0, 1]) == 0


def test_two_qubit_amplitudes_reads_single_term():
    # each basis input |tc> of the diagonal gate lands on amplitude 2t+c only
    circuit = CompiledCircuit(builtin_variant("full"))
    kets = (KET0, KET1)
    for t in (0, 1):
        for c in (0, 1):
            for amplitudes in circuit.run(product_input(kets[t], kets[c], 0.7)):
                others = np.delete(amplitudes, 2 * t + c)
                assert abs(abs(amplitudes[2 * t + c]) - 1 / (4 * math.sqrt(3))) < 1e-12
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
    # the dense evolution of a superposition of occupations equals the same
    # superposition of the engine's amplitudes, bunched terms included
    rng = np.random.default_rng(23)
    m = random_unitary(rng, 4)
    u = dense_reference.embed(4, range(4), range(4), m)  # on H and V of paths a and b
    for _ in range(5):
        first, second = (sorted(rng.integers(0, 4, size=2).tolist()) for _ in range(2))
        alpha, beta = 0.6 + 0.1j, -0.3 + 0.7j
        combo = alpha * dense_reference.tensor(4, first) + beta * dense_reference.tensor(4, second)
        evolved = dense_reference.evolve(combo, u)
        for key, amp in superposed_output([(first, alpha), (second, beta)], u).items():
            assert abs(amp - dense_reference.amplitude(evolved, key)) < 1e-12


def test_projection_operations_are_linear():
    rng = np.random.default_rng(29)
    ab = ("a", "b")
    pairs = [[a, b] for a in modes(ab, ("a", "H"), ("a", "V"))
             for b in modes(ab, ("b", "H"), ("b", "V"))]
    first, second = (list(zip(pairs, rng.normal(size=4) + 1j * rng.normal(size=4)))
                     for _ in range(2))
    alpha, beta = 0.4 - 0.3j, 0.2 + 0.6j
    combo = [(ins, alpha * a) for ins, a in first] + [(ins, beta * a) for ins, a in second]
    # one photon detected on a in the diagonal ket, the other kept on b
    det = detector_row(ab, "a", (1 / SQ2, 1 / SQ2))
    b_rows = np.eye(4, dtype=complex)[modes(ab, ("b", "H"), ("b", "V"))]
    for b in b_rows:
        rows = np.stack([det, b])
        parts = alpha * detected(rows, first) + beta * detected(rows, second)
        assert abs(detected(rows, combo) - parts) < 1e-12


def test_subunitary_element_rejected():
    # only a jones matrix can come out above 1: its kind runs the one SVD
    with pytest.raises(ValueError, match=r"^matrix is not subunitary \(max singular value 2.0\)$"):
        element("jones", "a", 2.0, 0.0, 0.0, 1.0)
    # the boundary: a top singular value up to 1 + 1e-12 passes
    u = random_unitary(np.random.default_rng(11), 2)
    for excess, accepted in ((0.5e-12, True), (2e-12, False)):
        m = u @ np.diag([1.0 + excess, 1.0])
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(top - (1.0 + excess)) < 1e-14
        if accepted:
            assert np.array_equal(element("jones", "a", *m.ravel()), m)
        else:
            with pytest.raises(ValueError, match=r"^matrix .*\(max singular value (\S+)\)$") as err:
                element("jones", "a", *m.ravel())
            # the printed value shows the excess over the 1 + 1e-12 boundary
            printed = re.search(r"max singular value (\S+)\)$", str(err.value)).group(1)
            assert float(printed) == top and float(printed) > 1.0 + 1e-12


NON_FINITE = [float("nan"), float("inf"), complex(0.0, float("nan"))]


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
    circuit = CompiledCircuit(builtin_variant("basic"))
    for index in ((0, 0, 0), (1, 0, 1)):
        psi = np.zeros((2, 2, 2), dtype=complex)
        psi[0, 0, 0] = 1.0
        psi[index] = bad
        with pytest.raises(ValueError, match="^input has a non-finite amplitude$"):
            circuit.run(psi)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_element_specs_reject_non_finite_entries(bad):
    # a real field takes no imaginary part, finite or not; a complex one no non-finite part
    angle = "must be real, got nanj" if complex(bad).imag else f"is non-finite: {bad}"
    with pytest.raises(ValueError, match=f"^hwp angle {angle}$"):
        ElementSpec("hwp", "HWP", ("a",), (bad,)).build()
    for at in range(4):
        params = (0.5,) * at + (bad,) + (0.5,) * (3 - at)
        with pytest.raises(ValueError, match=f"^jones m is non-finite: {re.escape(str(bad))}$"):
            ElementSpec("jones", "J", ("a",), params).build()
