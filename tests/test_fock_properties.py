"""Property tests of the permanent engine over random element chains.

Chains of one to four elements are built through ``ElementSpec`` from the
kinds of ``lopcsim.elements.KINDS`` and applied to random one- to
three-photon states over three paths.  The engine's amplitude of every
output occupation must agree with the dense reference of
``tests/dense_reference.py``.  A beam splitter's output paths are a
permutation of its input paths, so every element acts on the whole mode
space as its matrix says: unitary elements must keep the squared norm, and
filters (and subunitary Jones maps) may only lower it.
"""

import cmath
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lopcsim.elements import KINDS, ElementSpec
from lopcsim.fock import ModeRegistry, coincidence_amplitudes, make_photon_state

from . import dense_reference
from .test_elements import allclose_unitary

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
REGISTRY = ModeRegistry(("a", "b", "c"))
PHASE = st.floats(-math.pi, math.pi)
#: Open unit interval: a legal ppbs tv.
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
#: Closed unit interval: a legal filter transmissivity.
TRANSMISSION = st.floats(0.0, 1.0)


@st.composite
def unitary_2x2(draw, scale=st.just(1.0)):
    """Row-major entries of s*U for a random unitary U and a drawn s."""
    t, a, b = draw(st.floats(0.0, math.pi)), draw(PHASE), draw(PHASE)
    s = cmath.rect(draw(scale), draw(PHASE))
    cos, sin = math.cos(t), math.sin(t)
    u = (cmath.rect(cos, a), cmath.rect(-sin, -b), cmath.rect(sin, b), cmath.rect(cos, -a))
    return tuple(s * entry for entry in u)


#: Parameters of each kind that make its element unitary.
UNITARY_PARAMS = {
    "pbs": st.just(()),
    "ppbs": st.tuples(UNIT),
    "hwp": st.tuples(st.floats(-360.0, 360.0)),
    "jones": unitary_2x2(),
    "filter": st.just((1.0, 1.0)),
    "phaseflip": st.just(()),
}
#: Parameters of each kind over its whole legal (subunitary) range.
LOSSY_PARAMS = {
    **UNITARY_PARAMS,
    "jones": unitary_2x2(scale=TRANSMISSION),
    "filter": st.tuples(TRANSMISSION, TRANSMISSION),
}


def test_every_kind_has_parameter_strategies():
    assert set(UNITARY_PARAMS) == set(LOSSY_PARAMS) == set(KINDS)


@st.composite
def chains(draw, params, kinds):
    """Built elements of the given kinds, in order, on random paths."""
    built = []
    for i, kind_name in enumerate(kinds):
        kind = KINDS[kind_name]
        paths = draw(st.permutations(REGISTRY.paths))
        if sum(n for _, n in kind.ports) == 1:
            wiring = paths[:1]
        else:
            wiring = paths[:2] + draw(st.permutations(paths[:2]))
        spec = ElementSpec(kind_name, f"E{i}", tuple(wiring), draw(params[kind_name]))
        built.append(spec.build())
    return built


@st.composite
def states(draw):
    """One to three photons, each a normalized superposition of 1-3 modes."""
    photons = []
    for _ in range(draw(st.integers(1, 3))):
        modes = st.lists(st.sampled_from(list(REGISTRY.channel_index)), min_size=1, max_size=3,
                         unique=True)
        channels = draw(modes)
        amps = [cmath.rect(draw(st.floats(0.1, 1.0)), draw(PHASE)) for _ in channels]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        photons.append([(channel, a / norm) for channel, a in zip(channels, amps)])
    return make_photon_state(REGISTRY, photons)


KIND_LISTS = st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4)


def engine_output(state, transfer):
    """Engine amplitude of every output occupation, keyed by its sorted modes.

    One ``coincidence_amplitudes`` call over all multisets of output modes,
    divided by sqrt(prod m!) for the repeated ones.
    """
    keys = list(itertools.combinations_with_replacement(range(len(state.registry)),
                                                        state.photon_number))
    amps = coincidence_amplitudes(state, transfer[np.array(keys)])
    bunching = [math.prod(math.factorial(key.count(m)) for m in set(key)) for key in keys]
    return dict(zip(keys, amps / np.sqrt(bunching)))


def norm_sq(state, transfer):
    return float(sum(abs(a) ** 2 for a in engine_output(state, transfer).values()))


def composed(chain):
    """Transfer matrix of each prefix of ``chain``, shortest first."""
    u = np.eye(len(REGISTRY), dtype=complex)
    prefixes = []
    for element in chain:
        u = dense_reference.transfer(REGISTRY, [element]) @ u
        prefixes.append(u)
    return prefixes


@SETTINGS
@given(states(), st.data())
def test_engine_matches_dense_reference(state, data):
    chain = data.draw(chains(LOSSY_PARAMS, data.draw(KIND_LISTS)))
    u = dense_reference.transfer(REGISTRY, chain)
    evolved = dense_reference.evolve(dense_reference.tensor(state), u)
    for modes, amp in engine_output(state, composed(chain)[-1]).items():
        assert abs(amp - dense_reference.amplitude(evolved, modes)) <= 1e-12


@SETTINGS
@given(states(), st.data())
def test_unitary_chains_keep_the_norm(state, data):
    chain = data.draw(chains(UNITARY_PARAMS, data.draw(KIND_LISTS)))
    assert all(allclose_unitary(element) for element in chain)
    assert abs(norm_sq(state, composed(chain)[-1]) - state.norm_sq()) <= 1e-12


@SETTINGS
@given(states(), st.data())
def test_chains_with_a_filter_never_raise_the_norm(state, data):
    others = data.draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=3))
    kinds = data.draw(st.permutations(others + ["filter"]))
    before = state.norm_sq()
    for transfer in composed(data.draw(chains(LOSSY_PARAMS, kinds))):
        after = norm_sq(state, transfer)
        assert after <= before + 1e-12
        before = after
