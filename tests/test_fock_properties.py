"""Property tests of the permanent engine over random element chains.

Chains of one to four elements are built through ``ElementSpec`` from the
kinds of ``lopcsim.elements.KINDS`` and applied to random inputs of one to
three photons over three paths, each input an occupation given as its list
of modes (a mode may repeat, so bunched inputs are drawn too).  The
engine's amplitude of every output occupation, a permanent of the transfer
matrix on the output rows and input columns over sqrt(prod n! prod m!),
must agree with the dense reference of ``tests/dense_reference.py``.  A
beam splitter's output paths are a permutation of its input paths, so
every element acts on the whole mode space as its matrix says: unitary
elements must keep the squared norm, and filters (and subunitary Jones
maps) may only lower it.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopcsim.elements import KINDS, ElementSpec
from lopcsim.fock import permanents

from . import dense_reference
from .test_elements import allclose_unitary

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
PATHS = ("a", "b", "c")
SIZE = len(dense_reference.modes(PATHS))
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


#: Parameters of each kind over a range wider than the one it accepts.
WIDE = st.floats(-1.0, 2.0)
WIDE_PARAMS = {
    "pbs": st.just(()),
    "ppbs": st.tuples(WIDE),
    "hwp": st.tuples(st.floats(-1e6, 1e6)),
    "jones": st.tuples(*[st.builds(cmath.rect, st.floats(0.0, 2.0), PHASE)] * 4),
    "filter": st.tuples(WIDE, WIDE),
    "phaseflip": st.just(()),
}


def test_every_kind_has_parameter_strategies():
    assert set(UNITARY_PARAMS) == set(LOSSY_PARAMS) == set(WIDE_PARAMS) == set(KINDS)


@SETTINGS
@pytest.mark.parametrize("kind_name", sorted(KINDS))
@given(st.data())
def test_every_built_matrix_is_subunitary(kind_name, data):
    """Each kind's ``matrix`` is the one check of its range: whatever it is
    given, it raises ValueError or returns no singular value above 1 + 1e-12."""
    paths = ("a", "b", "c", "d")[: sum(n for _, n in KINDS[kind_name].ports)]
    spec = ElementSpec(kind_name, "X", paths, data.draw(WIDE_PARAMS[kind_name]))
    try:
        matrix = spec.build()
    except ValueError:
        return
    assert np.linalg.svd(matrix, compute_uv=False)[0] <= 1.0 + 1e-12


@st.composite
def chains(draw, params, kinds):
    """Specs of the given kinds, in order, on random paths."""
    specs = []
    for i, kind_name in enumerate(kinds):
        kind = KINDS[kind_name]
        paths = draw(st.permutations(PATHS))
        if sum(n for _, n in kind.ports) == 1:
            wiring = paths[:1]
        else:
            wiring = paths[:2] + draw(st.permutations(paths[:2]))
        specs.append(ElementSpec(kind_name, f"E{i}", tuple(wiring), draw(params[kind_name])))
    return specs


#: One to three photons, as the sorted list of their input modes.
INPUTS = st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=3).map(sorted)
KIND_LISTS = st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4)


def bunching(modes):
    """prod n! over the occupation numbers n of a mode list."""
    return math.prod(math.factorial(modes.count(m)) for m in set(modes))


def engine_output(modes, transfer):
    """Engine amplitude of every output occupation, keyed by its sorted modes,
    from one ``permanents`` call over all of them."""
    keys = list(itertools.combinations_with_replacement(range(len(transfer)), len(modes)))
    amps = permanents(transfer[np.array(keys)][..., modes])
    norms = np.sqrt([bunching(list(key)) * bunching(modes) for key in keys])
    return dict(zip(keys, amps / norms))


def norm_sq(modes, transfer):
    return float(sum(abs(a) ** 2 for a in engine_output(modes, transfer).values()))


def composed(chain):
    """Transfer matrix of each prefix of ``chain``, shortest first."""
    u = np.eye(SIZE, dtype=complex)
    prefixes = []
    for spec in chain:
        u = dense_reference.transfer(PATHS, [spec]) @ u
        prefixes.append(u)
    return prefixes


@SETTINGS
@given(INPUTS, st.data())
def test_engine_matches_dense_reference(modes, data):
    chain = data.draw(chains(LOSSY_PARAMS, data.draw(KIND_LISTS)))
    u = dense_reference.transfer(PATHS, chain)
    evolved = dense_reference.evolve(dense_reference.tensor(SIZE, modes), u)
    for outs, amp in engine_output(modes, composed(chain)[-1]).items():
        assert abs(amp - dense_reference.amplitude(evolved, outs)) <= 1e-12


@SETTINGS
@given(INPUTS, st.data())
def test_unitary_chains_keep_the_norm(modes, data):
    chain = data.draw(chains(UNITARY_PARAMS, data.draw(KIND_LISTS)))
    assert all(allclose_unitary(spec.element) for spec in chain)
    assert abs(norm_sq(modes, composed(chain)[-1]) - 1.0) <= 1e-12


@SETTINGS
@given(INPUTS, st.data())
def test_chains_with_a_filter_never_raise_the_norm(modes, data):
    others = data.draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=3))
    kinds = data.draw(st.permutations(others + ["filter"]))
    before = 1.0
    for transfer in composed(data.draw(chains(LOSSY_PARAMS, kinds))):
        after = norm_sq(modes, transfer)
        assert after <= before + 1e-12
        before = after
