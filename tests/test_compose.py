"""The compile path of ``CompiledCircuit`` against its references.

Compiling applies each element to the rows of a running transfer matrix and
takes ``program_operators`` from one batch of permanents.  The references
are the products of each outcome's element chain from
``tests/dense_reference.transfer``, which embeds every element in the whole
mode space, and the eight basis inputs run one by one through
``CompiledCircuit.run``: they must agree bit for bit on the built-in
layouts and to 1e-15 on random element chains.

The merge guard (an element may not send light onto a path that is already
lit) is checked against the same dense prefixes, on random netlists whose
splitters may send light anywhere: a netlist compiles exactly when no
prefix lights a path that its next element sends light onto, every prefix
of a compiled netlist is a contraction on the six input modes, and a
rejection names the first element, in compile order, that merges.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopcsim import CompiledCircuit, NetlistValidationError, builtin_variant, validate
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.fock import POLS, make_photon_state
from lopcsim.netlist import CircuitNetlist, MeasurementOutcome, MeasurementRule, Ports

from . import dense_reference
from .test_elements import allclose_unitary
from .test_fock_properties import (
    KIND_LISTS,
    LOSSY_PARAMS,
    PHASE,
    REGISTRY,
    SETTINGS,
    TRANSMISSION,
)

VARIANTS = ("basic", "ff", "dual", "full")


def outcome_chains(netlist):
    """Each measurement outcome with its element chain: the stages before the
    measurement point, the outcome's correction (if any), then the rest."""
    before, after = netlist.stages[: netlist.measure_after], netlist.stages[netlist.measure_after:]
    for outcome in netlist.measurement.outcomes:
        correction = (netlist.correction(outcome.correct),) if outcome.correct else ()
        yield outcome, [spec.element for spec in before + correction + after]


def reference_rows(netlist):
    """``CompiledCircuit.rows`` from ``dense_reference.transfer`` of each outcome's chain."""
    registry = netlist.registry()

    def modes(path):
        return [registry.index((path, pol)) for pol in POLS]

    rows = []
    for outcome, chain in outcome_chains(netlist):
        transfer = dense_reference.transfer(registry, chain)
        detector = np.conj(outcome.ket) @ transfer[modes(netlist.measurement.path)]
        control = transfer[modes(netlist.ports.control_out)]
        for port in netlist.ports.target_out:
            target = transfer[modes(port)]
            rows.append([[target[t], control[c], detector] for t, c in np.ndindex(2, 2)])
    return np.array(rows)


def run_operators(circuit):
    """``program_operators`` from the eight basis inputs, each one ``run``."""
    ports = circuit.netlist.ports
    ops = np.zeros((2, len(circuit.branch_keys), 4, 4), dtype=complex)
    for p, t, c in np.ndindex(2, 2, 2):
        wiring = ((ports.target_in, t), (ports.control_in, c), (ports.program_in, p))
        photons = [[((path, POLS[bit]), 1.0 + 0j)] for path, bit in wiring]
        state = make_photon_state(circuit.registry, photons)
        ops[p, :, :, 2 * t + c] = [branch.amplitudes for branch in circuit.run(state)]
    return ops


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_equal_the_embedded_products_bit_for_bit(variant):
    circuit = CompiledCircuit(builtin_variant(variant))
    assert np.array_equal(circuit.rows, reference_rows(circuit.netlist))


@pytest.mark.parametrize("variant", VARIANTS)
def test_program_operators_equal_the_eight_basis_runs_bit_for_bit(variant):
    circuit = CompiledCircuit(builtin_variant(variant))
    assert np.array_equal(circuit.program_operators, run_operators(circuit))


@st.composite
def spec_chains(draw):
    """Specs of the elements that ``test_fock_properties.chains`` builds:
    kinds, wiring and lossy parameters drawn alike."""
    specs = []
    for i, kind_name in enumerate(draw(KIND_LISTS)):
        paths = draw(st.permutations(REGISTRY.paths))
        if sum(n for _, n in KINDS[kind_name].ports) == 1:
            wiring = paths[:1]
        else:
            wiring = paths[:2] + draw(st.permutations(paths[:2]))
        specs.append(ElementSpec(kind_name, f"E{i}", tuple(wiring), draw(LOSSY_PARAMS[kind_name])))
    return specs


def netlist_of(chain, paths, angle, outcomes):
    """``chain``, then a measurement of the program photon's path with
    ``outcomes`` orthonormal kets; ``paths`` are the target, control and
    program photon's input and output paths.  A splitter's outputs permute
    its inputs, so every path reaches itself and no light merges onto a lit
    path: it compiles."""
    a, b, c = paths
    cos, sin = complex(math.cos(angle)), complex(math.sin(angle))
    kets = [(cos, sin), (-sin, cos)][:outcomes]
    return CircuitNetlist(
        paths=REGISTRY.paths,
        stages=tuple(chain),
        corrections=(),
        measurement=MeasurementRule(
            c, tuple(MeasurementOutcome(f"D{i}", ket) for i, ket in enumerate(kets))
        ),
        measure_after=len(chain),
        postselect=((a, 1), (b, 1), (c, 1)),
        ports=Ports(a, b, c, (a,), b),
    )


@SETTINGS
@given(spec_chains(), st.permutations(REGISTRY.paths), PHASE, st.integers(1, 2))
def test_compile_path_matches_the_references_on_random_chains(chain, paths, angle, outcomes):
    circuit = CompiledCircuit(netlist_of(chain, paths, angle, outcomes))
    assert np.max(np.abs(circuit.rows - reference_rows(circuit.netlist))) <= 1e-15
    assert np.max(np.abs(circuit.program_operators - run_operators(circuit))) <= 1e-15


#: Largest magnitude from an input mode that leaves a path dark: the guard's
#: documented 1e-12, kept apart from ``gates.DARK_TOL`` so that the property
#: also checks that constant.
DARK = 1e-12
#: The shipped layouts' port paths: the three inputs, then the target and
#: control outputs and the detector path.
PORT_PATHS = ("t_in", "c_in", "p_in", "T_OUT", "C_OUT", "d")
SPLITTERS = ("pbs", "ppbs")
#: Filter transmissivities down to 1e-10, so that dim light meets the guard.
FAINT = st.floats(1e-10, 1e-4)
DIM = st.one_of(TRANSMISSION, FAINT)
NETLIST_PARAMS = {**LOSSY_PARAMS, "filter": st.tuples(DIM, DIM)}
MERGED = re.compile(r"(\w+): sends light onto an already-lit path \((\w+)\)")


def reference_prefixes(netlist):
    """Each outcome's element chain with its dense prefixes on the six input
    columns, the empty one first: prefix k is what element k acts on."""
    registry = netlist.registry()
    ports = netlist.ports
    inputs = [
        registry.index((path, pol))
        for path in (ports.target_in, ports.control_in, ports.program_in)
        for pol in POLS
    ]
    for _, chain in outcome_chains(netlist):
        transfer = np.eye(len(registry), dtype=complex)
        prefixes = [transfer[:, inputs]]
        for element in chain:
            transfer = dense_reference.transfer(registry, [element]) @ transfer
            prefixes.append(transfer[:, inputs])
        yield chain, prefixes


def first_merge(netlist):
    """(name, lit paths) of the first element, in compile order, that sends
    light onto a lit path it does not take as input; None if none does."""
    registry = netlist.registry()
    for chain, prefixes in reference_prefixes(netlist):
        for element, prefix in zip(chain, prefixes):
            onto = [ch for ch in element.channels_out if ch not in element.channels_in]
            lit = {ch[0] for ch in onto if np.abs(prefix[registry.index(ch)]).max() > DARK}
            if lit:
                return element.name, lit
    return None


def assert_contractive_prefixes(netlist):
    """Every prefix V, on the input columns, has I - V†V positive
    semidefinite; it is an isometry while every element so far is unitary."""
    for chain, prefixes in reference_prefixes(netlist):
        unitary = [allclose_unitary(element) for element in chain]
        for k, v in enumerate(prefixes[1:], 1):
            gram = v.conj().T @ v
            assert np.linalg.eigvalsh(np.eye(6) - gram).min() >= -1e-12
            if all(unitary[:k]):
                assert np.max(np.abs(gram - np.eye(6))) <= 1e-12


@st.composite
def gate_netlists(draw):
    """A netlist over 6-10 paths with the shipped layouts' ports, whose
    splitters take any two paths in and send them onto their own two paths
    or, one time in four, onto any two paths.

    The stages are drawn first.  The ports are then picked among the paths
    each input reaches through the splitters, as ``validate`` traces a
    photon, and renamed to ``PORT_PATHS``; the measurement follows the last
    stage on the detector path, and one outcome's feed-forward correction
    acts on the other paths.  So the netlist validates, and whether it
    merges light onto a lit path is left to the draw.

    One time in four, two planted stages come first: a filter dims an input
    path to amplitudes of 1e-10 to 1e-4, then a splitter sends two dark
    output paths onto it.  That first merge is onto light that the guard's
    1e-12 sees and a looser tolerance (such as 1e-3) would miss."""
    paths = [f"x{i}" for i in range(draw(st.integers(6, 10)))]

    def element(name, among):
        pair = st.lists(st.sampled_from(among), min_size=2, max_size=2, unique=True)
        kind = draw(st.sampled_from(sorted(KINDS) + [*SPLITTERS] * 4))
        if kind in SPLITTERS:
            ins = draw(pair)
            wiring = ins + draw(pair if draw(st.integers(0, 3)) == 0 else st.permutations(ins))
        else:
            wiring = [draw(st.sampled_from(among))]
        return ElementSpec(kind, name, tuple(wiring), draw(NETLIST_PARAMS[kind]))

    stages = [element(f"E{i}", paths) for i in range(draw(st.integers(3, 9)))]

    def reach(start):
        reached = {start}
        for spec in stages:
            if spec.kind in SPLITTERS and reached & set(spec.paths[:2]):
                reached = (reached - set(spec.paths[:2])) | set(spec.paths[2:])
        return reached

    # each input, then its output among the paths it reaches, all six distinct
    inputs, outputs = [], []
    for _ in range(3):
        taken = set(inputs + outputs)
        starts = [p for p in paths if p not in taken and reach(p) - taken - {p}]
        assume(starts)
        inputs.append(draw(st.sampled_from(starts)))
        outputs.append(draw(st.sampled_from(sorted(reach(inputs[-1]) - taken - {inputs[-1]}))))
    name = dict(zip(inputs + outputs, PORT_PATHS))
    stages = [replace(spec, paths=tuple(name.get(p, p) for p in spec.paths)) for spec in stages]
    if draw(st.integers(0, 3)) == 0:
        dim = draw(st.sampled_from(PORT_PATHS[:3]))
        dark = draw(st.lists(st.sampled_from(PORT_PATHS[3:]), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(SPLITTERS))
        stages[:0] = [
            ElementSpec("filter", "DIM", (dim,), draw(st.tuples(FAINT, FAINT))),
            ElementSpec(kind, "ONTO", (*dark, dim, dark[0]), draw(NETLIST_PARAMS[kind])),
        ]
    correction = element("FF", [name.get(p, p) for p in paths if name.get(p, p) != "d"])
    last = max((i for i, spec in enumerate(stages) if "d" in spec.paths), default=-1)
    angle = draw(PHASE)
    cos, sin = complex(math.cos(angle)), complex(math.sin(angle))
    kets = [(cos, sin), (-sin, cos)][: draw(st.integers(1, 2))]
    outcomes = [MeasurementOutcome(f"D{i}", ket) for i, ket in enumerate(kets)]
    outcomes[-1] = replace(outcomes[-1], correct="FF")
    return CircuitNetlist(
        paths=tuple(name.get(p, p) for p in paths),
        stages=tuple(stages),
        corrections=(correction,),
        measurement=MeasurementRule("d", tuple(outcomes)),
        measure_after=draw(st.integers(last + 1, len(stages))),
        postselect=(("T_OUT", 1), ("C_OUT", 1), ("d", 1)),
        ports=Ports("t_in", "c_in", "p_in", ("T_OUT",), "C_OUT"),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gate_netlists())
def test_the_merge_guard_agrees_with_the_dense_reference(netlist):
    assert validate(netlist) == []
    merge = first_merge(netlist)
    try:
        CompiledCircuit(netlist)
    except NetlistValidationError as err:
        (diagnostic,) = err.diagnostics
        name, path = MERGED.fullmatch(diagnostic).groups()
        assert merge is not None and merge[0] == name and path in merge[1]
    else:
        assert merge is None
        assert_contractive_prefixes(netlist)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_shipped_layouts_pass_the_merge_property(variant):
    netlist = builtin_variant(variant)
    assert first_merge(netlist) is None
    CompiledCircuit(netlist)
    assert_contractive_prefixes(netlist)
