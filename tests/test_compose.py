"""The compile path of ``CompiledCircuit`` against its references.

Compiling applies each element to the rows of a running transfer matrix on
the six input columns and takes ``program_operators`` from one batch of
permanents.  The rows must equal the products of each outcome's element
chain from ``tests/dense_reference.transfer``, which embeds every element
in the whole mode space, on those six columns: bit for bit on the built-in
layouts and to 1e-15 on random element chains.  ``program_operators``, and
``run`` on random entangled inputs, must agree to 1e-12 with ``dense_run``:
the three-photon ket evolved by the dense reference, with no permanent and
no compiled row, on the built-in layouts, ``full`` without its
corrections, detuned layouts, random element chains and a netlist whose
target light reaches its port only through a feed-forward correction.

Where light goes is checked against the same dense prefixes, on random
netlists whose splitters may send light anywhere and whose filters and
Jones maps may be drawn down to 0.  An element may not send light onto a
path that is already lit: a rejection for that names the first element,
in compile order, that merges, and is reported before anything else.
Otherwise a netlist compiles exactly when no outcome's final prefix is
exactly 0 on an input's block (target input to the target outputs,
control input to the control output, program input to the detector
path), and the rejection names every such block of every outcome.  Every
prefix of a compiled netlist is a contraction on the six input modes.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopcsim import CompiledCircuit, NetlistValidationError, builtin_variant, parse, validate
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.fock import POLS
from lopcsim.netlist import CircuitNetlist, MeasurementOutcome, MeasurementRule, Ports

from . import dense_reference
from .test_compiled import NETLISTS
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


def input_columns(netlist):
    """The six input modes, in port order: the target, control and program
    input paths, H then V on each."""
    registry, ports = netlist.registry(), netlist.ports
    return [
        registry.channel_index[path, pol]
        for path in (ports.target_in, ports.control_in, ports.program_in)
        for pol in POLS
    ]


def reference_rows(netlist):
    """``CompiledCircuit.rows`` from ``dense_reference.transfer`` of each
    outcome's chain, over every mode: the compiled rows are its
    ``input_columns``."""
    registry = netlist.registry()

    def modes(path):
        return [registry.channel_index[path, pol] for pol in POLS]

    rows = []
    for outcome, chain in outcome_chains(netlist):
        transfer = dense_reference.transfer(registry, chain)
        detector = np.conj(outcome.ket) @ transfer[modes(netlist.measurement.path)]
        control = transfer[modes(netlist.ports.control_out)]
        for port in netlist.ports.target_out:
            target = transfer[modes(port)]
            rows.append([[target[t], control[c], detector] for t, c in np.ndindex(2, 2)])
    return np.array(rows)


def dense_run(netlist, psi):
    """What ``CompiledCircuit.run`` gives for ``psi`` (indexed [t, c, p]), from
    the dense reference: the three-photon ket evolved by each outcome's
    chain, read on the target port and control output modes of each
    polarization and on the detector modes contracted with the conjugated
    outcome ket, one row per (outcome, target port)."""
    registry, ports = netlist.registry(), netlist.ports
    size = len(registry)

    def mode(path, bit):
        return registry.channel_index[path, POLS[bit]]

    ket = sum(
        psi[t, c, p] * dense_reference.tensor(
            size, [mode(ports.target_in, t), mode(ports.control_in, c), mode(ports.program_in, p)]
        )
        for t, c, p in np.ndindex(2, 2, 2)
    )
    rows = []
    for outcome, chain in outcome_chains(netlist):
        evolved = dense_reference.evolve(ket, dense_reference.transfer(registry, chain))
        for port in ports.target_out:
            rows.append([
                sum(
                    np.conj(amp) * dense_reference.amplitude(
                        evolved,
                        [mode(port, t), mode(ports.control_out, c), mode(netlist.measurement.path, d)],
                    )
                    for d, amp in enumerate(outcome.ket)
                )
                for t, c in np.ndindex(2, 2)
            ])
    return np.array(rows)


def dense_operators(netlist):
    """``program_operators`` from ``dense_run`` of the eight basis inputs."""
    ops = []
    for p, t, c in np.ndindex(2, 2, 2):
        basis = np.zeros((2, 2, 2))
        basis[t, c, p] = 1.0
        ops.append(dense_run(netlist, basis))
    # (p, t, c, branches, 4) -> (p, branches, 4, 2t+c)
    return np.moveaxis(np.reshape(ops, (2, 4) + ops[0].shape), 1, -1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_equal_the_embedded_products_bit_for_bit(variant):
    circuit = CompiledCircuit(builtin_variant(variant))
    reference = reference_rows(circuit.netlist)[..., input_columns(circuit.netlist)]
    assert np.array_equal(circuit.rows, reference)


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_program_operators_match_the_dense_reference(name):
    circuit = CompiledCircuit(NETLISTS[name])
    assert np.max(np.abs(circuit.program_operators - dense_operators(circuit.netlist))) <= 1e-12


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_run_matches_the_dense_reference_on_entangled_inputs(name):
    circuit = CompiledCircuit(NETLISTS[name])
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(20):
        psi = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(circuit.run(psi) - dense_run(circuit.netlist, psi))) <= 1e-12


#: Seven paths, one outcome: the target input's only route to T_OUT is the
#: splitter FF, the outcome's feed-forward correction.
VIA_CORRECTION_LOPC = """\
path t_in
path c_in
path p_in
path x
path d
path T_OUT
path C_OUT
hwp HT path=t_in angle=22.5
hwp HC path=c_in angle=22.5
pbs PC in=c_in,x out=C_OUT,x
pbs PP in=p_in,x out=d,x
pbs FF in=t_in,x out=T_OUT,x
measure path=d outcome D ket=0.6,0.8 correct=FF
postselect T_OUT=1 C_OUT=1 d=1
ports target_in=t_in control_in=c_in program_in=p_in target_out=T_OUT control_out=C_OUT
"""


def test_light_that_reaches_its_port_through_a_correction_compiles():
    netlist = parse(VIA_CORRECTION_LOPC)
    assert [spec.name for spec in netlist.corrections] == ["FF"]
    operators = CompiledCircuit(netlist).program_operators
    assert np.max(np.abs(operators - dense_operators(netlist))) <= 1e-12
    assert np.abs(operators).max() > 0.1


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
    its inputs, so no light merges onto a lit path: it compiles unless an
    input's light is filtered out or routed off its path."""
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
    netlist = netlist_of(chain, paths, angle, outcomes)
    dead = dead_blocks(netlist)
    try:
        circuit = CompiledCircuit(netlist)
    except NetlistValidationError as err:
        assert dead and err.diagnostics == dead
        return
    assert dead == []
    reference = reference_rows(netlist)[..., input_columns(netlist)]
    assert np.max(np.abs(circuit.rows - reference)) <= 1e-15
    assert np.max(np.abs(circuit.program_operators - dense_operators(netlist))) <= 1e-12



@pytest.mark.parametrize("kind, params", [("pbs", ()), ("ppbs", (0.6,))])
def test_a_splitter_whose_inputs_are_its_outputs_matches_the_references(kind, params):
    """``in=a,b out=a,b`` has the same input and output rows, but four of
    them on two paths: it is composed through its rows, not one path's."""
    plates = [ElementSpec("hwp", f"H{path}", (path,), (22.5,)) for path in ("a", "b")]
    chain = [*plates, ElementSpec(kind, "S", ("a", "b", "a", "b"), params)]
    netlist = netlist_of(chain, ("a", "b", "c"), 0.3, 2)
    circuit = CompiledCircuit(netlist)
    reference = reference_rows(netlist)[..., input_columns(netlist)]
    assert np.max(np.abs(circuit.rows - reference)) <= 1e-15
    assert np.max(np.abs(circuit.program_operators - dense_operators(netlist))) <= 1e-12


def bits(array):
    """The bit patterns of a complex array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("variant", VARIANTS)
def test_compiling_twice_gives_the_same_bits_and_leaves_the_elements_as_they_were(variant):
    """Down to the sign of each zero, which ``np.array_equal`` does not see:
    the rows are also those of the dense reference."""
    netlist = builtin_variant(variant)
    specs = netlist.stages + netlist.corrections
    matrices = [bits(spec.element.matrix).copy() for spec in specs]
    first, second = CompiledCircuit(netlist), CompiledCircuit(netlist)
    assert np.array_equal(bits(first.rows), bits(second.rows))
    reference = reference_rows(netlist)[..., input_columns(netlist)]
    assert np.array_equal(bits(first.rows), bits(reference))
    assert np.array_equal(bits(first.program_operators), bits(second.program_operators))
    for spec, matrix in zip(specs, matrices):
        assert np.array_equal(bits(spec.element.matrix), matrix)

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
    inputs = input_columns(netlist)
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
            lit = {ch[0] for ch in onto if np.abs(prefix[registry.channel_index[ch]]).max() > DARK}
            if lit:
                return element.name, lit
    return None


def dead_blocks(netlist):
    """The diagnostics that compiling must give for the blocks of each
    outcome's final dense prefix that are exactly 0: the target input's
    columns on the target outputs, the control input's on the control
    output, the program input's on the detector path."""
    registry, ports = netlist.registry(), netlist.ports
    goals = [
        (ports.target_out, "target input does not reach any target output"),
        ((ports.control_out,), "control input does not reach the control output"),
        ((netlist.measurement.path,), "program input does not reach the detector path"),
    ]
    found = []
    for outcome, (_, prefixes) in zip(netlist.measurement.outcomes, reference_prefixes(netlist)):
        for k, (paths, message) in enumerate(goals):
            rows = [registry.channel_index[path, pol] for path in paths for pol in POLS]
            if not prefixes[-1][rows, 2 * k:2 * k + 2].any():
                found.append(f"outcome {outcome.label!r}: {message}")
    return found


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
    each input reaches by a walk over the splitters that ignores
    polarization, every element's matrix and the correction, and renamed
    to ``PORT_PATHS``; the measurement follows the last stage on the
    detector path, and one outcome's feed-forward correction acts on the
    other paths.  So the netlist validates, and whether it merges light onto
    a lit path, or (through a filter or a Jones map drawn down to 0, or a
    splitter that routes a polarization away) leaves an input dead, is left
    to the draw.

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
    merge, dead = first_merge(netlist), dead_blocks(netlist)
    try:
        CompiledCircuit(netlist)
    except NetlistValidationError as err:
        if merge is None:  # a merge is reported before any dead input
            assert dead and err.diagnostics == dead
        else:
            (diagnostic,) = err.diagnostics
            name, path = MERGED.fullmatch(diagnostic).groups()
            assert merge[0] == name and path in merge[1]
    else:
        assert merge is None and dead == []
        assert_contractive_prefixes(netlist)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_shipped_layouts_pass_the_merge_property(variant):
    netlist = builtin_variant(variant)
    assert first_merge(netlist) is None and dead_blocks(netlist) == []
    CompiledCircuit(netlist)
    assert_contractive_prefixes(netlist)
