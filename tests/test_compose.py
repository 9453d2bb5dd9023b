"""The compile path of ``CompiledCircuit`` against its references.

Compiling applies each element to the rows of a running transfer matrix and
takes ``program_operators`` from one batch of permanents.  The references
are the products with ``fock.embed`` and the eight basis inputs run one by
one through ``CompiledCircuit.run``: they must agree bit for bit on the
built-in layouts and to 1e-15 on random element chains.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lopcsim import CompiledCircuit, builtin_variant
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.fock import POLS, ModeLabel, embed, make_photon_state
from lopcsim.netlist import CircuitNetlist, MeasurementOutcome, MeasurementRule, Ports

from .test_fock_properties import KIND_LISTS, LOSSY_PARAMS, PHASE, REGISTRY, SETTINGS

VARIANTS = ("basic", "ff", "dual", "full")


def embedded_rows(netlist):
    """``CompiledCircuit.rows`` from each outcome's chain composed with ``fock.embed``."""
    registry = netlist.registry()

    def modes(path):
        return [registry.index(ModeLabel(path, pol)) for pol in POLS]

    def compose(chain, transfer):
        for spec in chain:
            transfer = embed(spec.element, registry) @ transfer
        return transfer

    before = compose(netlist.stages[: netlist.measure_after], np.eye(len(registry)))
    rows = []
    for outcome in netlist.measurement.outcomes:
        correction = (netlist.correction(outcome.correct),) if outcome.correct else ()
        transfer = compose(correction + netlist.stages[netlist.measure_after:], before)
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
        photons = [[(ModeLabel(path, POLS[bit]), 1.0 + 0j)] for path, bit in wiring]
        state = make_photon_state(circuit.registry, photons)
        ops[p, :, :, 2 * t + c] = [branch.amplitudes for branch in circuit.run(state)]
    return ops


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_equal_the_embedded_products_bit_for_bit(variant):
    circuit = CompiledCircuit(builtin_variant(variant))
    assert np.array_equal(circuit.rows, embedded_rows(circuit.netlist))


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
    assert np.max(np.abs(circuit.rows - embedded_rows(circuit.netlist))) <= 1e-15
    assert np.max(np.abs(circuit.program_operators - run_operators(circuit))) <= 1e-15
