"""Netlist execution: branch enumeration, conditional-gate assembly, scoring.

Feed-forward is simulated by exhaustive branch enumeration: every detector
outcome is kept with its exact amplitude, no sampling anywhere.  A branch is
one (detector outcome, accepted target output port) combination together
with the conditional two-qubit state it leaves behind.

A ``CompiledCircuit`` validates a netlist and builds its elements once.  A
phase grid then costs eight evolutions in total, not four per phase: the
program photon enters as (|H> - e^{i phi}|V>)/sqrt(2) and everything after
it is linear, so each branch operator is (G_H - e^{i phi} G_V)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .elements import ppbs
from .fock import (
    H,
    V,
    FockState,
    ModeLabel,
    ModeRegistry,
    apply_element,
    make_photon_state,
    post_select,
    project_detector,
    two_qubit_amplitudes,
)
from .netlist import CircuitNetlist, NetlistValidationError, validate

_SQ2 = math.sqrt(2.0)

#: Polarization kets for the logical basis: |0> = H, |1> = V.
BASIS_KETS = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
#: Largest entry-wise deviation of a branch operator from the primary one
#: (after removing the global phase between them) that still counts as equal.
BRANCH_TOL = 1e-10
#: Largest off-diagonal magnitude of a branch operator that counts as zero.
DIAG_TOL = 1e-12


def ideal_cphase(phi) -> np.ndarray:
    """The target two-qubit operation: phase e^{i phi} on |11> only.

    An array of phases gives a stack of operators, shape (..., 4, 4).
    """
    phi = np.asarray(phi, dtype=float)
    ops = np.zeros(phi.shape + (4, 4), dtype=complex)
    ops[..., [0, 1, 2], [0, 1, 2]] = 1.0
    ops[..., 3, 3] = np.exp(1j * phi)
    return ops


@dataclass(frozen=True, eq=False)
class Branch:
    """One accepted (detector outcome, target output port) branch.

    From ``CompiledCircuit.run``, ``amplitudes`` is the conditional state of
    one input, shape (4,) over |00>, |01>, |10>, |11> (target, control), and
    ``probability`` its squared norm.  In ``ConditionalGateReport.branches``
    it is the conditional operator, shape (4, 4), whose column 2t+c is what
    ``run`` gives for the basis input |tc>; ``probability`` is then the one
    for input |00>.
    """

    outcome: str
    port: str
    amplitudes: np.ndarray
    probability: float

    @property
    def label(self) -> str:
        return f"{self.outcome}:{self.port}"


@dataclass(frozen=True, eq=False)
class ConditionalGateReport:
    """Assembled conditional gate and its scores against the ideal operation.

    ``gate`` is the raw conditional operator of the primary branch (first
    declared outcome on the first target output port).  ``branch_consistent``
    records whether every accepted branch equals the primary one up to a
    global phase within ``BRANCH_TOL``; the dual-output layouts legitimately
    fail this because the second port carries an extra pi on |11>.
    ``diagonal`` records whether every off-diagonal entry of every branch
    operator is within ``DIAG_TOL`` of zero.
    """

    phi: float
    gate: np.ndarray
    p_success: float
    fidelity: float
    branches: tuple[Branch, ...]
    branch_consistent: bool
    diagonal: bool


def _check_phases(phis) -> np.ndarray:
    values = np.asarray(phis, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("phase grid must not be empty")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"phase must be a finite number, got {float(bad[0])!r}")
    return values


def _product_input(
    netlist: CircuitNetlist,
    target_ket: Sequence[complex],
    control_ket: Sequence[complex],
    program_ket: Sequence[complex],
) -> FockState:
    for name, ket in (("target", target_ket), ("control", control_ket)):
        if len(ket) != 2 or not abs(sum(abs(c) ** 2 for c in ket) - 1.0) <= 1e-12:
            raise ValueError(f"{name} ket must be a normalized 2-component vector")
    ports = netlist.ports
    photons = [
        [(ModeLabel(path, pol), complex(amp)) for pol, amp in zip((H, V), ket)]
        for path, ket in (
            (ports.target_in, target_ket),
            (ports.control_in, control_ket),
            (ports.program_in, program_ket),
        )
    ]
    return make_photon_state(netlist.registry(), photons)


def prepare_inputs(
    netlist: CircuitNetlist,
    target_ket: Sequence[complex],
    control_ket: Sequence[complex],
    phi: float,
) -> FockState:
    """Three-photon product input: target and control qubits plus the
    phase-programming photon (|H> - e^{i phi}|V>)/sqrt(2)."""
    (phi,) = _check_phases([phi])
    program = (1.0 / _SQ2 + 0j, -np.exp(1j * phi) / _SQ2)
    return _product_input(netlist, target_ket, control_ket, program)


class CompiledCircuit:
    """A netlist validated once, with every element built once.

    ``validate`` builds each element through ``ElementSpec.element``, which
    keeps the built element on the spec, so compiling reuses those builds.

    Holds the built stages on either side of the measurement point, the
    correction of each detector outcome and the post-selection pattern of
    each target output port, so any number of inputs and phases can run
    without repeating that work.  Keep the object to reuse it; nothing is
    cached anywhere else.
    """

    def __init__(self, netlist: CircuitNetlist):
        diagnostics = validate(netlist)
        if diagnostics:
            raise NetlistValidationError(diagnostics)
        self.netlist = netlist
        built = [spec.element for spec in netlist.stages]
        self.before = tuple(built[: netlist.measure_after])
        self.after = tuple(built[netlist.measure_after:])
        self.outcomes = tuple(
            (outcome, netlist.correction(outcome.correct).element if outcome.correct else None)
            for outcome in netlist.measurement.outcomes
        )
        target_ports = netlist.ports.target_out
        base = [(p, n) for p, n in netlist.postselect if p not in target_ports]
        self.patterns = tuple((port, dict(base + [(port, 1)])) for port in target_ports)
        #: (outcome label, port) of every branch, in the order run() emits them.
        self.branch_keys = tuple(
            (outcome.label, port) for outcome, _ in self.outcomes for port in target_ports
        )

    def run(self, state: FockState) -> list[Branch]:
        """Evolve one prepared input and enumerate all branches.

        Stages run in order up to the measurement point; each detector
        outcome forks there, applies its feed-forward correction (if any),
        runs the remaining stages, then post-selects one photon on each
        accepted output port, projects the detector photon onto the outcome
        ket and reads off the conditional two-qubit amplitudes.
        Probabilities are exact.
        """
        nl = self.netlist
        if state.photon_number != nl.postselect_total():
            raise ValueError(
                f"input holds {state.photon_number} photons, "
                f"post-selection expects {nl.postselect_total()}"
            )
        mid = state
        for element in self.before:
            mid = apply_element(mid, element)
        branches: list[Branch] = []
        for outcome, correction in self.outcomes:
            branch_state = mid if correction is None else apply_element(mid, correction)
            for element in self.after:
                branch_state = apply_element(branch_state, element)
            for port, pattern in self.patterns:
                selected, _ = post_select(branch_state, pattern)
                detected, _ = project_detector(selected, nl.measurement.path, outcome.ket)
                amps = two_qubit_amplitudes(detected, port, nl.ports.control_out)
                probability = float(np.sum(np.abs(amps) ** 2))
                branches.append(Branch(outcome.label, port, amps, probability))
        return branches

    @cached_property
    def program_operators(self) -> np.ndarray:
        """Branch operators with the program photon in |H> and in |V>.

        Shape (2, branches, 4, 4): eight evolutions, the four basis inputs
        with each program polarization.  Everything after the program photon
        is prepared is linear in it, so the operator of every branch at
        phase phi is (G_H - e^{i phi} G_V)/sqrt(2).
        """
        ops = np.zeros((2, len(self.branch_keys), 4, 4), dtype=complex)
        for p, program in enumerate(BASIS_KETS):
            for t_bit in (0, 1):
                for c_bit in (0, 1):
                    state = _product_input(
                        self.netlist, BASIS_KETS[t_bit], BASIS_KETS[c_bit], program
                    )
                    for b, branch in enumerate(self.run(state)):
                        ops[p, b, :, 2 * t_bit + c_bit] = branch.amplitudes
        return ops

    def evaluate(self, phi_grid: Sequence[float]) -> list[ConditionalGateReport]:
        """Assemble and score the conditional gate at every phase of the grid.

        One report per phase, in grid order.  Every branch operator of the
        grid comes from one broadcast over ``program_operators``; the scores
        and tolerances are those documented on ``ConditionalGateReport``.
        """
        phis = _check_phases(phi_grid)
        g_h, g_v = self.program_operators
        ops = (g_h - np.exp(1j * phis)[:, None, None, None] * g_v) / _SQ2
        probs = np.sum(np.abs(ops[..., 0]) ** 2, axis=-1)  # |00> column, (phase, branch)
        p_success = np.sum(probs, axis=1)
        primary = ops[:, 0]
        fidelities = fidelity(primary, phis)

        flat = ops.reshape(len(phis), len(self.branch_keys), 16)
        ref_idx = np.argmax(np.abs(flat[:, 0]), axis=1)
        at_ref = np.take_along_axis(flat, ref_idx[:, None, None], axis=2)[..., 0]
        # global phase taking the primary operator onto each branch
        ratio = at_ref * at_ref[:, :1].conj()
        mag = np.abs(ratio)
        phase = np.divide(ratio, mag, out=np.ones_like(ratio), where=mag > 0)
        deviation = np.max(np.abs(flat - phase[..., None] * flat[:, :1]), axis=2)
        consistent = np.all(deviation <= BRANCH_TOL, axis=1)
        off_diagonal = np.max(np.abs(ops[..., ~np.eye(4, dtype=bool)]), axis=2)
        diagonal = np.all(off_diagonal <= DIAG_TOL, axis=1)

        reports = []
        for k, phi in enumerate(phis):
            branches = tuple(
                Branch(o, p, ops[k, b], float(probs[k, b]))
                for b, (o, p) in enumerate(self.branch_keys)
            )
            reports.append(
                ConditionalGateReport(
                    phi=float(phi),
                    gate=branches[0].amplitudes,
                    p_success=float(p_success[k]),
                    fidelity=float(fidelities[k]),
                    branches=branches,
                    branch_consistent=bool(consistent[k]),
                    diagonal=bool(diagonal[k]),
                )
            )
        return reports


def run(netlist: CircuitNetlist, state: FockState) -> list[Branch]:
    """Execute a netlist on a prepared input and enumerate all branches
    (see ``CompiledCircuit.run``)."""
    return CompiledCircuit(netlist).run(state)


def fidelity(gate: np.ndarray, phi):
    """Overlap |Tr(G† U)|^2 / (4 Tr(G† G)) with U = diag(1, 1, 1, e^{i phi}).

    Equals 1 exactly when G is proportional to the ideal operation.  A stack
    of gates (..., 4, 4) with matching phases gives an array of overlaps.
    """
    g = np.asarray(gate, dtype=complex)
    denom = np.sum(np.abs(g) ** 2, axis=(-2, -1))
    if np.any(denom == 0.0):
        raise ValueError("fidelity of the zero operator is undefined")
    overlap = np.sum(g.conj() * ideal_cphase(phi), axis=(-2, -1))
    result = np.abs(overlap) ** 2 / (4.0 * denom)
    return float(result) if result.ndim == 0 else result


def conditional_gate(netlist: CircuitNetlist, phi: float) -> ConditionalGateReport:
    """Assemble the conditional operator per branch at one phase and score it."""
    return CompiledCircuit(netlist).evaluate([phi])[0]


def success_probability(
    netlist: CircuitNetlist,
    target_ket: Sequence[complex],
    control_ket: Sequence[complex],
    phi: float,
) -> float:
    """Total accepted-branch probability for one product input."""
    state = prepare_inputs(netlist, target_ket, control_ket, phi)
    return float(sum(branch.probability for branch in run(netlist, state)))


def sweep_phi(netlist: CircuitNetlist, phi_grid: Sequence[float]) -> list[ConditionalGateReport]:
    """Evaluate the gate over a phase grid; one report per phase, in grid order."""
    return CompiledCircuit(netlist).evaluate(phi_grid)


def hom_scan(t_v: float, overlap_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Two-photon interference scan against wavepacket overlap.

    Two vertically polarized photons enter the two ports of a partially
    polarizing splitter; the second photon carries amplitude sqrt(v) in the
    shared wavepacket and sqrt(1-v) in an orthogonal one.  Returns the
    coincidence probability (one photon per output path, summed over
    wavepacket indices) for each overlap v, in grid order:
    P(v) = v (t^2 - r^2)^2 + (1 - v)(t^4 + r^4).

    A scan costs two evolutions whatever its length.  The input is linear in
    the second photon's amplitudes, and the splitter and the post-selection
    are linear too, so only the two basis inputs (second photon in wavepacket
    0, or in 1) are evolved and post-selected.  Every point is then one row
    of [sqrt(v), sqrt(1-v)] @ A, with A their post-selected amplitudes over
    the union of occupations; the cross terms are kept.
    """
    if not 0.0 < t_v < 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1), got {t_v}")
    overlaps = [float(v) for v in overlap_grid]
    for v in overlaps:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {v}")
    registry = ModeRegistry(("a", "b"), internal_count=2)
    splitter = ppbs("a", "b", "a", "b", t_v)
    selected = []
    for internal in (0, 1):
        photons = [[(ModeLabel("a", V, 0), 1.0 + 0j)], [(ModeLabel("b", V, internal), 1.0 + 0j)]]
        state = make_photon_state(registry, photons)
        kept, _ = post_select(apply_element(state, splitter), {"a": 1, "b": 1})
        selected.append(kept)
    keys = sorted(set().union(*(s.amplitudes for s in selected)))
    basis = np.array([[s.amplitude(key) for key in keys] for s in selected], dtype=complex)
    grid = np.array(overlaps, dtype=float)
    amps = np.stack([np.sqrt(grid), np.sqrt(1.0 - grid)], axis=1) @ basis
    probabilities = np.sum(np.abs(amps) ** 2, axis=1)
    return [(v, float(p)) for v, p in zip(overlaps, probabilities)]
