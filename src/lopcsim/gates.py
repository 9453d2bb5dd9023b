"""Netlist execution: branch enumeration, conditional-gate assembly, scoring.

Feed-forward is simulated by exhaustive branch enumeration: every detector
outcome is kept with its exact amplitude, no sampling anywhere.  A branch is
one (detector outcome, accepted target output port) combination together
with the conditional two-qubit state it leaves behind.

A ``CompiledCircuit`` validates a netlist, builds its elements once and
composes them into one mode transfer matrix per detector outcome; a
branch amplitude is then one 3×3 permanent per input term.  A phase grid
costs eight runs in total, not four per phase: the program photon enters
as (|H> - e^{i phi}|V>)/sqrt(2) and everything after it is linear, so each
branch operator is (G_H - e^{i phi} G_V)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .elements import ElementSpec, ppbs
from .fock import (
    POLS,
    FockState,
    ModeLabel,
    coincidence_amplitudes,
    embed,
    make_photon_state,
    permanents,
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
#: Largest magnitude a stage prefix may put from any input mode onto a mode
#: that still counts as dark.
DARK_TOL = 1e-12


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
        [(ModeLabel(path, pol), complex(amp)) for pol, amp in zip(POLS, ket)]
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
    """A netlist validated once and reduced to one transfer matrix per outcome.

    ``validate`` builds each element through ``ElementSpec.element``, which
    keeps the built element on the spec, so compiling reuses those builds.

    Each element is embedded in the mode space of the netlist's paths and
    the stages are composed: those before the measurement point, then each
    detector outcome's feed-forward correction (if any), then the rest.  A
    branch (outcome, target output port) keeps three rows of its outcome's
    matrix for each of the four two-qubit outputs: the target port row of
    the target polarization, the control output row of the control
    polarization, and the detector rows contracted with the conjugated
    outcome ket.  Post-selection is implicit: only these coincidences are
    ever computed.

    Compiling also checks every stage prefix of every branch: the paths an
    element sends light onto but does not take as input must be dark (no
    amplitude above ``DARK_TOL`` from any of the six input modes), or the
    netlist merges light onto a path that is already lit and the first such
    element is reported.  Keep the object to reuse it; nothing is cached
    anywhere else.
    """

    def __init__(self, netlist: CircuitNetlist):
        diagnostics = validate(netlist)
        if diagnostics:
            raise NetlistValidationError(diagnostics)
        self.netlist = netlist
        self.registry = netlist.registry()
        ports = netlist.ports
        inputs = self._modes(ports.target_in, ports.control_in, ports.program_in)

        def compose(chain: Sequence[ElementSpec], transfer: np.ndarray) -> np.ndarray:
            for spec in chain:
                element = spec.element
                onto = [c for c in element.channels_out if c not in element.channels_in]
                modes = [self.registry.index(ModeLabel(path, pol)) for path, pol in onto]
                lit = np.max(np.abs(transfer[np.ix_(modes, inputs)]), axis=1, initial=0.0)
                if np.any(lit > DARK_TOL):
                    path = onto[int(np.argmax(lit))][0]
                    where = f"line {spec.line}: " if spec.line else ""
                    raise NetlistValidationError(
                        [f"{where}{spec.name}: sends light onto an already-lit path ({path})"]
                    )
                transfer = embed(element, self.registry) @ transfer
            return transfer

        before = compose(netlist.stages[: netlist.measure_after], np.eye(len(self.registry)))
        after = netlist.stages[netlist.measure_after:]
        rows = []
        for outcome in netlist.measurement.outcomes:
            correction = (netlist.correction(outcome.correct),) if outcome.correct else ()
            transfer = compose(correction + after, before)
            detector = np.conj(outcome.ket) @ transfer[self._modes(netlist.measurement.path)]
            control = transfer[self._modes(ports.control_out)]
            for port in ports.target_out:
                target = transfer[self._modes(port)]
                # (target pol, control pol, 3 rows) -> (4 outputs |tc>, 3 rows)
                triples = np.broadcast_arrays(target[:, None], control[None, :], detector)
                rows.append(np.stack(triples, axis=2).reshape(4, 3, -1))
        #: (branches, 4, 3, modes): the three output rows of each branch and output.
        self.rows = np.stack(rows)
        #: (outcome label, port) of every branch, in the order run() emits them.
        self.branch_keys = tuple(
            (outcome.label, port)
            for outcome in netlist.measurement.outcomes
            for port in ports.target_out
        )

    def _modes(self, *paths: str) -> list[int]:
        return [self.registry.index(ModeLabel(p, pol)) for p in paths for pol in POLS]

    def run(self, state: FockState) -> list[Branch]:
        """Enumerate all branches for one prepared input.

        Each branch amplitude is the coincidence amplitude of the target
        port, the control output and the detector in the outcome's
        polarization: one 3×3 permanent per input term.  Entangled inputs and
        inputs with several photons in one mode are covered alike.
        Probabilities are exact.
        """
        nl = self.netlist
        if state.photon_number != nl.postselect_total():
            raise ValueError(
                f"input holds {state.photon_number} photons, "
                f"post-selection expects {nl.postselect_total()}"
            )
        if state.registry != self.registry:
            raise ValueError(f"input is over {state.registry!r}, not the netlist's paths")
        amplitudes = coincidence_amplitudes(state, self.rows)
        return [
            Branch(outcome, port, amps, float(np.sum(np.abs(amps) ** 2)))
            for (outcome, port), amps in zip(self.branch_keys, amplitudes)
        ]

    @cached_property
    def program_operators(self) -> np.ndarray:
        """Branch operators with the program photon in |H> and in |V>.

        Shape (2, branches, 4, 4): eight runs, the four basis inputs
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
    polarizing splitter with wavepacket overlap v.  Returns the coincidence
    probability (one photon per output path) for each overlap, in grid
    order: with M the splitter's vertical block,
    P(v) = v |perm M|^2 + (1 - v) perm(|M|^2) = v (t^2 - r^2)^2 + (1 - v)(t^4 + r^4)
    (Tichy, arXiv:1410.7687).  The splitter is built once per scan.
    """
    if not 0.0 < t_v < 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1), got {t_v}")
    overlaps = [float(v) for v in overlap_grid]
    for v in overlaps:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {v}")
    block = ppbs("a", "b", "a", "b", t_v).matrix[2:, 2:]
    together = abs(permanents(block)) ** 2
    apart = permanents(abs(block) ** 2).real
    grid = np.array(overlaps, dtype=float)
    probabilities = grid * together + (1.0 - grid) * apart
    return [(v, float(p)) for v, p in zip(overlaps, probabilities)]
