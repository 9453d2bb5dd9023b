"""Netlist execution: branch enumeration, conditional-gate assembly, scoring.

Feed-forward is simulated by exhaustive branch enumeration: every detector
outcome is kept with its exact amplitude, no sampling anywhere.  A branch is
one (detector outcome, accepted target output port) combination together
with the conditional two-qubit state it leaves behind.

A ``CompiledCircuit`` validates a netlist, builds its elements once and
composes them into one transfer matrix on the six input modes per detector
outcome, its rows the H and V modes of each path in the netlist's path
order; that is where it checks that light goes where it should.  Its
branch amplitudes for the eight basis inputs (four two-qubit inputs,
program photon H or V) are one batch of 3×3 permanents.  Everything after
the input is linear, so any input, a (2, 2, 2) array of amplitudes over
the three photons' polarizations, is one contraction with them, and a
phase grid costs nothing more: the program photon enters as
(|H> - e^{i phi}|V>)/sqrt(2), so each branch operator is
(G_H - e^{i phi} G_V)/sqrt(2).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import KINDS, ElementSpec
from .fock import permanents
from .netlist import CircuitNetlist, NetlistValidationError, _where, validate

_SQ2 = math.sqrt(2.0)

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
class GateGrid:
    """The conditional gate scored over a phase grid, one array per field.

    ``ops`` is (phases, branches, 4, 4): the conditional operator of each
    branch, in ``branch_keys`` order, whose column 2t+c is what
    ``CompiledCircuit.run`` gives for the basis input |tc> with the program
    photon (|H> - e^{i phi}|V>)/sqrt(2).  The primary branch is the first,
    the first declared outcome on the first target output port;
    ``fidelity`` scores its operator against the ideal operation.
    ``probabilities`` (phases, branches) is each branch's probability for
    the input |00> (its operator's first column), and ``p_success`` their
    sum.  ``phis`` and the scores hold one entry per phase.  No command asks
    whether the branches agree or are diagonal, so no field says; ``ops``
    answers both.
    """

    phis: np.ndarray
    ops: np.ndarray
    probabilities: np.ndarray
    p_success: np.ndarray
    fidelity: np.ndarray
    branch_keys: tuple[tuple[str, str], ...]


def _check_phases(phis) -> np.ndarray:
    values = np.asarray(phis, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("phase grid must not be empty")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"phase must be a finite number, got {float(bad[0])!r}")
    return values


class CompiledCircuit:
    """A netlist validated once and reduced to one transfer matrix per outcome.

    ``validate`` builds each element's matrix through ``ElementSpec.element``,
    which keeps it on the spec, so compiling reuses those builds.

    This class is the one place that lays out the modes, in the netlist's
    path order: path p's H row is twice its place in ``netlist.paths``, its
    V row the next.  The stages act on the rows of a transfer matrix from
    the six input modes (target, control, program; H then V): those before
    the measurement point, then the correction each detector outcome
    carries (if any), then the rest.  An element's input rows, times its
    matrix, replace them and are added onto its output rows: the product
    with the element embedded in the whole mode space, without building
    that embedding; ``tests/dense_reference.transfer`` builds it as the
    reference.  Each stage's rows are worked out once per compile, and the
    plan of the stages after the measurement point serves every outcome; a
    one-path element acts in place on its path's two adjacent rows.  A
    branch (outcome, target output port) keeps three rows of its outcome's
    matrix for each of the four two-qubit outputs: the target port row of
    the target polarization, the control output row of the control
    polarization, and the detector rows contracted with the conjugated
    outcome ket.  Post-selection is implicit: only these coincidences are
    ever computed.

    Compiling is the one check of where light goes.  In every stage prefix,
    the paths an element sends light onto but does not take as input must
    be dark (no amplitude above ``DARK_TOL``), or the first element that
    merges light onto a lit path is reported.  Then, per outcome, the block
    of the transfer from the target input to the target outputs, from the
    control input to the control output or from the program input to the
    detector path is dead if no entry is non-zero, and every dead block of
    every outcome is reported at once.  Keep the object to reuse it: apart
    from each ``ElementSpec``'s own build (and so the built-in layouts,
    which ``builtin_variant`` parses once), nothing of a circuit is cached
    anywhere else.
    """

    def __init__(self, netlist: CircuitNetlist):
        diagnostics = validate(netlist)
        if diagnostics:
            raise NetlistValidationError(diagnostics)
        self.netlist = netlist
        ports, paths = netlist.ports, netlist.paths
        inputs = self._modes(ports.target_in, ports.control_in, ports.program_in)

        def plan(chain: Sequence[ElementSpec]) -> list:
            """(spec, matrix, input rows, output rows, onto rows) of each stage.  A
            one-path element acts on its path's H and V rows, given as one slice
            and no output or onto rows; a splitter (a, b, t, r) takes the rows
            (a H, b H, a V, b V) onto (t H, r H, t V, r V)."""
            steps = []
            for spec in chain:
                h = [2 * paths.index(p) for p in spec.paths]  # each path's H row
                if len(h) == 1:
                    steps.append((spec, spec.element, slice(h[0], h[0] + 2), None, None))
                    continue
                a, b, t, r = h
                ins, outs = [a, b, a + 1, b + 1], [t, r, t + 1, r + 1]
                steps.append((spec, spec.element, ins, outs, [o for o in outs if o not in ins]))
            return steps

        def compose(steps: list, transfer: np.ndarray) -> np.ndarray:
            transfer = transfer.copy()
            for spec, matrix, ins, outs, onto in steps:
                if outs is None:  # 0.0 + moved, as below, so no -0.0 is stored
                    view = transfer[ins]
                    np.add(matrix @ view, 0.0, out=view)
                    continue
                if onto and np.abs(transfer[onto]).max() > DARK_TOL:
                    lit = np.abs(transfer[onto]).max(axis=1)
                    path = paths[onto[int(np.argmax(lit))] // 2]
                    message = f"sends light onto an already-lit path ({path})"
                    raise NetlistValidationError([f"{_where(spec)}{spec.name}: {message}"])
                moved = matrix @ transfer[ins]
                transfer[ins] = 0.0
                transfer[outs] += moved
            return transfer

        before = compose(plan(netlist.stages[: netlist.measure_after]),
                         np.eye(2 * len(paths), dtype=complex)[:, inputs])
        after = plan(netlist.stages[netlist.measure_after:])
        control = self._modes(ports.control_out)
        detector = self._modes(netlist.measurement.path)
        blocks = (  # the output rows that input k's columns 2k and 2k + 1 must reach
            (self._modes(*ports.target_out), "target input does not reach any target output"),
            (control, "control input does not reach the control output"),
            (detector, "program input does not reach the detector path"),
        )
        # per target port and output |tc>: target row t, control row c and
        # the detector row, appended after the transfer matrix's last row
        picks = [
            [(target[t], control[c], 2 * len(paths)) for t, c in np.ndindex(2, 2)]
            for target in map(self._modes, ports.target_out)
        ]
        rows, dead = [], []
        for outcome in netlist.measurement.outcomes:
            correction = plan([outcome.correct]) if outcome.correct else []
            transfer = compose(correction + after, before)
            dead += [f"outcome {outcome.label!r}: {message}" for k, (out, message)
                     in enumerate(blocks) if not transfer[out, 2 * k:2 * k + 2].any()]
            measured = np.conj(outcome.ket) @ transfer[detector]
            rows.append(np.vstack([transfer, measured])[picks])
        if dead:
            raise NetlistValidationError(dead)
        #: (branches, 4, 3, 6): the three output rows of each branch and output.
        self.rows = np.concatenate(rows)
        #: (outcome label, port) of every branch, in the order run() emits them.
        self.branch_keys = tuple(
            (outcome.label, port)
            for outcome in netlist.measurement.outcomes
            for port in ports.target_out
        )

    def _modes(self, *paths: str) -> list[int]:
        """The H and V rows of each path in turn (see the class docstring)."""
        return [2 * self.netlist.paths.index(p) + pol for p in paths for pol in (0, 1)]

    def run(self, psi: np.ndarray) -> np.ndarray:
        """Every branch's conditional two-qubit state for one input.

        ``psi`` is a (2, 2, 2) array of amplitudes indexed [t, c, p], over
        the polarizations (0 = H, 1 = V) of the target, control and program
        photons: any input the gate takes, product or entangled.  Returns
        (branches, 4) in ``branch_keys`` order, each row over |00>, |01>,
        |10>, |11>: the sum of psi[t, c, p] times column 2t+c of
        ``program_operators[p]``.  A row's squared norm is its branch's
        probability.
        """
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (2, 2, 2):
            raise ValueError(f"input must have shape (2, 2, 2), got {psi.shape}")
        if not np.isfinite(psi).all():
            raise ValueError("input has a non-finite amplitude")
        norm_sq = float(np.sum(np.abs(psi) ** 2))
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValueError(f"input has squared norm {norm_sq!r}, expected 1")
        return np.einsum("pbkx,xp->bk", self.program_operators, psi.reshape(4, 2))

    @cached_property
    def program_operators(self) -> np.ndarray:
        """Branch operators with the program photon in |H> and in |V>.

        Shape (2, branches, 4, 4): column 2t+c of [p, b] is branch b's
        conditional state for the basis input |tc> with program polarization
        p, the permanents of ``rows`` on the three occupied columns, all
        eight inputs in one batch.  Everything after the program photon is
        prepared is linear in it, so the operator of every branch at phase
        phi is (G_H - e^{i phi} G_V)/sqrt(2).
        """
        # A permanent does not depend on the order of its columns, but its
        # floating-point sum may: columns in port order (target, control,
        # program) sum every netlist alike, whatever order it declares its
        # paths in, as the rows are picked by port too.
        columns = [(i, 2 + j, 4 + k) for k, i, j in np.ndindex(2, 2, 2)]
        # rows[..., columns] is (branches, 4, 3, 8, 3): move the input axis out
        amplitudes = permanents(np.moveaxis(self.rows[..., columns], -2, -3))
        return np.moveaxis(amplitudes.reshape(len(self.branch_keys), 4, 2, 4), 2, 0)

    def evaluate(self, phi_grid: Sequence[float]) -> GateGrid:
        """Assemble and score the conditional gate at every phase of the grid,
        as arrays from one broadcast over ``program_operators``; the scores
        are those documented on ``GateGrid``."""
        phis = _check_phases(phi_grid)
        g_h, g_v = self.program_operators
        ops = (g_h - np.exp(1j * phis)[:, None, None, None] * g_v) / _SQ2
        probs = np.sum(np.abs(ops[..., 0]) ** 2, axis=-1)  # |00> column, (phase, branch)
        return GateGrid(
            phis=phis, ops=ops, probabilities=probs, p_success=np.sum(probs, axis=1),
            fidelity=fidelity(ops[:, 0], phis), branch_keys=self.branch_keys,
        )


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
    grid = np.array(overlap_grid, dtype=float)
    outside = grid[~((0.0 <= grid) & (grid <= 1.0))]
    if outside.size:
        raise ValueError(f"overlap must lie in [0, 1], got {float(outside[0])}")
    block = KINDS["ppbs"].matrix(t_v)[2:, 2:]
    together = abs(permanents(block)) ** 2
    apart = permanents(abs(block) ** 2).real
    return list(zip(grid.tolist(), (grid * together + (1.0 - grid) * apart).tolist()))
