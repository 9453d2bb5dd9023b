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

#: Each basis input's occupied columns t, 2 + c, 4 + p (p outermost, then t, c).
#: A permanent's floating-point sum depends on its column order; port order sums
#: every netlist alike, whatever its path order, as the rows are picked by port too.
_COLUMNS = np.array([(t, 2 + c, 4 + p) for p in (0, 1) for t in (0, 1) for c in (0, 1)])


def _real(values, what: str) -> np.ndarray:
    """``values`` as floats; ValueError on a non-zero imaginary part, which a cast drops."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        if (values.imag != 0).any():
            raise ValueError(f"{what} must be real, got {complex(values[values.imag != 0][0])}")
        values = values.real
    return np.asarray(values, dtype=float)


def ideal_cphase(phi) -> np.ndarray:
    """The target two-qubit operation: phase e^{i phi} on |11> only.

    An array of phases gives a stack of operators, shape (..., 4, 4).
    """
    factors = np.exp(1j * _real(phi, "phase"))
    ops = np.zeros(factors.shape + (4, 4), dtype=complex)
    ops[..., range(3), range(3)] = 1.0
    ops[..., 3, 3] = factors
    return ops


@dataclass(frozen=True, eq=False)
class GateGrid:
    """The conditional gate scored over a phase grid, one array per field.

    ``ops`` is (phases, branches, 4, 4): the conditional operator of each
    branch, in ``branch_keys`` order, whose column 2t+c is what
    ``CompiledCircuit.run`` gives for the basis input |tc> with the program
    photon (|H> - e^{i phi}|V>)/sqrt(2).  It is formed on first read, as
    (G_H - e^{i phi} G_V)/sqrt(2) from ``program_operators`` (G_H, G_V) and
    ``phis``, and then kept on the record.
    The primary branch is the first, the first declared outcome on the first
    target output port; ``fidelity`` scores its operator against the ideal
    operation.  ``probabilities`` (phases, branches) is each branch's
    probability for the input |00> (its operator's first column), and
    ``p_success`` their sum.  ``phis`` and the scores hold one entry per
    phase.  No command asks whether the branches agree or are diagonal, so no
    field says; ``ops`` answers both.
    """

    phis: np.ndarray
    probabilities: np.ndarray
    p_success: np.ndarray
    fidelity: np.ndarray
    branch_keys: tuple[tuple[str, str], ...]
    program_operators: np.ndarray

    @cached_property
    def ops(self) -> np.ndarray:
        return _at_phases(*self.program_operators, np.exp(1j * self.phis)[:, None, None, None])


def _at_phases(g_h: np.ndarray, g_v: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """(g_h - factors * g_v) / sqrt(2), broadcast, in one array: the
    operators of a program photon (|H> - e^{i phi}|V>)/sqrt(2) with
    ``factors`` e^{i phi}."""
    out = factors * g_v
    np.subtract(g_h, out, out=out)
    out /= _SQ2
    return out


def _check_phases(phis) -> np.ndarray:
    values = _real(phis, "phase").reshape(-1)
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
    one-path element acts in place on its two rows, a splitter on one gathered
    block of its rows.  A branch (outcome, target output port) keeps three rows
    of its outcome's matrix for each two-qubit output: the target port row of
    the target polarization, the control output row of the control
    polarization, and the detector rows contracted with the conjugated outcome
    ket (the reserved last row), so post-selection is implicit.

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
        self._row = {path: 2 * at for at, path in enumerate(netlist.paths)}  # H rows
        ports, reserved = netlist.ports, 2 * len(netlist.paths)
        start = np.zeros((reserved + 1, 6), dtype=complex)
        start[self._modes(ports.target_in, ports.control_in, ports.program_in), range(6)] = 1.0
        before = self._compose(self._plan(netlist.stages[: netlist.measure_after]), start)
        after = self._plan(netlist.stages[netlist.measure_after:])
        targets, control = self._modes(*ports.target_out), self._modes(ports.control_out)
        detector = self._row[netlist.measurement.path]
        # one block of the rows that input k's columns 2k and 2k + 1 must reach
        watched = np.array([*targets, *control, detector, detector + 1], dtype=np.intp)
        blocks = ((slice(0, len(targets)), "target input does not reach any target output"),
                  (slice(len(targets), -2), "control input does not reach the control output"),
                  (slice(-2, None), "program input does not reach the detector path"))
        # per target port and output |tc>: target row t, control row c, the measured row
        picks = np.array([[(h + t, control[c], reserved) for t in (0, 1) for c in (0, 1)]
                          for h in targets[::2]], dtype=np.intp)
        rows, dead = [], []
        for outcome in netlist.measurement.outcomes:
            correction = self._plan([outcome.correct]) if outcome.correct else []
            transfer = self._compose(correction + after, before)
            reached = transfer[watched]
            dead += [f"outcome {outcome.label!r}: {message}" for k, (at, message)
                     in enumerate(blocks) if not reached[at, 2 * k:2 * k + 2].any()]
            transfer[reserved] = np.conj(outcome.ket) @ transfer[detector:detector + 2]
            rows.append(transfer[picks])
        if dead:
            raise NetlistValidationError(dead)
        #: (branches, 4, 3, 6): the three output rows of each branch and output.
        self.rows = np.concatenate(rows)
        #: (outcome label, port) of every branch, in the order run() emits them.
        self.branch_keys = tuple((outcome.label, port) for outcome in netlist.measurement.outcomes
                                 for port in ports.target_out)

    def _modes(self, *paths: str) -> list[int]:
        """The H and V rows of each path in turn (see the class docstring)."""
        return [self._row[p] + pol for p in paths for pol in (0, 1)]

    def _plan(self, chain: Sequence[ElementSpec]) -> list:
        """(spec, matrix, rows, outputs) of each stage: a one-path element's two rows as
        a slice; a splitter's inputs (a H, b H, a V, b V), then the rows of (t H, r H,
        t V, r V) that are not inputs, and the places of those four outputs there."""
        steps = []
        for spec in chain:
            h = [self._row[p] for p in spec.paths]
            if len(h) == 1:
                steps.append((spec, spec.element, slice(h[0], h[0] + 2), None))
                continue
            a, b, t, r = h
            rows, outs = [a, b, a + 1, b + 1], (t, r, t + 1, r + 1)
            rows += [o for o in outs if o not in rows]
            outputs = np.array([rows.index(o) for o in outs], dtype=np.intp)
            steps.append((spec, spec.element, np.array(rows, dtype=np.intp), outputs))
        return steps

    def _compose(self, steps: list, transfer: np.ndarray) -> np.ndarray:
        """A copy of ``transfer`` with the planned stages applied (see the class docstring)."""
        transfer = transfer.copy()
        for spec, matrix, rows, outputs in steps:
            if outputs is None:  # 0.0 + moved, as below, so no -0.0 is stored
                view = transfer[rows]
                np.add(matrix @ view, 0.0, out=view)
                continue
            block = transfer[rows]  # the four input rows, then the onto rows
            if len(rows) > 4 and np.abs(block[4:]).max() > DARK_TOL:
                lit = np.abs(block[4:]).max(axis=1)
                path = self.netlist.paths[rows[4 + int(np.argmax(lit))] // 2]
                message = f"sends light onto an already-lit path ({path})"
                raise NetlistValidationError([f"{_where(spec)}{spec.name}: {message}"])
            moved = matrix @ block[:4]
            block[:4] = 0.0
            block[outputs] += moved
            transfer[rows] = block
        return transfer

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
        norm_sq = float((np.abs(psi) ** 2).sum())
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
        # rows[..., _COLUMNS] is (branches, 4, 3, 8, 3): move the input axis out
        amplitudes = permanents(self.rows[..., _COLUMNS].transpose(0, 1, 3, 2, 4))
        return amplitudes.reshape(len(self.branch_keys), 4, 2, 4).transpose(2, 0, 1, 3)

    @cached_property
    def _read(self) -> np.ndarray:
        """The entries of ``program_operators`` that the scores read, in
        (2, 4, branches + 3): row k holds output k of the |00> column of
        branches B-1, ..., 1, then row k of the primary branch's operator.
        So ``[..., B-1:]`` is the primary operator and ``[..., B-1::-1]`` the
        |00> column of every branch in branch order, both views."""
        operators = self.program_operators
        return np.concatenate(
            (operators[:, :0:-1, :, 0].transpose(0, 2, 1), operators[:, 0]), axis=2)

    def evaluate(self, phi_grid: Sequence[float]) -> GateGrid:
        """Score the conditional gate at every phase of the grid, as arrays
        from one broadcast over the entries the scores read (``_read``): per
        phase, the primary branch's operator, which ``fidelity`` scores, and
        the |00> column of every branch.  The scores are those documented on
        ``GateGrid``, whose ``ops`` is formed only when read."""
        phis = _check_phases(phi_grid)
        g_h, g_v = self._read
        read = _at_phases(g_h, g_v, np.exp(1j * phis)[:, None, None])  # (phase, 4, branches + 3)
        last = len(self.branch_keys) - 1
        scores = fidelity(read[:, :, last:], phis)  # first, while no other score is held
        probs = (np.abs(read[:, :, last::-1]) ** 2).sum(axis=1)  # |00> columns, (phase, branch)
        return GateGrid(
            phis=phis, probabilities=probs, p_success=probs.sum(axis=1), fidelity=scores,
            branch_keys=self.branch_keys, program_operators=self.program_operators,
        )


def fidelity(gate: np.ndarray, phi):
    """Overlap |Tr(G† U)|^2 / (4 Tr(G† G)) with U = diag(1, 1, 1, e^{i phi}).

    Equals 1 exactly when G is proportional to the ideal operation.  A stack
    of gates (..., 4, 4) with matching phases gives an array of overlaps.
    U is diagonal, so Tr(G† U) = (g00* + g11*) + (g22* + g33* e^{i phi}) reads
    four entries of each gate, added as numpy adds all 16 products G* U of a
    gate whose entries lie together in memory.  ValueError on a gate that is
    not 4x4, a phase with an imaginary part, or a zero operator.
    """
    g = np.asarray(gate, dtype=complex)
    if g.shape[-2:] != (4, 4):
        raise ValueError(f"gate must be 4x4 in its last two axes, got shape {g.shape}")
    d = np.conj(g.diagonal(0, -2, -1))
    # named, so numpy never writes the product into it: a product formed in place
    # from a strided operand rounds otherwise, on stacks of 16384 gates or more
    factors = np.exp(1j * _real(phi, "phase"))
    overlap = (d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3] * factors)
    denom = (np.abs(g) ** 2).sum(axis=(-2, -1))
    if (denom == 0.0).any():
        raise ValueError("fidelity of the zero operator is undefined")
    result = np.abs(overlap) ** 2 / (4.0 * denom)
    return float(result) if result.ndim == 0 else result


def hom_scan(t_v: float, overlap_grid: Sequence[float]) -> np.ndarray:
    """Two-photon interference scan against wavepacket overlap.

    Two vertically polarized photons enter the two ports of a partially
    polarizing splitter with wavepacket overlap v.  Returns the float64
    array of the coincidence probability (one photon per output path) at
    each overlap, in grid order: with M the splitter's vertical block,
    P(v) = v |perm M|^2 + (1 - v) perm(|M|^2) = v (t^2 - r^2)^2 + (1 - v)(t^4 + r^4)
    (Tichy, arXiv:1410.7687).  The splitter is built once per scan.
    """
    if not 0.0 < t_v < 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1), got {t_v}")
    grid = _real(overlap_grid, "overlap")
    outside = grid[~((0.0 <= grid) & (grid <= 1.0))]
    if outside.size:
        raise ValueError(f"overlap must lie in [0, 1], got {float(outside[0])}")
    block = KINDS["ppbs"].matrix(t_v)[2:, 2:]
    together = abs(permanents(block)) ** 2
    apart = permanents(abs(block) ** 2).real
    return grid * together + (1.0 - grid) * apart
