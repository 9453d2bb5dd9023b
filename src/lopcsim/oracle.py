"""Independent scalar verifier for the built-in gate circuits.

Every conditional amplitude is re-derived here by multiplying explicit
per-element scalar factors along the photon paths, with no Fock machinery
involved.  The factor chains are the ground truth that pins the
simulator's beam-splitter phase conventions; the simulator must reproduce
them branch by branch.

``path_amplitude`` gives the chains of one basis input at one phase, and
``branch_table`` every branch over a whole phase grid, each chain built once
per grid.  Only the |11> chain depends on phi, through its programmed factor
-e^{i phi}/sqrt(2); every chain is multiplied out in Python complex
arithmetic in one fixed order, so a grid's amplitudes are the single-phase
ones bit for bit.

The oracle only knows the two built-in circuit families.  It is not a
second simulator.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

SQ2 = math.sqrt(2.0)
T_V = 1.0 / math.sqrt(3.0)  # splitter transmissivity for V
R_V = math.sqrt(2.0 / 3.0)
HOM_FACTOR = T_V * T_V - R_V * R_V  # two-photon coincidence amplitude, -1/3
T_F2H = 1.0 / math.sqrt(3.0)  # control-arm filter on H

VARIANTS = ("basic", "ff", "dual", "full")

#: Projection factors <outcome|pol> for the diagonal/anti-diagonal detector.
_PROJ = {
    ("D", "H"): 1.0 / SQ2,
    ("D", "V"): 1.0 / SQ2,
    ("A", "H"): 1.0 / SQ2,
    ("A", "V"): -1.0 / SQ2,
}


def _walk(value: complex, factors: Sequence[complex]) -> complex:
    """``value`` times each factor in turn, in Python complex arithmetic."""
    for factor in factors:
        value *= factor
    return value


@dataclass(frozen=True)
class OraclePath:
    """One scalar factor chain: the amplitude is the product of the factors."""

    input_bits: tuple[int, int]
    steps: tuple[tuple[str, complex], ...]
    ket_index: int

    @property
    def amplitude(self) -> complex:
        return _walk(1.0 + 0j, [factor for _, factor in self.steps])


@dataclass(frozen=True)
class OracleBranch:
    outcome: str
    port: str
    ket_index: int
    amplitude: complex
    path: OraclePath


def _variant_structure(variant: str) -> tuple[tuple[str, ...], tuple[str, ...], bool, bool]:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    feedforward = variant in ("ff", "full")
    dual = variant in ("dual", "full")
    outcomes = ("D", "A") if feedforward else ("D",)
    ports = ("T_OUT", "T_OUT2") if dual else ("T_OUT",)
    return outcomes, ports, feedforward, dual


def _programmed(phi: float) -> complex:
    """The program photon's V amplitude, the one factor that depends on phi."""
    return -cmath.exp(1j * phi) / SQ2


def _chain(
    t_bit: int,
    c_bit: int,
    outcome: str,
    port: str,
    feedforward: bool,
    dual: bool,
) -> tuple[tuple[tuple[str, complex | None], ...], int]:
    """The factor steps of one branch of |tc> and the ket index it lands on;
    the programmed step's factor is None, to be filled with ``_programmed(phi)``."""
    steps: list[tuple[str, complex | None]] = []
    f1 = 1.0 / SQ2 if dual else 0.5
    plm_armed = feedforward and outcome == "A"

    if t_bit == 0:
        # Target rides the upper arm as H; the detected photon is the
        # transmitted program H component.
        steps.append(("F1", f1))
        if dual:
            label = "HWP4 H->V" if port == "T_OUT2" else "HWP4 H->H"
            steps.append((label, 1.0 / SQ2))
        steps.append(("PBS2 route upper arm", 1.0))
        if port == "T_OUT2":
            steps.append(("HWP5 swap", 1.0))
        ctrl = T_F2H if c_bit == 0 else T_V
        steps.append(("control transmission", ctrl))
        steps.append(("program H through PBS3", 1.0 / SQ2))
        steps.append((f"project {outcome} on H", _PROJ[(outcome, "H")]))
        ket = (0, c_bit)
    elif c_bit == 0:
        # Target drops to the lower arm, is split, transmitted and
        # recombined to pure H: (1/2 + 1/2)/sqrt(2).
        steps.append(("HWP1 split + PPBS transmit + HWP2 -> H", 1.0 / SQ2))
        steps.append(("control transmission", T_F2H))
        steps.append(("target H through PBS3", 1.0))
        if plm_armed:
            steps.append(("PLM on H", 1.0))
        if port == "T_OUT":
            steps.append(("HWP3 H->V", 1.0 / SQ2))
            steps.append(("PBS2 reflect V", 1.0))
        else:
            steps.append(("HWP3 H->H", 1.0 / SQ2))
            steps.append(("PBS2 transmit H", 1.0))
            steps.append(("HWP5 swap", 1.0))
        steps.append(("program H through PBS3", 1.0 / SQ2))
        steps.append((f"project {outcome} on H", _PROJ[(outcome, "H")]))
        ket = (1, 0)
    else:
        # Both qubits vertical: the two-photon interference leaves the lower
        # arm in V with amplitude 1/sqrt(6) = (1/2)*t + (sqrt(3)/2)*hom
        # recombined by the Hadamard; the target photon then reflects into
        # the detector and the program V component takes its place.
        merged = (0.5 * T_V + (math.sqrt(3.0) / 2.0) * HOM_FACTOR * (-1.0)) / SQ2
        steps.append(("HWP1 split + PPBS interference + HWP2 -> V", merged))
        steps.append(("target V reflects PBS3 to detector", 1.0))
        steps.append(("program V reflects PBS3 to target arm", None))
        if plm_armed:
            steps.append(("PLM flip V", -1.0))
        if port == "T_OUT":
            steps.append(("HWP3 V->V", -1.0 / SQ2))
            steps.append(("PBS2 reflect V", 1.0))
        else:
            steps.append(("HWP3 V->H", 1.0 / SQ2))
            steps.append(("PBS2 transmit H", 1.0))
            steps.append(("HWP5 swap", 1.0))
        steps.append((f"project {outcome} on V", _PROJ[(outcome, "V")]))
        ket = (1, 1)

    return (
        tuple((label, None if factor is None else complex(factor)) for label, factor in steps),
        2 * ket[0] + ket[1],
    )


def path_amplitude(t_bit: int, c_bit: int, phi: float, variant: str) -> list[OracleBranch]:
    """All accepted branches for one basis input, with their factor chains."""
    if t_bit not in (0, 1) or c_bit not in (0, 1):
        raise ValueError("basis bits must be 0 or 1")
    outcomes, ports, feedforward, dual = _variant_structure(variant)
    programmed = _programmed(float(phi))
    branches = []
    for outcome in outcomes:
        for port in ports:
            steps, ket_index = _chain(t_bit, c_bit, outcome, port, feedforward, dual)
            steps = tuple((label, programmed if f is None else f) for label, f in steps)
            path = OraclePath((t_bit, c_bit), steps, ket_index)
            branches.append(OracleBranch(outcome, port, ket_index, path.amplitude, path))
    return branches


def branch_table(phis: Sequence[float], variant: str) -> dict[tuple[str, str], np.ndarray]:
    """Diagonal amplitudes per branch over a phase grid: (outcome, port) ->
    (phases, 4) complex array, row i over |tc> at ``phis[i]``.

    Row i equals the amplitudes ``path_amplitude`` gives at ``phis[i]``, bit
    for bit: each chain is built once, the product of its factors before the
    programmed one is taken once, and each phase multiplies on from there.
    """
    outcomes, ports, feedforward, dual = _variant_structure(variant)
    programmed = [_programmed(float(phi)) for phi in phis]
    table = {}
    for outcome in outcomes:
        for port in ports:
            rows = table[outcome, port] = np.zeros((len(programmed), 4), dtype=complex)
            for ket_index, (t_bit, c_bit) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                steps, lands = _chain(t_bit, c_bit, outcome, port, feedforward, dual)
                if lands != ket_index:
                    raise AssertionError("oracle produced an off-diagonal amplitude")
                factors = [factor for _, factor in steps]
                if None not in factors:  # one amplitude for every phase
                    rows[:, ket_index] = _walk(1.0 + 0j, factors)
                    continue
                cut = factors.index(None)
                head, tail = _walk(1.0 + 0j, factors[:cut]), factors[cut + 1:]
                rows[:, ket_index] = [_walk(head * value, tail) for value in programmed]
    return table
