"""Few-photon bosonic states over labelled optical modes.

States live in a sparse occupation-number representation: a map from
occupation vectors to complex amplitudes, with the standard (a†)^n/√(n!)
basis normalization.  Subnormalized states are legal throughout; the
squared norm of a state is the probability mass that has survived
filtering and post-selection so far.

Everything here is a pure function over immutable values, so independent
simulations can safely run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Amplitudes at or below this magnitude are dropped after each operation
#: to keep the sparse maps compact.
PRUNE_TOL = 1e-15

H = "H"
V = "V"
POLS = (H, V)

#: Sparse occupation vector: sorted tuple of (mode index, photon count > 0).
Occupation = tuple[tuple[int, int], ...]

#: A (path, polarization) pair; linear elements act on these and leave the
#: internal wavepacket index untouched.
Channel = tuple[str, str]


@dataclass(frozen=True)
class ModeLabel:
    """One bosonic mode: spatial path, polarization, internal wavepacket index.

    The internal index is only used by distinguishability modelling; fully
    indistinguishable photons all carry index 0.
    """

    path: str
    pol: str
    internal: int = 0

    def __post_init__(self) -> None:
        if self.pol not in POLS:
            raise ValueError(f"polarization must be one of {POLS}, got {self.pol!r}")
        if self.internal < 0:
            raise ValueError("internal wavepacket index must be non-negative")


class ModeRegistry:
    """Ordered mode set with a stable label -> dense index map."""

    def __init__(self, paths: Iterable[str], internal_count: int = 1):
        paths = tuple(paths)
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path names in registry")
        if internal_count < 1:
            raise ValueError("internal_count must be at least 1")
        self.paths = paths
        self.internal_count = internal_count
        self.labels = tuple(
            ModeLabel(path, pol, k)
            for path in paths
            for pol in POLS
            for k in range(internal_count)
        )
        self._index = {label: i for i, label in enumerate(self.labels)}

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown mode {label}") from None

    def label(self, index: int) -> ModeLabel:
        return self.labels[index]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModeRegistry) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"ModeRegistry(paths={self.paths!r}, internal_count={self.internal_count})"


class FockState:
    """Sparse N-photon state: occupation vector -> complex amplitude."""

    __slots__ = ("registry", "photon_number", "amplitudes")

    def __init__(
        self,
        registry: ModeRegistry,
        photon_number: int,
        amplitudes: Mapping[Occupation, complex] | None = None,
    ):
        self.registry = registry
        self.photon_number = int(photon_number)
        amps: dict[Occupation, complex] = {}
        for occ, amp in (amplitudes or {}).items():
            if sum(n for _, n in occ) != self.photon_number:
                raise ValueError(
                    f"occupation {occ} does not hold {self.photon_number} photons"
                )
            amps[occ] = complex(amp)
        self.amplitudes = amps

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def terms(self):
        return self.amplitudes.items()

    def amplitude(self, occ: Occupation) -> complex:
        return self.amplitudes.get(occ, 0j)

    def pruned(self) -> "FockState":
        """Copy without the amplitudes at or below ``PRUNE_TOL``; a non-finite one raises."""
        kept = {occ: a for occ, a in self.amplitudes.items() if not abs(a) <= PRUNE_TOL}
        if not math.isfinite(abs(sum(kept.values(), 0j))):
            raise ValueError("state holds a non-finite amplitude")
        return FockState(self.registry, self.photon_number, kept)

    def __add__(self, other: "FockState") -> "FockState":
        if not isinstance(other, FockState):
            return NotImplemented
        if self.registry != other.registry:
            raise ValueError("cannot add states over different registries")
        if self.photon_number != other.photon_number:
            raise ValueError("cannot add states with different photon numbers")
        amps = dict(self.amplitudes)
        for occ, a in other.amplitudes.items():
            amps[occ] = amps.get(occ, 0j) + a
        return FockState(self.registry, self.photon_number, amps)

    def __mul__(self, scalar: complex) -> "FockState":
        c = complex(scalar)
        return FockState(
            self.registry,
            self.photon_number,
            {occ: c * a for occ, a in self.amplitudes.items()},
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (
            f"FockState(n={self.photon_number}, terms={len(self.amplitudes)}, "
            f"norm_sq={self.norm_sq():.6g})"
        )


@dataclass(frozen=True, eq=False)
class LinearElement:
    """Linear mode transformation acting on (path, polarization) channels.

    The matrix maps input creation operators to output creation operators:
    channel i on the input side becomes sum_j matrix[j, i] times output
    channel j.  The element acts identically on every internal wavepacket
    index present in the state's registry.
    """

    name: str
    channels_in: tuple[Channel, ...]
    channels_out: tuple[Channel, ...]
    matrix: np.ndarray
    unitary: bool


def linear_element(
    name: str,
    channels_in: Sequence[Channel],
    channels_out: Sequence[Channel],
    matrix: np.ndarray,
) -> LinearElement:
    """Build a LinearElement, enforcing subunitarity of the matrix."""
    m = np.asarray(matrix, dtype=complex)
    k = len(channels_in)
    if m.shape != (k, k) or len(channels_out) != k:
        raise ValueError(f"{name}: matrix shape {m.shape} does not match {k} channels")
    if not np.isfinite(m).all():
        raise ValueError(f"{name}: matrix has non-finite entries")
    if len(set(channels_in)) != k or len(set(channels_out)) != k:
        raise ValueError(f"{name}: duplicate channels")
    unitary = True
    if k:
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        if top > 1.0 + 1e-12:
            raise ValueError(f"{name}: matrix is not subunitary (max singular value {top:.6g})")
        # every entry of M†M - 1 within 1e-12, as np.allclose(atol=1e-12, rtol=0) tests
        unitary = float(np.max(np.abs(m.conj().T @ m - np.eye(k)))) <= 1e-12
    return LinearElement(name, tuple(channels_in), tuple(channels_out), m, unitary)


def _occ_key(counts: dict[int, int]) -> Occupation:
    return tuple(sorted((m, n) for m, n in counts.items() if n))


def _bump(occ: Occupation, mode: int) -> Occupation:
    counts = dict(occ)
    counts[mode] = counts.get(mode, 0) + 1
    return _occ_key(counts)


def _factorial_weight(occ: Occupation) -> float:
    w = 1.0
    for _, n in occ:
        w *= math.factorial(n)
    return math.sqrt(w)


def make_photon_state(
    registry: ModeRegistry,
    photons: Sequence[Sequence[tuple[ModeLabel, complex]]],
) -> FockState:
    """Assemble an N-photon state from one superposed creation operator per photon.

    Each entry of ``photons`` lists (mode label, amplitude) pairs whose squared
    amplitudes must sum to one.  The resulting state is renormalized, which
    supplies the bosonic normalization factors whenever photons overlap in the
    same mode (two photons placed in one mode give occupation 2 with
    amplitude 1).
    """
    amps: dict[Occupation, complex] = {(): 1.0 + 0j}
    for i, photon in enumerate(photons):
        total = sum(abs(a) ** 2 for _, a in photon)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"photon {i}: amplitudes have squared norm {total:.6g}, expected 1")
        new: dict[Occupation, complex] = {}
        for occ, amp in amps.items():
            counts = dict(occ)
            for label, a in photon:
                if a == 0:
                    continue
                idx = registry.index(label)
                n = counts.get(idx, 0)
                key = _bump(occ, idx)
                new[key] = new.get(key, 0j) + amp * a * math.sqrt(n + 1)
        amps = new
    state = FockState(registry, len(photons), amps)
    norm = math.sqrt(state.norm_sq())
    if norm == 0.0:
        raise ValueError("assembled state has zero norm")
    return (1.0 / norm * state).pruned()


def apply_element(state: FockState, element: LinearElement) -> FockState:
    """Apply a linear element to a state.

    Every occupation basis ket is rewritten as a monomial of creation
    operators; operators on the element's input channels are substituted by
    their images under the matrix, the product is expanded and re-collected
    with factorial normalization.  Modes outside the element are untouched.
    """
    reg = state.registry
    k = len(element.channels_in)
    # input mode index -> (matrix column, internal index)
    column_of: dict[int, tuple[int, int]] = {}
    out_modes: list[list[int]] = []
    for internal in range(reg.internal_count):
        for i, (path, pol) in enumerate(element.channels_in):
            column_of[reg.index(ModeLabel(path, pol, internal))] = (i, internal)
        out_modes.append(
            [reg.index(ModeLabel(path, pol, internal)) for path, pol in element.channels_out]
        )

    new_amps: dict[Occupation, complex] = {}
    for occ, amp in state.terms():
        factors: list[list[tuple[int, complex]]] = []
        norm_in = 1.0
        for mode, n in occ:
            norm_in *= math.factorial(n)
            if mode in column_of:
                i, internal = column_of[mode]
                vec = [
                    (out_modes[internal][j], element.matrix[j, i])
                    for j in range(k)
                    if element.matrix[j, i] != 0
                ]
            else:
                vec = [(mode, 1.0 + 0j)]
            factors.extend([vec] * n)
        partial: dict[Occupation, complex] = {(): amp / math.sqrt(norm_in)}
        for vec in factors:
            nxt: dict[Occupation, complex] = {}
            for pocc, coeff in partial.items():
                for mode, c in vec:
                    key = _bump(pocc, mode)
                    nxt[key] = nxt.get(key, 0j) + coeff * c
            partial = nxt
        for pocc, coeff in partial.items():
            new_amps[pocc] = new_amps.get(pocc, 0j) + coeff * _factorial_weight(pocc)

    result = FockState(reg, state.photon_number, new_amps).pruned()
    before, after = state.norm_sq(), result.norm_sq()
    if element.unitary:
        if abs(after - before) > 1e-9:
            raise AssertionError(f"{element.name}: unitary element changed the norm")
    elif after > before + 1e-9:
        raise AssertionError(f"{element.name}: subunitary element increased the norm")
    return result


def post_select(
    state: FockState, pattern: Mapping[str, int]
) -> tuple[FockState, float]:
    """Project onto occupation vectors whose per-path photon totals match ``pattern``.

    Counts are summed over polarization and internal indices.  The pattern
    must account for every photon, so paths absent from it are implicitly
    required to be empty.  Returns the projected (subnormalized) state and
    its squared norm, i.e. the probability of the selection.
    """
    reg = state.registry
    known = set(reg.paths)
    for path in pattern:
        if path not in known:
            raise ValueError(f"post-selection pattern references unknown path {path!r}")
    if sum(pattern.values()) != state.photon_number:
        raise ValueError(
            f"pattern totals {sum(pattern.values())} photons, state holds {state.photon_number}"
        )
    kept: dict[Occupation, complex] = {}
    for occ, amp in state.terms():
        per_path: dict[str, int] = {}
        for mode, n in occ:
            path = reg.label(mode).path
            per_path[path] = per_path.get(path, 0) + n
        if all(per_path.get(path, 0) == n for path, n in pattern.items()):
            kept[occ] = amp
    projected = FockState(reg, state.photon_number, kept)
    return projected, projected.norm_sq()


def project_detector(
    state: FockState, path: str, ket: Sequence[complex]
) -> tuple[FockState, float]:
    """Detect one photon on ``path`` in the polarization state ``ket``.

    The photon is removed: its (H, V) amplitudes are contracted against the
    conjugated ket.  Every surviving term must carry exactly one photon on
    the path (guaranteed after a suitable post_select), with internal index
    0.  Returns the reduced state and its squared norm, the joint
    probability of the detection record so far.
    """
    ket = [complex(c) for c in ket]
    if len(ket) != 2 or not abs(sum(abs(c) ** 2 for c in ket) - 1.0) <= 1e-12:
        raise ValueError("detector ket must be a normalized 2-component polarization vector")
    reg = state.registry
    if path not in reg.paths:
        raise ValueError(f"unknown detector path {path!r}")
    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms():
        on_path = [(mode, n) for mode, n in occ if reg.label(mode).path == path]
        total = sum(n for _, n in on_path)
        if total != 1:
            raise ValueError(
                f"detector path {path!r} holds {total} photons in a surviving term"
            )
        mode = on_path[0][0]
        label = reg.label(mode)
        if label.internal != 0:
            raise ValueError("cannot project a photon with a nonzero internal index")
        factor = ket[0].conjugate() if label.pol == H else ket[1].conjugate()
        counts = dict(occ)
        counts[mode] -= 1
        key = _occ_key(counts)
        out[key] = out.get(key, 0j) + amp * factor
    reduced = FockState(reg, state.photon_number - 1, out).pruned()
    return reduced, reduced.norm_sq()


def two_qubit_amplitudes(state: FockState, target_path: str, control_path: str) -> np.ndarray:
    """Read off the four two-qubit amplitudes of a one-photon-per-path state.

    Index order is |00>, |01>, |10>, |11> over (target, control) with
    H -> 0 and V -> 1.  Any amplitude above 1e-12 outside the two paths,
    or on a nonzero internal index, is an error.
    """
    reg = state.registry
    amps = np.zeros(4, dtype=complex)
    for occ, amp in state.terms():
        pols: dict[str, str] = {}
        valid = True
        for mode, n in occ:
            label = reg.label(mode)
            if n != 1 or label.internal != 0 or label.path in pols:
                valid = False
                break
            pols[label.path] = label.pol
        if valid and set(pols) == {target_path, control_path}:
            t_bit = 0 if pols[target_path] == H else 1
            c_bit = 0 if pols[control_path] == H else 1
            amps[2 * t_bit + c_bit] = amp
        elif abs(amp) > 1e-12:
            raise ValueError(
                f"residual amplitude {abs(amp):.3g} outside the qubit ports in term {occ}"
            )
    return amps
