"""Few-photon bosonic states over labelled optical modes, and how linear
optics acts on them.

States live in a sparse occupation-number representation: a map from
occupation vectors to complex amplitudes, with the standard (a†)^n/√(n!)
basis normalization.  Subnormalized states are legal throughout.

A linear network acts through its mode transfer matrix U (column i is the
image of input mode i).  The amplitude of finding N photons in N distinct
output modes is, for each input term, a permanent of the N×N submatrix of
U on those output rows and the occupied input columns, each column repeated
as often as its mode is occupied (Scheel, quant-ph/0406127); no state is
ever expanded element by element.

Everything here is a pure function over immutable values, so independent
simulations can safely run in parallel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Amplitudes at or below this magnitude are dropped when a state is
#: assembled, to keep the sparse maps compact.
PRUNE_TOL = 1e-15

H = "H"
V = "V"
POLS = (H, V)

#: Sparse occupation vector: sorted tuple of (mode index, photon count > 0).
Occupation = tuple[tuple[int, int], ...]

#: A (path, polarization) pair; linear elements act on these.
Channel = tuple[str, str]


@dataclass(frozen=True)
class ModeLabel:
    """One bosonic mode: spatial path and polarization."""

    path: str
    pol: str

    def __post_init__(self) -> None:
        if self.pol not in POLS:
            raise ValueError(f"polarization must be one of {POLS}, got {self.pol!r}")


class ModeRegistry:
    """Ordered mode set with a stable label -> dense index map."""

    def __init__(self, paths: Iterable[str]):
        paths = tuple(paths)
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path names in registry")
        self.paths = paths
        self.labels = tuple(ModeLabel(path, pol) for path in paths for pol in POLS)
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
        return f"ModeRegistry(paths={self.paths!r})"


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
    channel j.
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
            for label, a in photon:
                if a == 0:
                    continue
                counts = dict(occ)
                idx = registry.index(label)
                n = counts.get(idx, 0)
                counts[idx] = n + 1
                key = tuple(sorted(counts.items()))
                new[key] = new.get(key, 0j) + amp * a * math.sqrt(n + 1)
        amps = new
    state = FockState(registry, len(photons), amps)
    norm = math.sqrt(state.norm_sq())
    if norm == 0.0:
        raise ValueError("assembled state has zero norm")
    return (1.0 / norm * state).pruned()


def embed(element: LinearElement, registry: ModeRegistry) -> np.ndarray:
    """The element as a transfer matrix over every mode of ``registry``.

    Column i is the image of mode i.  The element's matrix fills the block of
    its input columns and output rows; the columns of modes it does not take
    as input stay identity, so light already on one of its output paths
    passes on untouched.
    """
    index = [
        [registry.index(ModeLabel(path, pol)) for path, pol in channels]
        for channels in (element.channels_in, element.channels_out)
    ]
    transfer = np.eye(len(registry), dtype=complex)
    transfer[:, index[0]] = 0.0
    transfer[np.ix_(index[1], index[0])] = element.matrix
    return transfer


def permanents(m: np.ndarray) -> np.ndarray:
    """Permanent of each n×n matrix of a stack (..., n, n), summed over the n! permutations."""
    n = m.shape[-1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int).reshape(-1, n)
    return m[..., np.arange(n), perms].prod(axis=-1).sum(axis=-1)


def coincidence_amplitudes(state: FockState, rows: np.ndarray) -> np.ndarray:
    """Amplitude of detecting one photon in each of N output modes, for a stack of them.

    ``rows`` has shape (..., N, modes): N rows of a transfer matrix over
    ``state.registry``, one per output mode, each a row of the matrix or a
    combination of rows (a detector projecting onto a polarization ket).
    Each amplitude is the sum over the state's terms of amp · perm(rows on
    the occupied columns) / sqrt(prod n!); for distinct output modes it is
    the amplitude of that output occupation.
    """
    if rows.shape[-2] != state.photon_number:
        raise ValueError(
            f"{rows.shape[-2]} output modes for a state of {state.photon_number} photons"
        )
    terms = list(state.terms())
    columns = np.array(
        [[mode for mode, n in occ for _ in range(n)] for occ, _ in terms], dtype=int
    ).reshape(len(terms), state.photon_number)
    weights = np.array(
        [amp / math.sqrt(math.prod(math.factorial(n) for _, n in occ)) for occ, amp in terms],
        dtype=complex,
    )
    # rows[..., columns] is (..., N, terms, N): move the term axis out
    submatrices = np.moveaxis(rows[..., columns], -2, -3)
    return permanents(submatrices) @ weights
