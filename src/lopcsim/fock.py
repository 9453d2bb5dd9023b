"""Few-photon bosonic states over (path, polarization) modes, and how linear
optics acts on them.

A mode is a ``(path, pol)`` channel tuple; a ``ModeRegistry`` gives each
one a dense index.  States live in a sparse occupation-number
representation: a map from occupation vectors to complex amplitudes, with
the standard (a†)^n/√(n!) basis normalization.  Subnormalized states are
legal throughout.

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

import cmath
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

#: A mode: (path, polarization); states and linear elements act on these.
Channel = tuple[str, str]


class ModeRegistry:
    """Ordered mode set, H and V of each path in turn, with a (path, pol) -> index map."""

    def __init__(self, paths: Iterable[str]):
        paths = tuple(paths)
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path names in registry")
        self.paths = paths
        self.channel_index = {ch: i for i, ch in enumerate(itertools.product(paths, POLS))}

    def index(self, channel: Channel) -> int:
        try:
            return self.channel_index[channel]
        except (KeyError, TypeError):
            raise ValueError(f"unknown mode {channel}") from None

    def __len__(self) -> int:
        return len(self.channel_index)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModeRegistry) and self.paths == other.paths

    def __hash__(self) -> int:
        return hash(self.paths)

    def __repr__(self) -> str:
        return f"ModeRegistry(paths={self.paths!r})"


class FockState:
    """Sparse N-photon state: occupation vector -> complex amplitude.

    Each occupation lists strictly ascending modes of ``registry``, each with
    a count of at least one, the counts summing to ``photon_number``; every
    amplitude is finite.  Anything else raises ValueError.
    """

    __slots__ = ("registry", "photon_number", "amplitudes")

    def __init__(
        self,
        registry: ModeRegistry,
        photon_number: int,
        amplitudes: Mapping[Occupation, complex] | None = None,
    ):
        if not isinstance(photon_number, (int, np.integer)) or photon_number < 0:
            raise ValueError(
                f"occupations need a non-negative integer photon number, got {photon_number!r}"
            )
        self.registry = registry
        self.photon_number = n = int(photon_number)
        amps: dict[Occupation, complex] = {}
        for occ, amp in (amplitudes or {}).items():
            modes, counts = [m for m, _ in occ], [c for _, c in occ]
            ordered = all(m in range(len(registry)) for m in modes) and modes == sorted(set(modes))
            if not ordered or sum(counts) != n or not all(c in range(1, n + 1) for c in counts):
                raise ValueError(f"occupation {occ} is not {n} photons on ascending registry modes")
            amps[occ] = complex(amp)
            if not cmath.isfinite(amps[occ]):
                raise ValueError(f"occupation {occ} has a non-finite amplitude {amp!r}")
        self.amplitudes = amps

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def terms(self):
        return self.amplitudes.items()

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


def linear_element(
    name: str,
    channels_in: Sequence[Channel],
    channels_out: Sequence[Channel],
    matrix: np.ndarray,
) -> LinearElement:
    """Build a LinearElement: distinct H/V channels and a subunitary matrix."""
    m = np.asarray(matrix, dtype=complex)
    channels_in, channels_out = tuple(channels_in), tuple(channels_out)
    k = len(channels_in)
    if m.shape != (k, k) or len(channels_out) != k:
        raise ValueError(f"{name}: matrix shape {m.shape} does not match {k} channels")
    if not np.isfinite(m).all():
        raise ValueError(f"{name}: matrix has non-finite entries")
    if len(set(channels_in)) != k or len(set(channels_out)) != k:
        raise ValueError(f"{name}: duplicate channels")
    for channel in channels_in + channels_out:
        if channel[1] not in POLS:
            raise ValueError(f"{name}: channel {channel} has a polarization not in {POLS}")
    if k:
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        if top > 1.0 + 1e-12:
            raise ValueError(f"{name}: matrix is not subunitary (max singular value {top!r})")
    return LinearElement(name, channels_in, channels_out, m)


def make_photon_state(
    registry: ModeRegistry,
    photons: Sequence[Sequence[tuple[Channel, complex]]],
) -> FockState:
    """Assemble an N-photon state from one superposed creation operator per photon.

    Each entry of ``photons`` lists distinct ((path, pol) channel, amplitude) pairs
    whose squared amplitudes must sum to one; a channel outside ``registry``
    raises ``unknown mode``.  The resulting state is renormalized, which
    supplies the bosonic normalization factors whenever photons overlap in the
    same mode (two photons placed in one mode give occupation 2 with
    amplitude 1), and amplitudes at or below ``PRUNE_TOL`` are dropped.
    """
    amps: dict[Occupation, complex] = {(): 1.0 + 0j}
    for i, photon in enumerate(photons):
        total = sum(abs(a) ** 2 for _, a in photon)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"photon {i}: amplitudes have squared norm {total:.6g}, expected 1")
        indices = [registry.index(channel) for channel, _ in photon]
        for j, (channel, _) in enumerate(photon):
            if indices[j] in indices[:j]:
                raise ValueError(f"photon {i}: mode {channel} is listed twice")
        new: dict[Occupation, complex] = {}
        for occ, amp in amps.items():
            for idx, (_, a) in zip(indices, photon):
                if a == 0:
                    continue
                counts = dict(occ)
                n = counts.get(idx, 0)
                counts[idx] = n + 1
                key = tuple(sorted(counts.items()))
                new[key] = new.get(key, 0j) + amp * a * math.sqrt(n + 1)
        amps = new
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm == 0.0:
        raise ValueError("assembled state has zero norm")
    amps = {occ: complex(1.0 / norm) * a for occ, a in amps.items()}
    kept = {occ: a for occ, a in amps.items() if not abs(a) <= PRUNE_TOL}
    return FockState(registry, len(photons), kept)


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
