"""Linear optics over (path, polarization) modes, and the permanents that
turn it into photon amplitudes.

A mode is a ``(path, pol)`` channel tuple; a ``ModeRegistry`` gives each
one a dense index.  There is no state type: a gate input is three photons,
one in each of three distinct input modes, and is given as amplitudes over
their polarizations (``gates.CompiledCircuit.run``).

A ``LinearElement`` is not checked here: ``elements.ElementSpec.build``
makes those of a netlist, and each kind's ``KINDS`` matrix checks its range.

A linear network acts through its mode transfer matrix U (column i is the
image of input mode i).  The amplitude of finding N photons in N distinct
output modes, from one photon in each of N distinct input modes, is the
permanent of the N×N submatrix of U on those output rows and input columns
(Scheel, quant-ph/0406127); ``permanents`` takes a whole stack of them at
once.

Everything here is a pure function over immutable values, so independent
simulations can safely run in parallel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

H = "H"
V = "V"
POLS = (H, V)

#: A mode: (path, polarization); linear elements act on these.
Channel = tuple[str, str]


class ModeRegistry:
    """Ordered mode set, H and V of each path in turn, with a (path, pol) -> index map."""

    def __init__(self, paths: Iterable[str]):
        paths = tuple(paths)
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path names in registry")
        self.paths = paths
        self.channel_index = {ch: i for i, ch in enumerate(itertools.product(paths, POLS))}

    def __len__(self) -> int:
        return len(self.channel_index)


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


def permanents(m: np.ndarray) -> np.ndarray:
    """Permanent of each n×n matrix of a stack (..., n, n), summed over the n! permutations;
    1 for n = 0, the product over the one, empty permutation."""
    n = m.shape[-1]
    perms = itertools.permutations(range(n))
    perms = np.array(list(perms), dtype=int).reshape(math.factorial(n), n)
    return m[..., np.arange(n), perms].prod(axis=-1).sum(axis=-1)
