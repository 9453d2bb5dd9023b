"""The permanents that turn linear optics into photon amplitudes.

A mode is one polarization, H or V, of one path.  There is no state type: a
gate input is three photons, one in each of three distinct input modes, and
is given as amplitudes over their polarizations (``gates.CompiledCircuit.run``).
``gates.CompiledCircuit`` is the one place that lays the modes out as rows.

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

import numpy as np


def permanents(m: np.ndarray) -> np.ndarray:
    """Permanent of each n×n matrix of a stack (..., n, n), summed over the n! permutations;
    1 for n = 0, the product over the one, empty permutation."""
    n = m.shape[-1]
    perms = itertools.permutations(range(n))
    perms = np.array(list(perms), dtype=int).reshape(math.factorial(n), n)
    return m[..., np.arange(n), perms].prod(axis=-1).sum(axis=-1)
