"""A dense first-quantized reference for the permanent engine.

An N-photon state is a symmetric N-index tensor over the modes of its
registry: the occupation ket with modes m_1 .. m_N (repeats allowed) is the
normalized sum of e_{m_s(1)} ⊗ .. ⊗ e_{m_s(N)} over all orderings s.  A
linear network acts with its transfer matrix on every index (``np.einsum``),
and the amplitude of an output occupation is the overlap with its ket.  No
permanent appears and nothing is shared with ``lopcsim.fock`` beyond the
state and element types: elements are embedded here on their own.
"""

import itertools

import numpy as np

from lopcsim.fock import ModeLabel


def transfer(registry, elements):
    """Transfer matrix of ``elements`` applied in order; other columns stay identity."""
    u = np.eye(len(registry), dtype=complex)
    for element in elements:
        step = np.eye(len(registry), dtype=complex)
        ins = [registry.index(ModeLabel(*ch)) for ch in element.channels_in]
        outs = [registry.index(ModeLabel(*ch)) for ch in element.channels_out]
        step[:, ins] = 0.0
        for i, col in enumerate(ins):
            step[outs, col] = element.matrix[:, i]
        u = step @ u
    return u


def ket(size, modes):
    """Tensor of the occupation ket with one photon in each of ``modes``."""
    t = np.zeros((size,) * len(modes), dtype=complex)
    for order in itertools.permutations(modes):
        t[order] += 1.0
    return t / np.linalg.norm(t)


def tensor(state):
    size = len(state.registry)
    return sum(
        amp * ket(size, [m for m, n in occ for _ in range(n)]) for occ, amp in state.terms()
    )


def evolve(t, u):
    n = t.ndim
    ins, outs = "ijk"[:n], "abc"[:n]
    return np.einsum(",".join(o + i for o, i in zip(outs, ins)) + f",{ins}->{outs}", *[u] * n, t)


def amplitude(t, modes):
    """Amplitude of the output occupation with one photon in each of ``modes``."""
    return np.vdot(ket(t.shape[0], modes), t)
