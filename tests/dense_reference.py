"""A dense first-quantized reference for the permanent engine.

An N-photon state is a symmetric N-index tensor over the modes of a
registry: the occupation ket with modes m_1 .. m_N (repeats allowed) is the
normalized sum of e_{m_s(1)} ⊗ .. ⊗ e_{m_s(N)} over all orderings s, and a
superposition is a sum of such tensors.  A linear network acts with its
transfer matrix on every index (``np.einsum``), and the amplitude of an
output occupation is the overlap with its ket.  No permanent appears and
nothing is shared with ``lopcsim.fock`` beyond the registry and element
types.

``transfer`` is also the reference for the compile path: each element is
embedded here on its own as a full mode-space matrix, and the products
must equal ``CompiledCircuit.rows`` bit for bit (``tests/test_compose.py``).
"""

import itertools

import numpy as np


def transfer(registry, elements):
    """Transfer matrix of ``elements`` applied in order.

    Each element is embedded as a matrix over every mode of ``registry``:
    its matrix fills the block of its input columns and output rows, and the
    columns of modes it does not take as input stay identity, so light
    already on one of its output paths passes on untouched.
    """
    u = np.eye(len(registry), dtype=complex)
    for element in elements:
        step = np.eye(len(registry), dtype=complex)
        ins = [registry.channel_index[ch] for ch in element.channels_in]
        outs = [registry.channel_index[ch] for ch in element.channels_out]
        step[:, ins] = 0.0
        for i, col in enumerate(ins):
            step[outs, col] = element.matrix[:, i]
        u = step @ u
    return u


def tensor(size, modes):
    """Tensor of the occupation ket over ``size`` modes with one photon in
    each entry of ``modes``; a mode listed k times holds k photons."""
    t = np.zeros((size,) * len(modes), dtype=complex)
    for order in itertools.permutations(modes):
        t[order] += 1.0
    return t / np.linalg.norm(t)


def evolve(t, u):
    """``u`` applied to every index of ``t``, one index at a time (``optimize``),
    not as one loop over all the indices at once."""
    n = t.ndim
    ins, outs = "ijk"[:n], "abc"[:n]
    subscripts = ",".join(o + i for o, i in zip(outs, ins)) + f",{ins}->{outs}"
    return np.einsum(subscripts, *[u] * n, t, optimize=True)


def amplitude(t, modes):
    """Amplitude of the output occupation with one photon in each of ``modes``."""
    return np.vdot(tensor(t.shape[0], modes), t)
