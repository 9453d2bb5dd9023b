"""A dense first-quantized reference for the permanent engine.

An N-photon state is a symmetric N-index tensor over the modes of a tuple
of paths (``modes``): the occupation ket with modes m_1 .. m_N (repeats
allowed) is the normalized sum of e_{m_s(1)} ⊗ .. ⊗ e_{m_s(N)} over all
orderings s, and a superposition is a sum of such tensors.  A linear
network acts with its transfer matrix on every index (``np.einsum``), and
the amplitude of an output occupation is the overlap with its ket.  No
permanent appears, and nothing is shared with ``lopcsim`` beyond
``ElementSpec``'s paths and matrix: the mode indices and each kind's
channels are laid out here, from ``lopcsim.elements``' documented
convention, and not by the compile.

``transfer`` is also the reference for the compile path: each element is
embedded here on its own as a full mode-space matrix, and the products,
read on the six input columns (target, control and program input, H then
V), must equal ``CompiledCircuit.rows`` bit for bit
(``tests/test_compose.py``).
"""

import itertools

import numpy as np


def modes(paths):
    """The index of each (path, pol) mode over ``paths``: H, then V, of each
    path in turn."""
    return {mode: i for i, mode in enumerate(itertools.product(paths, "HV"))}


def channels(spec):
    """The (path, pol) modes of ``spec``'s matrix columns and rows: a
    splitter (a, b, t, r) takes (a H, b H, a V, b V) to (t H, r H, t V, r V),
    any other kind (H, V) of its path to themselves."""
    if len(spec.paths) == 1:
        same = tuple((spec.paths[0], pol) for pol in "HV")
        return same, same
    a, b, t, r = spec.paths
    return ((a, "H"), (b, "H"), (a, "V"), (b, "V")), ((t, "H"), (r, "H"), (t, "V"), (r, "V"))


def embed(size, ins, outs, matrix):
    """``matrix`` from the modes ``ins`` onto the modes ``outs`` as a matrix
    over ``size`` modes: the columns of modes not in ``ins`` stay identity,
    so light already on one of ``outs`` passes on untouched."""
    step = np.eye(size, dtype=complex)
    step[:, ins] = 0.0
    for i, col in enumerate(ins):
        step[outs, col] = matrix[:, i]
    return step


def transfer(paths, specs):
    """Transfer matrix over the modes of ``paths`` of the elements of
    ``specs`` applied in order, each one ``embed``ded on its ``channels``."""
    index = modes(paths)
    u = np.eye(len(index), dtype=complex)
    for spec in specs:
        ins, outs = ([index[ch] for ch in side] for side in channels(spec))
        u = embed(len(index), ins, outs, spec.element) @ u
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
