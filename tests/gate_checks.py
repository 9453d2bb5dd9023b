"""Physics checks of a gate that the tests read and no command prints:
whether the branches of a phase grid agree and are diagonal, and a netlist
with its feed-forward corrections taken out."""

from dataclasses import replace

import numpy as np

from lopcsim.netlist import CircuitNetlist, MeasurementRule

#: Largest entry-wise deviation of a branch operator from the primary one
#: (after removing the global phase between them) that still counts as equal.
BRANCH_TOL = 1e-10
#: Largest off-diagonal magnitude of a branch operator that counts as zero.
DIAG_TOL = 1e-12


def branch_scores(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(consistent, diagonal) of ``CompiledCircuit.operators`` (phases, branches, 4, 4), one
    bool per phase each.  ``consistent``: every branch equals the primary one
    up to a global phase within ``BRANCH_TOL``; the dual-output layouts fail
    this by design, because the second port carries an extra pi on |11>.
    ``diagonal``: every off-diagonal entry of every branch is within
    ``DIAG_TOL`` of zero."""
    flat = ops.reshape(ops.shape[:2] + (16,))
    ref_idx = np.argmax(np.abs(flat[:, 0]), axis=1)
    at_ref = np.take_along_axis(flat, ref_idx[:, None, None], axis=2)[..., 0]
    # global phase taking the primary operator onto each branch
    ratio = at_ref * at_ref[:, :1].conj()
    mag = np.abs(ratio)
    phase = np.divide(ratio, mag, out=np.ones_like(ratio), where=mag > 0)
    deviation = np.max(np.abs(flat - phase[..., None] * flat[:, :1]), axis=2)
    off_diagonal = np.max(np.abs(ops[..., ~np.eye(4, dtype=bool)]), axis=2)
    return np.all(deviation <= BRANCH_TOL, axis=1), np.all(off_diagonal <= DIAG_TOL, axis=1)


def strip_corrections(netlist: CircuitNetlist) -> CircuitNetlist:
    """Copy of a netlist with all feed-forward corrections disabled."""
    outcomes = tuple(replace(o, correct=None) for o in netlist.measurement.outcomes)
    return replace(netlist, measurement=MeasurementRule(netlist.measurement.path, outcomes))
