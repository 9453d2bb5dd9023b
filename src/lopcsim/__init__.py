"""lopcsim: simulator and verification harness for a post-selected
linear-optical controlled-phase gate whose phase is set by a third,
detected "program" photon."""

__version__ = "0.1.0"

from .elements import ElementSpec
from .fock import permanents
from .gates import CompiledCircuit, GateGrid, fidelity, hom_scan, ideal_cphase
from .netlist import (
    CircuitNetlist,
    MeasurementOutcome,
    MeasurementRule,
    NetlistError,
    NetlistValidationError,
    Ports,
    builtin_variant,
    parse,
    render,
    validate,
)
from .oracle import OracleBranch, OraclePath, branch_table, path_amplitude

__all__ = [
    "__version__",
    "CircuitNetlist",
    "CompiledCircuit",
    "ElementSpec",
    "GateGrid",
    "MeasurementOutcome",
    "MeasurementRule",
    "NetlistError",
    "NetlistValidationError",
    "OracleBranch",
    "OraclePath",
    "Ports",
    "branch_table",
    "builtin_variant",
    "fidelity",
    "hom_scan",
    "ideal_cphase",
    "parse",
    "path_amplitude",
    "permanents",
    "render",
    "validate",
]
