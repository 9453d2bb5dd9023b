"""lopcsim: simulator and verification harness for a post-selected
linear-optical controlled-phase gate whose phase is set by a third,
detected "program" photon."""

__version__ = "0.1.0"

from .elements import ElementSpec
from .fock import (
    FockState,
    LinearElement,
    ModeRegistry,
    coincidence_amplitudes,
    linear_element,
    make_photon_state,
    permanents,
)
from .gates import (
    Branch,
    CompiledCircuit,
    GateGrid,
    fidelity,
    hom_scan,
    ideal_cphase,
    prepare_inputs,
)
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
    strip_corrections,
    validate,
)
from .oracle import OracleBranch, OraclePath, branch_table, oracle_conditional_gate, path_amplitude

__all__ = [
    "__version__",
    "Branch",
    "CircuitNetlist",
    "CompiledCircuit",
    "ElementSpec",
    "FockState",
    "GateGrid",
    "LinearElement",
    "MeasurementOutcome",
    "MeasurementRule",
    "ModeRegistry",
    "NetlistError",
    "NetlistValidationError",
    "OracleBranch",
    "OraclePath",
    "Ports",
    "branch_table",
    "builtin_variant",
    "coincidence_amplitudes",
    "fidelity",
    "hom_scan",
    "ideal_cphase",
    "linear_element",
    "make_photon_state",
    "oracle_conditional_gate",
    "parse",
    "path_amplitude",
    "permanents",
    "prepare_inputs",
    "render",
    "strip_corrections",
    "validate",
]
