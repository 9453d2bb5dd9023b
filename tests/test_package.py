"""The package's public names, and the README's library example."""

import dataclasses
import re
from pathlib import Path

import lopcsim
import lopcsim.elements
import lopcsim.fock
import lopcsim.gates
import lopcsim.netlist
import lopcsim.oracle

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "CircuitNetlist", "CompiledCircuit", "ElementSpec", "GateGrid",
    "MeasurementOutcome", "MeasurementRule", "NetlistError",
    "NetlistValidationError", "OracleBranch", "OraclePath", "Ports", "__version__",
    "branch_table", "builtin_variant", "fidelity", "hom_scan", "ideal_cphase",
    "parse", "path_amplitude", "permanents", "render", "validate",
]
#: Names removed from the library: ``CompiledCircuit`` and ``GateGrid`` replace
#: the first five, ``ElementSpec`` the six element builders, and
#: ``CompiledCircuit.run`` on a (2, 2, 2) amplitude array the sparse Fock-state
#: engine and its input builders, the next eight, ``ElementSpec.build``,
#: whose kinds check their own matrices, the next one, and ``ports`` the
#: ``CircuitNetlist.postselect`` field and its total.  The next six were read
#: by the tests alone, which now keep them in ``tests/``.  The next five laid
#: out the modes, which the netlist's path order now does: ``ElementSpec.build``
#: gives the matrix alone.  The last one looked a correction up by name, where
#: each ``MeasurementOutcome.correct`` is now the element itself.
REMOVED = [
    "run", "conditional_gate", "success_probability", "sweep_phi", "ConditionalGateReport",
    "pbs", "ppbs", "hwp", "jones", "pol_filter", "phase_flip",
    "FockState", "make_photon_state", "coincidence_amplitudes", "PRUNE_TOL", "Occupation",
    "Branch", "BASIS_KETS", "prepare_inputs", "linear_element", "postselect", "postselect_total",
    "branch_consistent", "diagonal", "BRANCH_TOL", "DIAG_TOL", "strip_corrections",
    "oracle_conditional_gate", "LinearElement", "ModeRegistry", "Channel", "registry", "POLS",
    "correction",
]


def test_every_exported_name_resolves_once():
    assert len(lopcsim.__all__) == len(set(lopcsim.__all__))
    missing = [name for name in lopcsim.__all__ if not hasattr(lopcsim, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert sorted(lopcsim.__all__) == PUBLIC
    modules = (lopcsim, lopcsim.elements, lopcsim.fock, lopcsim.gates, lopcsim.netlist,
               lopcsim.oracle, lopcsim.GateGrid, lopcsim.CircuitNetlist)
    fields = [f.name for f in dataclasses.fields(lopcsim.CircuitNetlist)]
    assert [n for n in REMOVED if n in fields or any(hasattr(m, n) for m in modules)] == []


def test_netlist_fields_and_the_build_method_are_pinned():
    """Each outcome carries its correction, so no field lists them; ``perfbench``
    reads ``stages`` and wraps ``build`` in ``ElementSpec``'s class dict."""
    fields = [f.name for f in dataclasses.fields(lopcsim.CircuitNetlist)]
    assert fields == ["paths", "stages", "measurement", "measure_after", "ports"]
    assert callable(vars(lopcsim.ElementSpec)["build"])


def test_readme_python_examples_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with the lines above the block, so a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), {})
