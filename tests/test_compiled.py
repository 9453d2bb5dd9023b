"""The compiled circuit's phase-affine operators against per-phase runs.

``reference_gate`` is the per-phase assembly: it runs the four basis
inputs with the program photon (|H> - e^{i phi}|V>)/sqrt(2) through
``CompiledCircuit.run``, one (2, 2, 2) input at a time, and scores the
operators with plain loops.  The
compiled circuit must agree with it on every operator to 1e-12 and on
every flag exactly.

``evaluate`` forms only the entries its scores read.  Its scores, and the
grid ``operators`` forms, must equal bit for bit the same expressions on the
whole operator grid (G_H - e^{i phi} G_V)/sqrt(2), the fidelity written out
as the sum of all 16 products G* U; ``sweep`` must never form the operator
grid, and ``verify`` must form it once.
"""

import math
import tracemalloc
from collections.abc import Sequence
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lopcsim.fock
import lopcsim.gates
from lopcsim import (
    CompiledCircuit,
    GateGrid,
    NetlistValidationError,
    builtin_variant,
    fidelity,
    ideal_cphase,
    parse,
    validate,
)
from lopcsim import cli
from lopcsim.elements import ElementSpec
from lopcsim.netlist import MeasurementRule

from .gate_checks import branch_scores, strip_corrections
from .test_gates import KET0, KET1, product_input


def detuned(variant, plate, angle):
    """A built-in layout with one half-wave plate turned to ``angle`` degrees."""
    nl = builtin_variant(variant)
    stages = tuple(
        replace(s, params=(complex(angle),)) if s.name == plate else s for s in nl.stages
    )
    return replace(nl, stages=stages)


NETLISTS = {
    **{v: builtin_variant(v) for v in ("basic", "ff", "dual", "full")},
    "full-uncorrected": strip_corrections(builtin_variant("full")),
    "basic-HWP2-32.5": detuned("basic", "HWP2", 32.5),
    "full-HWP2-32.5": detuned("full", "HWP2", 32.5),
    "full-HWP5-30": detuned("full", "HWP5", 30.0),
}


def reference_gate(netlist, phi, branch_tol=1e-10, diag_tol=1e-12):
    circuit = CompiledCircuit(netlist)
    operators = {key: np.zeros((4, 4), dtype=complex) for key in circuit.branch_keys}
    kets = (KET0, KET1)
    for t in (0, 1):
        for c in (0, 1):
            for key, amplitudes in zip(circuit.branch_keys,
                                       circuit.run(product_input(kets[t], kets[c], phi))):
                operators[key][:, 2 * t + c] = amplitudes
    ops = list(operators.values())
    primary = ops[0]
    ref_idx = int(np.argmax(np.abs(primary.ravel())))
    consistent = True
    for op in ops:
        ratio = op.ravel()[ref_idx] * primary.ravel()[ref_idx].conjugate()
        phase = ratio / abs(ratio) if abs(ratio) > 0 else 1.0
        if np.max(np.abs(op - phase * primary)) > branch_tol:
            consistent = False
    diagonal = all(np.max(np.abs(op - np.diag(np.diag(op)))) <= diag_tol for op in ops)
    probs = [float(np.sum(np.abs(op[:, 0]) ** 2)) for op in ops]
    u = np.diag([1, 1, 1, np.exp(1j * phi)])
    fid = abs(np.trace(primary.conj().T @ u)) ** 2 / (4 * np.sum(np.abs(primary) ** 2))
    return list(operators), ops, probs, sum(probs), fid, consistent, diagonal


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_phase_affine_operators_match_direct_evolution(name):
    netlist = NETLISTS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    phis = [0.0, math.pi, *rng.uniform(-3 * math.pi, 3 * math.pi, size=5)]
    circuit = CompiledCircuit(netlist)
    grid, grid_ops = circuit.evaluate(phis), circuit.operators(phis)
    grid_consistent, grid_diagonal = branch_scores(grid_ops)
    for k, phi in enumerate(phis):
        keys, ops, probs, p_success, fid, consistent, diagonal = reference_gate(netlist, phi)
        assert list(grid.branch_keys) == keys
        for branch_op, branch_prob, op, prob in zip(grid_ops[k], grid.probabilities[k], ops, probs):
            assert np.max(np.abs(branch_op - op)) <= 1e-12
            assert abs(branch_prob - prob) <= 1e-12
        assert abs(grid.p_success[k] - p_success) <= 1e-12
        assert abs(grid.fidelity[k] - fid) <= 1e-12
        assert grid_consistent[k] == consistent
        assert grid_diagonal[k] == diagonal


def test_detuned_netlists_depart_from_ideal():
    circuits = {name: CompiledCircuit(NETLISTS[name])
                for name in ("basic-HWP2-32.5", "ff", "full-uncorrected", "full-HWP5-30")}
    grids = {name: circuit.evaluate([0.7]) for name, circuit in circuits.items()}
    consistent, diagonal = {}, {}
    for name, circuit in circuits.items():
        (consistent[name],), (diagonal[name],) = branch_scores(circuit.operators([0.7]))
    assert grids["basic-HWP2-32.5"].fidelity[0] < 0.96
    assert diagonal["basic-HWP2-32.5"]
    # a single branch always agrees with itself, whatever the phase of its
    # largest entry
    assert consistent["basic-HWP2-32.5"]
    assert consistent["ff"]
    assert not consistent["full-uncorrected"]
    assert not diagonal["full-HWP5-30"]


def test_sweep_cost_does_not_grow_with_grid_length(monkeypatch):
    calls = {"run": 0, "permanents": 0}
    run, permanents = CompiledCircuit.run, lopcsim.gates.permanents

    def counting_run(self, psi):
        calls["run"] += 1
        return run(self, psi)

    def counting_permanents(m):
        calls["permanents"] += 1
        return permanents(m)

    monkeypatch.setattr(CompiledCircuit, "run", counting_run)
    monkeypatch.setattr(lopcsim.gates, "permanents", counting_permanents)
    netlist = builtin_variant("full")
    CompiledCircuit(netlist).evaluate(np.linspace(0.0, math.pi, 3))
    short = dict(calls)
    calls.update(run=0, permanents=0)
    CompiledCircuit(netlist).evaluate(np.linspace(0.0, math.pi, 51))
    assert calls == short
    # one batch of permanents over the eight basis inputs, and no run
    assert short == {"run": 0, "permanents": 1}


@pytest.mark.parametrize("name", ["basic", "ff", "dual", "full", "full-HWP2-32.5"])
def test_program_operators_are_the_permanents_of_each_input_in_port_order(name):
    """Column 2t+c of program operator p of each branch and output is the
    permanent of its three rows on the target column t, the control column
    2 + c and the program column 4 + p, bit for bit."""
    circuit = CompiledCircuit(NETLISTS[name])
    expected = np.empty_like(circuit.program_operators)
    for b, out, t, c, p in np.ndindex(len(circuit.branch_keys), 4, 2, 2, 2):
        submatrix = circuit.rows[b, out][:, [t, 2 + c, 4 + p]]
        expected[p, b, out, 2 * t + c] = lopcsim.fock.permanents(submatrix)
    assert circuit.program_operators.tobytes() == expected.tobytes()


def test_grid_is_a_record_of_arrays():
    circuit = CompiledCircuit(builtin_variant("full"))
    phis = [0.0, 0.4, math.pi]
    grid = circuit.evaluate(phis)
    assert isinstance(grid, GateGrid) and not isinstance(grid, Sequence)
    assert grid.phis.tolist() == phis
    assert circuit.operators(phis).shape == (3, 4, 4, 4) and grid.probabilities.shape == (3, 4)
    for field in ("phis", "p_success", "fidelity"):
        assert getattr(grid, field).shape == (3,)
    assert grid.branch_keys == circuit.branch_keys
    assert np.allclose(grid.p_success, 1 / 12, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_grid_keeps_the_phases_it_scored(dtype):
    circuit = CompiledCircuit(NETLISTS["full-HWP2-32.5"])  # its fidelity varies with phase
    phis = np.array([0.1, 0.2], dtype=dtype)
    grid = circuit.evaluate(phis)
    phis[0] = 3.0
    scored = circuit.evaluate([0.1, 0.2])
    assert grid.phis.tolist() == [0.1, 0.2]
    for field in ("phis", "probabilities", "p_success", "fidelity"):
        assert getattr(grid, field).tobytes() == getattr(scored, field).tobytes()


@pytest.mark.parametrize("variant", ["basic", "ff", "dual", "full"])
def test_the_order_of_the_path_statements_changes_no_bit(variant):
    """The netlist's path order is the row order of the compile, but every
    composed entry and every permanent is taken in port order: a layout
    gives the same bits whatever order it declares its paths in."""
    text = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    lines = text.splitlines(keepends=True)
    declared = [i for i, line in enumerate(lines) if line.startswith("path ")]
    grid = np.linspace(-math.pi, math.pi, 9)
    circuit = CompiledCircuit(builtin_variant(variant))
    shipped, shipped_ops = circuit.evaluate(grid), circuit.operators(grid)
    rng = np.random.default_rng(sum(map(ord, variant)))
    orders = set()
    for _ in range(30):
        shuffled = list(lines)
        for at, line in zip(declared, rng.permutation([lines[i] for i in declared])):
            shuffled[at] = line
        netlist = parse("".join(shuffled))
        orders.add(netlist.paths)
        compiled = CompiledCircuit(netlist)
        grid_of_shuffle = compiled.evaluate(grid)
        assert grid_of_shuffle.branch_keys == shipped.branch_keys
        assert compiled.operators(grid).tobytes() == shipped_ops.tobytes()
        for field in ("probabilities", "p_success", "fidelity"):
            assert getattr(grid_of_shuffle, field).tobytes() == getattr(shipped, field).tobytes()
    assert len(orders) == 30


def test_compiled_circuit_validates_once_and_rejects_invalid_netlists(monkeypatch):
    nl = builtin_variant("basic")
    bad = replace(nl, measurement=replace(nl.measurement, path="ghost"))
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(bad)
    assert caught.value.diagnostics == ["measurement on undeclared path 'ghost'"]
    calls = []
    monkeypatch.setattr(lopcsim.gates, "validate", lambda n: calls.append(n) or validate(n))
    circuit = CompiledCircuit(nl)
    assert circuit.branch_keys == (("D", "T_OUT"),)
    first = circuit.operators([0.3])[0, 0]
    again = circuit.operators([0.3, 1.0])[0, 0]
    assert np.array_equal(first, again)
    assert len(calls) == 1


@pytest.mark.parametrize("variant, specs", [("basic", 9), ("ff", 10), ("dual", 11), ("full", 12)])
def test_compiling_builds_each_element_spec_once(monkeypatch, variant, specs):
    built = []
    build = ElementSpec.build

    def counting(spec):
        built.append(spec.name)
        return build(spec)

    shipped = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    CompiledCircuit(builtin_variant(variant))  # the shared layout may be built already
    monkeypatch.setattr(ElementSpec, "build", counting)
    circuit = CompiledCircuit(parse(shipped))  # a fresh parse; validate included
    assert len(built) == len(set(built)) == specs
    circuit.evaluate([0.3])
    circuit.evaluate([0.3, 1.0])
    assert len(built) == specs
    CompiledCircuit(builtin_variant(variant))  # the shared layout keeps its builds
    assert len(built) == specs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_raises(bad):
    circuit = CompiledCircuit(builtin_variant("basic"))
    for method in (circuit.evaluate, circuit.operators):  # operators checks as evaluate does
        with pytest.raises(ValueError, match="finite"):
            method([0.0, bad])
        with pytest.raises(ValueError, match="empty"):
            method([])


#: basic.lopc with HX and PX inserted after F2: PX reflects light from t_up
#: onto C_OUT, which the control photon already lights.  ``validate``
#: accepts it; compiling must not.
MERGED_LOPC = """\
path t_in
path t_in2
path t_up
path t_low
path c_in
path C_OUT
path p_in
path d
path T_OUT
path T_OUT2
pbs PBS1 in=t_in,t_in2 out=t_up,t_low
filter F1 path=t_up th=0.5 tv=0.5
jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,0.8660254037844386
ppbs PPBS in=t_low,c_in out=t_low,C_OUT tv=0.5773502691896258
filter F2 path=C_OUT th=0.5773502691896258 tv=1.0
hwp HX path=t_up angle=22.5
pbs PX in=t_up,t_in2 out=t_up,C_OUT
hwp HWP2 path=t_low angle=22.5
pbs PBS3 in=t_low,p_in out=t_low,d
measure path=d outcome D ket=0.7071067811865475,0.7071067811865475
hwp HWP3 path=t_low angle=22.5
pbs PBS2 in=t_up,t_low out=T_OUT,T_OUT2
postselect T_OUT=1 C_OUT=1 d=1
ports target_in=t_in control_in=c_in program_in=p_in target_out=T_OUT control_out=C_OUT
"""


#: basic.lopc with only PX inserted after F2, reflecting t_up onto C_OUT.
#: Both columns that meet on C_OUT are attenuated (by F1 and by PPBS and F2),
#: so the merged light has no more than unit norm, yet it still merges.
ATTENUATED_MERGE_LOPC = MERGED_LOPC.replace("hwp HX path=t_up angle=22.5\n", "").replace(
    "pbs PX in=t_up,t_in2 out=t_up,C_OUT", "pbs PX in=t_up,t_in2 out=C_OUT,t_up"
)
#: (netlist text, line of PX) of each merged-path case.
MERGED_CASES = [
    pytest.param(MERGED_LOPC, 17, id="rotated"),
    pytest.param(ATTENUATED_MERGE_LOPC, 16, id="attenuated"),
]


@pytest.mark.parametrize("text, line", MERGED_CASES)
def test_light_merged_onto_a_lit_path_is_a_located_error(text, line):
    netlist = parse(text)
    assert validate(netlist) == []
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(netlist)
    (diagnostic,) = caught.value.diagnostics
    assert diagnostic == f"line {line}: PX: sends light onto an already-lit path (C_OUT)"
    # the same elements in code carry no line
    with pytest.raises(NetlistValidationError, match=r"^PX: sends light"):
        CompiledCircuit(replace(netlist, stages=tuple(replace(s, line=None) for s in netlist.stages)))


def edited(variant, statement, replacement):
    """The shipped layout's text with one statement replaced."""
    text = resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_text("utf-8")
    assert statement in text
    return text.replace(statement, replacement)


F2 = "filter F2 path=C_OUT th=0.5773502691896258 tv=1.0"
PBS1 = "pbs PBS1 in=t_in,t_in2 out=t_up,t_low"
NO_CONTROL = "control input does not reach the control output"
#: (variant, netlist text, diagnostics) of shipped layouts with all of one
#: input's light filtered out: each passes ``validate`` and fails to compile.
DEAD_CASES = [
    pytest.param("basic", edited("basic", F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),
                 [f"outcome 'D': {NO_CONTROL}"], id="basic-F2"),
    pytest.param("full", edited("full", F2, "filter F2 path=C_OUT th=0.0 tv=0.0"),
                 [f"outcome 'D': {NO_CONTROL}", f"outcome 'A': {NO_CONTROL}"], id="full-F2"),
    pytest.param("basic", edited("basic", PBS1, f"filter FP path=p_in th=0.0 tv=0.0\n{PBS1}"),
                 ["outcome 'D': program input does not reach the detector path"], id="p_in"),
    pytest.param("basic", edited("basic", PBS1, f"filter FT path=t_in th=0.0 tv=0.0\n{PBS1}"),
                 ["outcome 'D': target input does not reach any target output"], id="t_in"),
]


@pytest.mark.parametrize("variant, text, diagnostics", DEAD_CASES)
def test_an_input_whose_light_reaches_no_port_is_an_error_per_outcome(variant, text, diagnostics):
    netlist = parse(text)
    assert validate(netlist) == []
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(netlist)
    assert caught.value.diagnostics == diagnostics


def test_a_measurement_without_outcomes_is_a_validation_error(monkeypatch, tmp_path, capsys):
    nl = replace(builtin_variant("basic"), measurement=MeasurementRule("d", ()))
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(nl)
    assert caught.value.diagnostics == ["measurement declares no outcomes"]
    monkeypatch.setattr(cli, "builtin_variant", lambda variant: nl)
    assert cli.main(["verify", "--variant", "basic", "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: measurement declares no outcomes\n"


def test_input_ports_must_be_distinct():
    nl = builtin_variant("basic")
    clash = replace(nl, ports=replace(nl.ports, program_in=nl.ports.control_in))
    assert any("three distinct paths" in d for d in validate(clash))
    assert not any("three distinct paths" in d for d in validate(nl))


def bits(values) -> list[int]:
    """The int64 patterns of an array's float64 (or complex128 parts') values."""
    return np.ascontiguousarray(values).view(np.int64).ravel().tolist()


def drawn_netlists():
    """``tests/test_compose.py``'s random compilable layouts (that module imports this one)."""
    from .test_compose import gate_netlists

    return gate_netlists()


#: Every grid starts with 0.0, -0.0 and pi, then up to 60 phases of |phi| <= 1e3.
PHASE_GRIDS = st.lists(st.floats(-1e3, 1e3), max_size=60).map(lambda drawn: [0.0, -0.0, math.pi,
                                                                              *drawn])


def fidelity_of_all_16(gates, phis):
    """|Tr(G† U)|^2 / (4 Tr(G† G)), the overlap summed over all 16 products G* U."""
    overlap = (np.conj(gates) * ideal_cphase(phis)).sum(axis=(-2, -1))
    return np.abs(overlap) ** 2 / (4.0 * (np.abs(gates) ** 2).sum(axis=(-2, -1)))


def assert_scores_and_ops_equal_the_whole_grid(circuit, phis):
    g_h, g_v = circuit.program_operators
    ops = (g_h - np.exp(1j * np.array(phis))[:, None, None, None] * g_v) / math.sqrt(2.0)
    probabilities = (np.abs(ops[..., 0]) ** 2).sum(-1)
    if not (np.abs(ops[:, 0]) ** 2).sum(axis=(-2, -1)).all():  # a zero primary operator
        with pytest.raises(ValueError, match="zero operator"):
            circuit.evaluate(phis)
        return
    scores = fidelity_of_all_16(ops[:, 0], phis)
    grid = circuit.evaluate(phis)
    assert bits(grid.probabilities) == bits(probabilities)
    assert bits(grid.p_success) == bits(probabilities.sum(axis=1))
    assert bits(grid.fidelity) == bits(scores)
    formed = circuit.operators(phis)
    assert formed.shape == ops.shape and bits(formed) == bits(ops)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(["basic", "ff", "dual", "full"]).map(builtin_variant),
                 st.deferred(drawn_netlists)), PHASE_GRIDS)
def test_the_scores_and_ops_equal_the_whole_operator_grid_bit_for_bit(netlist, phis):
    try:
        circuit = CompiledCircuit(netlist)
    except NetlistValidationError:  # a drawn netlist that merges light or leaves an input dead
        return
    assert_scores_and_ops_equal_the_whole_grid(circuit, phis)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["basic", "ff", "dual", "full"]), st.integers(0, 2**32 - 1), PHASE_GRIDS)
def test_the_scores_and_ops_equal_the_whole_grid_on_dense_operators(variant, seed, phis):
    # the layouts' operators are diagonal and few entries of a drawn netlist's are not
    # zero; random rows make every entry count, and so the order of every sum
    circuit = CompiledCircuit(builtin_variant(variant))
    rng = np.random.default_rng(seed)
    circuit.rows = rng.normal(size=circuit.rows.shape) + 1j * rng.normal(size=circuit.rows.shape)
    assert circuit.program_operators.all()  # formed from the drawn rows: no entry is zero
    assert_scores_and_ops_equal_the_whole_grid(circuit, phis)


@pytest.mark.parametrize("phases", [1, 60, 20_000])
@pytest.mark.parametrize("layout", ["C", "column-major blocks"])
def test_fidelity_equals_the_sum_of_all_16_products_bit_for_bit(layout, phases):
    # the stacks the package scores: C order, and 4x4 blocks stored column by
    # column, as program_operators and ops are; 20000 gates pass numpy's
    # threshold for forming a product in place of a temporary operand
    rng = np.random.default_rng(phases)
    gates = rng.normal(size=(phases, 4, 4)) + 1j * rng.normal(size=(phases, 4, 4))
    if layout != "C":
        gates = gates.transpose(0, 2, 1)
    phis = rng.uniform(-1e3, 1e3, phases)
    phis[0] = -0.0
    assert bits(fidelity(gates, phis)) == bits(fidelity_of_all_16(gates, phis))
    assert bits(fidelity(gates[0], phis[0])) == bits(fidelity_of_all_16(gates[0], phis[0]))


def test_taking_the_program_operators_sets_no_other_attribute():
    circuit = CompiledCircuit(builtin_variant("full"))
    before = set(vars(circuit))
    circuit.program_operators
    assert set(vars(circuit)) - before == {"program_operators"}


SWEEPS = [[*grid, "--format", fmt] for grid in (["--steps", "33"], ["--phi=-0.0"],
                                                  ["--from=-7", "--to=20", "--steps", "401"])
          for fmt in ("csv", "json")]


@pytest.mark.parametrize("variant", ["basic", "ff", "dual", "full"])
def test_sweep_prints_the_same_bytes_without_reading_ops(variant, monkeypatch, tmp_path):
    expected, out = tmp_path / "expected", tmp_path / "out"
    runs = [["sweep", "--variant", variant, *grid, "--meta"] for grid in SWEEPS]
    printed = []
    for argv in runs:
        assert cli.main([*argv, "--out", str(expected)]) == 0
        printed.append(expected.read_bytes())

    def unformed(circuit, phi_grid):
        raise AssertionError("sweep formed the operator grid")

    monkeypatch.setattr(CompiledCircuit, "operators", unformed)
    for argv, text in zip(runs, printed):
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == text


@pytest.mark.parametrize("variant", ["basic", "full"])
def test_verify_forms_the_operator_grid_once(variant, monkeypatch, tmp_path):
    formed = []
    form = CompiledCircuit.operators

    def counted(circuit, phi_grid):
        formed.append(phi_grid)
        return form(circuit, phi_grid)

    monkeypatch.setattr(CompiledCircuit, "operators", counted)
    assert cli.main(["verify", "--variant", variant, "--steps", "9",
                     "--out", str(tmp_path / "o.csv")]) == 0
    assert len(formed) == 1


#: tracemalloc peaks, in bytes, of a 20000-point ``sweep`` run in process when
#: ``evaluate`` formed the whole operator grid (numpy 2.4.6, Python 3.11.7).
WHOLE_GRID_PEAK = {"full": 42_760_715, "basic": 16_644_434}


def sweep_peak(variant: str, steps: int, out) -> int:
    argv = ["sweep", "--variant", variant, "--out", str(out)]
    assert cli.main([*argv, "--steps", "3"]) == 0  # the parser and the shipped layout, once
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--steps", str(steps)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_sweep_peaks_below_the_whole_operator_grid(tmp_path):
    # measured: full 22.3 MB, basic 9.9 MB, where the grid arrays dominate
    assert sweep_peak("full", 20_000, tmp_path / "o.csv") < 0.75 * WHOLE_GRID_PEAK["full"]
    assert sweep_peak("basic", 20_000, tmp_path / "o.csv") < 0.75 * WHOLE_GRID_PEAK["basic"]


#: tracemalloc peak, in bytes, of ``evaluate`` of ``full`` at 20000 phases when it
#: laid out every branch's read entries in one array (numpy 2.4.6, Python 3.11.7).
READ_LAYOUT_PEAK = 13_601_888


def evaluate_peak(variant: str, phases: int) -> int:
    circuit = CompiledCircuit(builtin_variant(variant))
    circuit.program_operators  # formed once, outside the count
    phis = np.linspace(0.0, math.pi, phases)
    tracemalloc.start()
    try:
        circuit.evaluate(phis)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_peaks_alike_whatever_the_branch_count():
    # measured: 10.1 MB for either; each slice's broadcast is let go before the next
    full, basic = evaluate_peak("full", 20_000), evaluate_peak("basic", 20_000)
    assert full < 0.8 * READ_LAYOUT_PEAK
    assert abs(full - basic) <= 0.05 * full
