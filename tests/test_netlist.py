import math
import re
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

import lopcsim.netlist
from lopcsim import (
    CompiledCircuit,
    NetlistError,
    NetlistValidationError,
    builtin_variant,
    parse,
    render,
    validate,
)
from lopcsim import oracle
from lopcsim.cli import main
from lopcsim.elements import KINDS, ElementSpec
from lopcsim.netlist import MeasurementRule, VARIANTS, _usage

from .gate_checks import branch_scores
from .test_package import README


def test_basic_stage_order_matches_layout():
    nl = builtin_variant("basic")
    assert [s.name for s in nl.stages] == [
        "PBS1",
        "F1",
        "HWP1",
        "PPBS",
        "F2",
        "HWP2",
        "PBS3",
        "HWP3",
        "PBS2",
    ]
    assert nl.measure_after == 7  # corrections fire right behind PBS3
    assert nl.stages[0].paths == ("t_in", "t_in2", "t_up", "t_low")
    assert nl.stages[3].paths == ("t_low", "c_in", "t_low", "C_OUT")
    assert nl.stages[6].paths == ("t_low", "p_in", "t_low", "d")
    assert nl.stages[8].paths == ("t_up", "t_low", "T_OUT", "T_OUT2")
    assert "postselect T_OUT=1 C_OUT=1 d=1" in render(nl).splitlines()
    assert nl.ports.target_out == ("T_OUT",)
    assert nl.measurement.path == "d"
    assert [o.label for o in nl.measurement.outcomes] == ["D"]


def test_builtin_flags():
    assert [o.label for o in builtin_variant("basic").measurement.outcomes] == ["D"]
    ff = builtin_variant("ff")
    assert [o.label for o in ff.measurement.outcomes] == ["D", "A"]
    assert ff.measurement.outcomes[1].correct.name == "PLM"
    assert ff.corrections == (ff.measurement.outcomes[1].correct,)
    dual = builtin_variant("dual")
    names = [s.name for s in dual.stages]
    assert "HWP4" in names and "HWP5" in names
    assert dual.ports.target_out == ("T_OUT", "T_OUT2")
    f1 = next(s for s in dual.stages if s.name == "F1")
    assert abs(f1.params[0].real - 1 / math.sqrt(2)) < 1e-15
    full = builtin_variant("full")
    assert len(full.measurement.outcomes) == 2
    assert full.ports.target_out == ("T_OUT", "T_OUT2")


@pytest.mark.parametrize("variant", VARIANTS)
def test_builtins_validate_clean(variant):
    assert validate(builtin_variant(variant)) == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_render_parse_round_trip(variant):
    nl = builtin_variant(variant)
    assert parse(render(nl)) == nl


def shipped(variant: str) -> bytes:
    return resources.files("lopcsim").joinpath(f"circuits/{variant}.lopc").read_bytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_shipped_fixture_matches_builder(variant):
    text = shipped(variant)
    assert parse(text.decode("utf-8")) == builtin_variant(variant)
    assert builtin_variant(variant) is builtin_variant(variant)
    assert render(builtin_variant(variant)).encode("utf-8") == text


@pytest.mark.parametrize("variant", VARIANTS)
def test_shipped_layouts_carry_the_gate_constants(variant):
    nl = parse(shipped(variant).decode("utf-8"))
    specs = {s.name: s for s in nl.stages}
    split = np.array(specs["HWP1"].params).reshape(2, 2)
    assert np.max(np.abs(split - KINDS["hwp"].matrix(75.0))) <= 1e-15
    assert abs(specs["PPBS"].params[0] - 1 / math.sqrt(3)) <= 1e-15
    assert abs(specs["F2"].params[0] - 1 / math.sqrt(3)) <= 1e-15
    f1 = 1 / math.sqrt(2) if variant in ("dual", "full") else 0.5
    assert max(abs(p - f1) for p in specs["F1"].params) <= 1e-15


@pytest.mark.parametrize("name", ["../full", "full.lopc", "FULL", ""])
def test_builtin_variant_rejects_other_names(name):
    with pytest.raises(ValueError, match=r"choose from \['basic', 'dual', 'ff', 'full'\]"):
        builtin_variant(name)


def test_variant_lists_name_the_shipped_files():
    files = resources.files("lopcsim").joinpath("circuits").iterdir()
    stems = sorted(f.name.removesuffix(".lopc") for f in files if f.name.endswith(".lopc"))
    assert stems == list(VARIANTS) == sorted(oracle.VARIANTS)


def test_parse_single_hwp_line():
    text = render(builtin_variant("basic"))
    nl = parse(text)
    hwp2 = next(s for s in nl.stages if s.name == "HWP2")
    assert hwp2.kind == "hwp"
    assert hwp2.paths == ("t_low",)
    assert hwp2.params == (complex(22.5),)


def test_empty_input_reports_missing_postselect():
    with pytest.raises(NetlistError, match="no postselect declared"):
        parse("")


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" + render(builtin_variant("basic")) + "\n# trailing\n"
    assert parse(text) == builtin_variant("basic")


def test_parse_errors_are_located():
    base = render(builtin_variant("basic")).splitlines()

    def corrupt(lineno, new_line):
        lines = list(base)
        lines[lineno - 1] = new_line
        return "\n".join(lines) + "\n"

    with pytest.raises(NetlistError) as err:
        parse(corrupt(11, "pbz PBS1 in=t_in,t_in2 out=t_up,t_low"))
    assert err.value.line == 11 and err.value.col == 1

    with pytest.raises(NetlistError) as err:
        parse(corrupt(16, "hwp HWP2 path=nowhere angle=22.5"))
    assert err.value.line == 16

    with pytest.raises(NetlistError) as err:
        parse(corrupt(16, "hwp HWP2 path=t_low angle=abc"))
    assert err.value.line == 16

    with pytest.raises(NetlistError) as err:
        parse(corrupt(16, "hwp PBS1 path=t_low angle=22.5"))
    assert "duplicate element name" in str(err.value)


def test_parse_rejects_non_orthogonal_kets():
    ff = render(builtin_variant("ff"))
    broken = ff.replace(
        "outcome A ket=0.7071067811865475,-0.7071067811865475",
        "outcome A ket=0.7071067811865475,0.7071067811865475",
    )
    with pytest.raises(NetlistError, match="not orthogonal"):
        parse(broken)


def test_parse_rejects_wrong_photon_budget():
    text = render(builtin_variant("basic")).replace(
        "postselect T_OUT=1 C_OUT=1 d=1", "postselect T_OUT=1 d=1"
    )
    with pytest.raises(NetlistError, match="budget"):
        parse(text)


def test_validate_flags_subunitary_filter():
    nl = builtin_variant("basic")
    stages = list(nl.stages)
    stages[1] = ElementSpec("filter", "F1", ("t_up",), (complex(1.5), complex(0.5)))
    diags = validate(replace(nl, stages=tuple(stages)))
    assert any("subunitary" in d or "transmissivity" in d for d in diags)


def test_validate_flags_undeclared_measure_path():
    nl = builtin_variant("basic")
    bad = replace(nl, measurement=replace(nl.measurement, path="ghost"))
    diags = validate(bad)
    assert any("undeclared" in d for d in diags)


def test_validate_flags_stage_touching_detector_after_measure():
    nl = builtin_variant("basic")
    stages = list(nl.stages)
    stages.append(ElementSpec("hwp", "LATE", ("d",), (complex(10.0),)))
    diags = validate(replace(nl, stages=tuple(stages)))
    assert any("measurement path" in d for d in diags)


def test_a_correction_on_the_measurement_path_is_rejected(tmp_path, capsys):
    # the correction for outcome A would flip the detected photon before its
    # projection, turning branch A into branch D
    lines = shipped("ff").decode("utf-8").splitlines(keepends=True)
    assert lines[17] == "phaseflip PLM path=t_low\n"
    lines[17] = "phaseflip PLM path=d\n"
    message = "line 18: PLM: touches measurement path 'd' after the measurement point"
    assert validate(parse("".join(lines))) == [message]
    path = tmp_path / "ff_on_d.lopc"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["verify", "--netlist", str(path), "--variant", "ff", "--steps", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


#: The ff layout's D outcome line, and the same line with the A outcome's correction.
FF_D = "outcome D ket=0.7071067811865475,0.7071067811865475"
FF_D_CORRECTED = FF_D + " correct=PLM"


def test_a_correction_both_outcomes_carry_is_one_element():
    text = shipped("ff").decode("utf-8").replace(FF_D, FF_D_CORRECTED)
    nl = parse(text)
    d, a = nl.measurement.outcomes
    assert d.correct is a.correct and a.correct.name == "PLM"
    assert nl.corrections == (a.correct,)
    assert render(nl) == text  # PLM is written once, before the measure lines
    assert parse(render(nl)) == nl
    assert parse(plm_last(text)) == nl


def test_two_correction_specs_that_share_a_name_are_a_duplicate():
    nl = builtin_variant("ff")
    d, a = nl.measurement.outcomes
    twin = replace(a.correct)  # equal, but another object
    bad = replace(nl, measurement=replace(nl.measurement, outcomes=(replace(d, correct=twin), a)))
    assert bad.corrections == (twin, a.correct)
    assert validate(bad) == ["line 18: duplicate element name 'PLM'"]


def _records(nl):
    """The records of a shipped netlist that the wrong-type cases change, by name."""
    f1 = next(s for s in nl.stages if s.name == "F1")
    return {"netlist": nl, "PBS1": nl.stages[0], "F1": f1, "measurement": nl.measurement,
            "A": nl.measurement.outcomes[1], "ports": nl.ports}


def assert_refused_where_built(record, field, value, message):
    """``record`` with ``field`` set to ``value`` raises ValueError(``message``), both
    through ``dataclasses.replace`` and called with every field."""
    given = {f.name: getattr(record, f.name) for f in fields(record)}
    for build in (lambda: replace(record, **{field: value}),
                  lambda: type(record)(**{**given, field: value})):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "record, field, value, diagnostic",
    [
        ("netlist", "paths", ("t_in", 7), "invalid path name 7"),
        ("F1", "name", None, "line 12: invalid element name None"),
        ("A", "label", 7, "invalid outcome label 7"),
        ("netlist", "measure_after", 2.5, "measurement position must be an integer, got 2.5"),
        ("ports", "target_out", "T_OUT", "ports target_out must be a tuple of paths, got 'T_OUT'"),
        ("A", "correct", "PLM", "outcome 'A': correct must be an ElementSpec, got 'PLM'"),
        ("netlist", "paths", ("t_in", ["x"]), "invalid path name ['x']"),
        ("F1", "name", ["F1"], "line 12: invalid element name ['F1']"),
        ("A", "label", ["A"], "invalid outcome label ['A']"),
        ("PBS1", "paths", (["t_in"], "t_in2", "t_up", "t_low"),
         "line 11: PBS1: undeclared path ['t_in']"),
        ("measurement", "path", ["d"], "measurement on undeclared path ['d']"),
        ("ports", "control_out", ["C_OUT"], "ports reference undeclared path ['C_OUT']"),
        ("ports", "target_in", ["t_in"], "ports reference undeclared path ['t_in']"),
        ("ports", "control_out", 7, "ports reference undeclared path 7"),
    ],
    ids=["path-name", "element-name", "outcome-label", "measure-after", "target-out", "correct",
         "path-name-list", "element-name-list", "outcome-label-list", "stage-path-list",
         "measure-path-list", "control-out-list", "target-in-list", "control-out-int"],
)
def test_validate_reports_a_value_of_the_wrong_type_once(record, field, value, diagnostic):
    # refused where the record is built, with validate's wording, so neither
    # validate nor render ever sees the value
    assert_refused_where_built(_records(builtin_variant("ff"))[record], field, value, diagnostic)


@pytest.mark.parametrize("record, field, value, message", [
    ("netlist", "stages", None, "stages must be a tuple, got None"),
    ("netlist", "stages", [], "stages must be a tuple, got []"),
    ("netlist", "stages", ("HWPX",), "stage must be an ElementSpec, got 'HWPX'"),
    ("netlist", "paths", ["t_in"], "paths must be a tuple, got ['t_in']"),
    ("netlist", "measurement", "d", "measurement must be a MeasurementRule, got 'd'"),
    ("netlist", "ports", "x", "ports must be a Ports, got 'x'"),
    ("measurement", "outcomes", ["A"], "measurement outcomes must be a tuple, got ['A']"),
    ("measurement", "outcomes", ("A",),
     "measurement outcome must be a MeasurementOutcome, got 'A'"),
    ("PBS1", "paths", ["t_in"], "line 11: PBS1: paths must be a tuple, got ['t_in']"),
    ("PBS1", "params", None, "line 11: PBS1: params must be a tuple, got None"),
    ("PBS1", "kind", ["pbs"], "line 11: PBS1: unknown element kind ['pbs']"),
], ids=["stages-none", "stages-list", "stage-str", "paths-list", "measurement-str", "ports-str",
        "outcomes-list", "outcome-str", "element-paths-list", "element-params-none",
        "element-kind-list"])
def test_a_container_or_record_of_the_wrong_type_is_refused_where_built(
        record, field, value, message):
    assert_refused_where_built(_records(builtin_variant("ff"))[record], field, value, message)


@pytest.mark.parametrize("after_last", [False, True], ids=["before-the-first", "after-the-last"])
def test_a_measurement_position_outside_the_stage_list_is_refused_where_built(after_last):
    nl = builtin_variant("ff")
    at = len(nl.stages) + 1 if after_last else -1
    message = "measurement position outside the stage list"
    assert_refused_where_built(nl, "measure_after", at, message)
    for edge in (0, len(nl.stages)):
        assert parse(render(replace(nl, measure_after=edge))).measure_after == edge


def test_render_refuses_a_correct_that_validate_lists():
    nl = builtin_variant("ff")
    d, a = nl.measurement.outcomes
    # a correct that is not an ElementSpec is refused, with validate's text,
    # where the outcome is built
    message = "outcome 'A': correct must be an ElementSpec, got 'PLM'"
    assert_refused_where_built(a, "correct", "PLM", message)
    # a correction spec that validate lists is refused by render
    correct = replace(a.correct, params=(1.0,))
    bad = replace(nl, measurement=replace(nl.measurement, outcomes=(d, replace(a, correct=correct))))
    message = "phaseflip takes 0 parameters, got 1"
    assert validate(bad) == [f"line 18: PLM: {message}"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        render(bad)


@pytest.mark.parametrize("edit, message, refused_where_built", [
    (lambda nl: replace(nl, ports=replace(nl.ports, control_out=["C_OUT"])),
     "ports reference undeclared path ['C_OUT']", True),
    (lambda nl: replace(nl, measurement=replace(nl.measurement, path=["d"])),
     "measurement on undeclared path ['d']", True),
    (lambda nl: replace(nl, ports=replace(nl.ports, control_out="ghost")),
     "ports reference undeclared path 'ghost'", False),
    (lambda nl: replace(nl, measurement=replace(nl.measurement, path="ghost")),
     "measurement on undeclared path 'ghost'", False),
], ids=["control_out-list", "measurement-list", "control_out-ghost", "measurement-ghost"])
def test_render_refuses_a_reference_that_validate_lists(edit, message, refused_where_built):
    nl = builtin_variant("ff")
    if refused_where_built:
        # a path that is not a string never reaches validate or render: its
        # record refuses it with the same text
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            edit(nl)
        return
    bad = edit(nl)
    assert message in validate(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render(bad)


def test_the_grammar_copies_list_every_kind_as_the_table_does():
    block = README.read_text(encoding="utf-8").split("## Netlist format", 1)[1].split("```")[1]
    for copy in (lopcsim.netlist.__doc__, block):
        lines = {line.split("#", 1)[0].strip() for line in copy.splitlines()}
        assert [k for k in KINDS if _usage(k, KINDS[k]) not in lines] == []


@pytest.mark.parametrize(
    "spec",
    [
        ElementSpec("pbs", "X", ("t_in", "t_in2", "t_up")),
        ElementSpec("hwp", "X", ("t_up",), ()),
        ElementSpec("hwp", "X", ("t_up", "t_low"), (22.5,)),
    ],
)
def test_validate_reports_malformed_specs(spec):
    nl = builtin_variant("basic")
    diags = validate(replace(nl, stages=nl.stages + (spec,)))
    assert any(d.startswith(f"X: {spec.kind} takes") for d in diags), diags


@pytest.mark.parametrize(
    "angle, message",
    [
        (math.inf, "hwp angle is non-finite: inf"),
        ("x", "hwp angle must be a number, got 'x'"),
        (None, "hwp angle must be a number, got None"),
    ],
)
def test_validate_lists_a_bad_parameter_of_an_element_built_in_code(angle, message):
    # the parser rejects these at their token; built in code, they reach the build
    nl = builtin_variant("basic")
    stages = tuple(replace(s, params=(angle,)) if s.name == "HWP2" else s for s in nl.stages)
    bad = replace(nl, stages=stages)
    assert validate(bad) == [f"line 16: HWP2: {message}"]
    with pytest.raises(NetlistValidationError, match=re.escape(message)):
        CompiledCircuit(bad)


@pytest.mark.parametrize(
    "ket",
    [(math.nan, math.nan), (math.inf, 0.0), (complex(0.0, math.nan), 1.0)],
)
def test_validate_reports_non_finite_outcome_kets(ket):
    nl = builtin_variant("ff")
    outcomes = (nl.measurement.outcomes[0], replace(nl.measurement.outcomes[1], ket=ket))
    diags = validate(replace(nl, measurement=replace(nl.measurement, outcomes=outcomes)))
    assert "outcome 'A': ket is not normalized" in diags


@pytest.mark.parametrize("ket", [(1.0, 0.0, 0.0), (1.0,), 1.0])
def test_validate_reports_ket_of_wrong_length(ket):
    nl = builtin_variant("ff")
    d, a = nl.measurement.outcomes
    outcomes = (replace(d, ket=ket), a)
    diags = validate(replace(nl, measurement=replace(nl.measurement, outcomes=outcomes)))
    assert diags == [f"outcome 'D': ket needs 2 components, got {np.size(ket)}"]


@pytest.mark.parametrize(
    "ket, shown", [(("x", 0), "'x'"), ((None, 1), "None"), ((1.0, "0"), "'0'")]
)
def test_validate_reports_a_ket_entry_that_is_not_a_number(ket, shown):
    # built in code, not parsed: reported as an outcome's problem, with no
    # other test of that ket, rather than escaping or reading as NaN
    nl = builtin_variant("ff")
    d, a = nl.measurement.outcomes
    bad = replace(nl, measurement=replace(nl.measurement, outcomes=(replace(d, ket=ket), a)))
    message = f"outcome 'D': ket entry must be a number, got {shown}"
    assert validate(bad) == [message]
    with pytest.raises(NetlistValidationError, match=f"^{re.escape(message)}$"):
        CompiledCircuit(bad)


def test_render_checks_parameter_count():
    nl = builtin_variant("basic")
    stages = tuple(replace(s, params=()) if s.kind == "ppbs" else s for s in nl.stages)
    with pytest.raises(ValueError, match="ppbs takes 1 parameters, got 0"):
        render(replace(nl, stages=stages))


def test_imaginary_part_of_a_real_field_is_rejected():
    nl = parse(render(builtin_variant("basic")))
    hwp2 = nl.stages[5]
    assert hwp2.name == "HWP2" and hwp2.line
    tilted = replace(hwp2, params=(complex(22.5, 7.0),))
    bad = replace(nl, stages=tuple(tilted if s is hwp2 else s for s in nl.stages))
    assert validate(bad) == [f"line {hwp2.line}: HWP2: hwp angle must be real, got (22.5+7j)"]
    with pytest.raises(ValueError, match=r"hwp angle must be real, got \(22\.5\+7j\)"):
        render(bad)


def with_postselect(variant, statement):
    """The shipped layout's text with ``statement`` for its postselect line."""
    text = shipped(variant).decode("utf-8")
    return text.replace("postselect T_OUT=1 C_OUT=1 d=1", statement)


ONE_PHOTON = "postselect must require exactly one photon on"
#: (layout, postselect statement, the error naming it): basic.lopc has it on
#: line 21 and one target output, full.lopc on line 25 and two.
BAD_POSTSELECT = [
    pytest.param("basic", "postselect T_OUT=1 C_OUT=1 d=1 t_in=-1 t_in2=1",
                 "line 21:32: postselect counts must be non-negative", id="negative-count"),
    pytest.param("basic", "postselect T_OUT=1 C_OUT=1 d=1 t_in=0 t_in=0",
                 "line 21:39: duplicate path 't_in' in postselect", id="duplicate-path"),
    pytest.param("basic", "postselect T_OUT=1 C_OUT=1 d=0 p_in=1",
                 f"line 21:0: {ONE_PHOTON} the measurement path", id="program-input"),
    pytest.param("full", "postselect T_OUT=1 C_OUT=2 d=0",
                 f"line 25:0: {ONE_PHOTON} the measurement path", id="two-on-control"),
    pytest.param("basic", "postselect T_OUT=1 C_OUT=0 d=1 t_up=1",
                 f"line 21:0: {ONE_PHOTON} the control output", id="none-on-control"),
    pytest.param("full", "postselect T_OUT=1 T_OUT2=0 C_OUT=1 d=1",
                 f"line 25:0: {ONE_PHOTON} exactly one target output port", id="both-targets"),
    # T_OUT2 is a path of basic.lopc but not one of its target outputs
    pytest.param("basic", "postselect T_OUT2=1 C_OUT=1 d=1",
                 f"line 21:0: {ONE_PHOTON} exactly one target output port", id="not-a-target"),
]


@pytest.mark.parametrize("variant, statement, error", BAD_POSTSELECT)
def test_a_bad_postselect_is_rejected_at_its_line(variant, statement, error):
    with pytest.raises(NetlistError) as err:
        parse(with_postselect(variant, statement))
    assert str(err.value) == error


@pytest.mark.parametrize(
    "variant, statement",
    [
        ("full", "postselect T_OUT2=1 C_OUT=1 d=1"),
        ("dual", "postselect T_OUT2=1 C_OUT=1 d=1"),
        ("basic", "postselect d=1 T_OUT=1 C_OUT=1 t_up=0"),
    ],
)
def test_every_postselect_that_ports_allow_gives_the_same_netlist(variant, statement):
    # ports fix the branches, so the statement changes nothing it passes
    nl = parse(with_postselect(variant, statement))
    assert nl == builtin_variant(variant)
    assert render(nl).encode("utf-8") == shipped(variant)


def test_parse_reports_the_photon_budget_before_the_kets():
    text = with_postselect("ff", "postselect T_OUT=1 C_OUT=1 d=1 t_up=1")
    text = text.replace("ket=0.7071067811865475,-0.7071067811865475", "ket=0.9,0.1")
    with pytest.raises(NetlistError) as err:
        parse(text)
    assert str(err.value) == "line 23:0: postselect totals 4 photons, expected budget 3"
    with pytest.raises(NetlistError, match="^line 20:0: outcome 'A': ket is not normalized$"):
        parse(text.replace(" t_up=1", ""))


def test_an_empty_target_out_is_a_validation_error():
    # refused where the ports are built, so no netlist has one
    ports = builtin_variant("basic").ports
    assert_refused_where_built(ports, "target_out", (), "ports target_out names no path")


#: (kind, name of its first element in full.lopc) of each kind with a numeric field.
NUMERIC_KINDS = [("ppbs", "PPBS"), ("hwp", "HWP4"), ("jones", "HWP1"), ("filter", "F1")]


@pytest.mark.parametrize("kind_name, name", NUMERIC_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_refuses_a_non_finite_parameter_that_validate_lists(kind_name, name, bad):
    nl = builtin_variant("full")
    spec = next(s for s in nl.stages if s.name == name)
    assert spec.kind == kind_name
    fields = [f for f in KINDS[kind_name].fields for _ in range(f.count)]
    assert fields and len(fields) == len(spec.params)
    for i, f in enumerate(fields):
        params = spec.params[:i] + (complex(bad),) + spec.params[i + 1:]
        stages = tuple(replace(s, params=params) if s is spec else s for s in nl.stages)
        value = complex(bad) if f.is_complex else bad
        message = f"{kind_name} {f.key} is non-finite: {value}"
        assert validate(replace(nl, stages=stages)) == [f"line {spec.line}: {name}: {message}"]
        with pytest.raises(ValueError) as err:
            render(replace(nl, stages=stages))
        assert str(err.value) == message


def test_validate_rejects_a_measurement_without_outcomes():
    nl = replace(builtin_variant("basic"), measurement=MeasurementRule("d", ()))
    assert validate(nl) == ["measurement declares no outcomes"]


def test_validate_rejects_a_repeated_outcome_label():
    nl = builtin_variant("basic")
    (outcome,) = nl.measurement.outcomes
    s = 1 / math.sqrt(2)
    twice = replace(nl, measurement=MeasurementRule("d", (outcome, replace(outcome, ket=(s, -s)))))
    assert validate(twice) == ["duplicate outcome label 'D'"]
    with pytest.raises(NetlistError, match="duplicate outcome label 'D'"):
        parse(render(twice))


def test_a_repeated_path_is_a_validation_error():
    nl = builtin_variant("basic")
    twice = replace(nl, paths=nl.paths + ("d",))
    assert validate(twice) == ["duplicate path 'd'"]
    with pytest.raises(NetlistValidationError) as caught:
        CompiledCircuit(twice)
    assert caught.value.diagnostics == ["duplicate path 'd'"]
    with pytest.raises(NetlistError, match="duplicate path 'd'"):
        parse(render(twice))


def _rename_f1(nl, name="F 1"):
    stages = tuple(replace(s, name=name) if s.name == "F1" else s for s in nl.stages)
    return replace(nl, stages=stages)


def _relabel_outcome(nl):
    (outcome,) = nl.measurement.outcomes
    return replace(nl, measurement=MeasurementRule("d", (replace(outcome, label="D 1"),)))


@pytest.mark.parametrize(
    "change, diagnostic",
    [
        (lambda nl: replace(nl, paths=nl.paths + ("x y",)), "invalid path name 'x y'"),
        (_rename_f1, "line 12: invalid element name 'F 1'"),
        (_relabel_outcome, "invalid outcome label 'D 1'"),
    ],
    ids=["path", "element", "outcome"],
)
def test_validate_rejects_names_that_do_not_round_trip(change, diagnostic):
    bad = change(builtin_variant("basic"))
    assert validate(bad) == [diagnostic]
    with pytest.raises(NetlistError):
        parse(render(bad))


#: (line of basic.lopc, a replacement with an undeclared path left of a bad
#: key, column of the path)
TWO_FAULT_LINES = [
    pytest.param(14, "ppbs PPBS in=ghost,c_in out=t_low,C_OUT tw=0.5773502691896258", 14,
                 id="element"),
    pytest.param(18, "measure path=ghost outcome D kat=0.7071067811865475,0.7071067811865475",
                 14, id="measure"),
    pytest.param(22, "ports target_in=ghost control_in=c_in program_in=p_in target_out=T_OUT "
                 "control_ot=C_OUT", 17, id="ports"),
]


@pytest.mark.parametrize("lineno, new_line, col", TWO_FAULT_LINES)
def test_a_line_reports_its_leftmost_fault(lineno, new_line, col):
    lines = resources.files("lopcsim").joinpath("circuits/basic.lopc").read_text().splitlines()
    lines[lineno - 1] = new_line
    with pytest.raises(NetlistError, match="undeclared path 'ghost'") as err:
        parse("\n".join(lines) + "\n")
    assert (err.value.line, err.value.col) == (lineno, col)


#: (line of basic.lopc, a replacement whose faulty token repeats an earlier
#: token's text, the message, column of the second copy)
REPEATED_TOKEN_LINES = [
    pytest.param(12, "filter F1 path=t_up\tth=0.5 \u00a0th=0.5", "expected tv=..., got 'th=0.5'",
                 29, id="element"),
    pytest.param(21, "postselect d=1\x1fT_OUT=1 C_OUT=1\u3000d=1",
                 "duplicate path 'd' in postselect", 32, id="postselect"),
]


@pytest.mark.parametrize("lineno, new_line, message, col", REPEATED_TOKEN_LINES)
def test_a_fault_is_located_at_its_own_token(lineno, new_line, message, col):
    lines = resources.files("lopcsim").joinpath("circuits/basic.lopc").read_text().splitlines()
    lines[lineno - 1] = new_line
    with pytest.raises(NetlistError) as err:
        parse("\n".join(lines) + "\n")
    assert str(err.value) == f"line {lineno}:{col}: {message}"


#: Characters that ``str.splitlines`` takes for line ends, which no editor shows
#: as one; the parser reads them as whitespace between tokens.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_a_newline_ends_a_line(char):
    basic = resources.files("lopcsim").joinpath("circuits/basic.lopc").read_text()
    assert parse(basic.replace("path t_in2\n", f"path{char}t_in2{char}\n")) == parse(basic)
    bad = basic.replace("path t_in2\n", f"path t_in2{char}\n").replace("t_in,t_in2", "t_in,ghost")
    with pytest.raises(NetlistError) as err:
        parse(bad)
    assert str(err.value) == "line 11:13: undeclared path 'ghost'"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_carriage_return_ends_a_line_as_in_text_mode(end, tmp_path):
    basic = resources.files("lopcsim").joinpath("circuits/basic.lopc").read_text()
    text = basic.replace("t_in,t_in2", "t_in,ghost").replace("\n", end)
    path = tmp_path / "basic.lopc"
    path.write_bytes(text.encode())
    for source in (text, path.read_text()):  # text mode turns every line end into \n
        with pytest.raises(NetlistError) as err:
            parse(source)
        assert str(err.value) == "line 11:13: undeclared path 'ghost'"
    assert parse(basic.replace("\n", end)) == parse(basic)


def test_validate_lists_every_rule_problem():
    nl = builtin_variant("ff")
    d, a = nl.measurement.outcomes
    bad = replace(nl, measurement=replace(nl.measurement, outcomes=(d, replace(a, ket=(0.9, 0.1)))))
    assert validate(bad) == [
        "outcome 'A': ket is not normalized",
        "outcome kets 'D' and 'A' are not orthogonal",
    ]


def test_disjoint_stages_commute():
    # F1 acts on the upper arm, HWP1 on the lower one; swapping them must
    # not change any branch amplitude.
    nl = builtin_variant("basic")
    stages = list(nl.stages)
    assert stages[1].name == "F1" and stages[2].name == "HWP1"
    stages[1], stages[2] = stages[2], stages[1]
    swapped = replace(nl, stages=tuple(stages))
    assert validate(swapped) == []
    phi = 0.9
    a = CompiledCircuit(nl).operators([phi])[0, 0]
    b = CompiledCircuit(swapped).operators([phi])[0, 0]
    assert np.max(np.abs(a - b)) < 1e-12


def test_measure_at_end_round_trips():
    # Without corrections the measurement point is physically irrelevant,
    # but its position must still survive the textual round trip.
    nl = builtin_variant("basic")
    moved = replace(nl, measure_after=len(nl.stages))
    assert validate(moved) == []
    assert parse(render(moved)) == moved
    phi = 0.6
    gate, moved_gate = (CompiledCircuit(n).operators([phi])[0, 0] for n in (nl, moved))
    assert np.max(np.abs(gate - moved_gate)) < 1e-12


def test_correction_position_matters():
    # Moving the measurement point behind the final beam splitter makes the
    # feed-forward flip act on an empty path, so the corrected branch keeps
    # its wrong sign and branch agreement is lost.
    nl = builtin_variant("ff")
    late = replace(nl, measure_after=len(nl.stages))
    assert validate(late) == []
    good = CompiledCircuit(nl).operators([0.9])
    bad = CompiledCircuit(late).operators([0.9])
    assert branch_scores(good)[0][0]
    assert not branch_scores(bad)[0][0]


def plm_last(text: str) -> str:
    """``text`` with its ``phaseflip PLM`` statement moved to just before ``postselect``."""
    lines = text.splitlines()
    plm = next(line for line in lines if line.startswith("phaseflip"))
    lines.remove(plm)
    lines.insert(next(i for i, line in enumerate(lines) if line.startswith("postselect")), plm)
    return "\n".join(lines) + "\n"


def test_correction_declared_after_measure_lines():
    late = parse(plm_last(shipped("ff").decode("utf-8")))
    assert late == builtin_variant("ff")
    assert late.measurement.outcomes[1].correct is late.corrections[0]


def make_mutations():
    """One corrupted token per fixture; every one must fail with a located error."""
    base = render(builtin_variant("full")).splitlines()

    def swap(lineno, new_line):
        lines = list(base)
        lines[lineno - 1] = new_line
        return "\n".join(lines) + "\n"

    # line numbers refer to the rendered full netlist
    mutations = [
        swap(1, "paths t_in"),  # unknown keyword
        swap(1, "path 0badname"),  # invalid identifier
        swap(2, "path t_in"),  # duplicate path
        swap(11, "pbs PBS1 in=t_in out=t_up,t_low"),  # wrong arity in path list
        swap(11, "pbs PBS1 in=t_in,ghost out=t_up,t_low"),  # undeclared path
        swap(11, "pbs PBS1 out=t_in,t_in2 in=t_up,t_low"),  # wrong key order
        swap(12, "filter F1 path=t_up th=abc tv=0.7071067811865475"),  # bad float
        swap(12, "filter F1 path=t_up th=0.7071067811865475"),  # missing arg
        swap(13, "hwp HWP4 path=t_up angle="),  # empty number
        swap(14, "jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5"),  # 3 entries
        swap(14, "jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,badj"),  # bad complex
        swap(15, "ppbs PPBS in=t_low,c_in out=t_low,C_OUT"),  # missing tv
        swap(16, "filter F2 paths=C_OUT th=0.5773502691896258 tv=1.0"),  # bad key
        swap(18, "pbs PBS3 in=t_low,p_in out=t_low,d extra=1"),  # stray token
        swap(19, "phaseflip PLM"),  # missing path
        swap(20, "measure path=d outcome D ket=0.7071067811865475"),  # 1-component ket
        swap(20, "measure path=d outcom D ket=0.7071067811865475,0.7071067811865475"),
        swap(21, "measure path=T_OUT outcome A ket=0.7071067811865475,-0.7071067811865475 correct=PLM"),  # conflicting measure path
        swap(21, "measure path=d outcome A ket=0.9,-0.1 correct=PLM"),  # unnormalized ket
        swap(21, "measure path=d outcome A ket=0.7071067811865475,-0.7071067811865475 correct=GHOST"),  # unknown correction
        swap(21, "measure path=d outcome D ket=0.7071067811865475,-0.7071067811865475 correct=PLM"),  # duplicate label
        swap(25, "postselect T_OUT=1 C_OUT=1 d=2"),  # wrong budget
        swap(25, "postselect T_OUT=1 C_OUT=1 ghost=1"),  # unknown path
        swap(25, "postselect T_OUT=1 C_OUT=1 d=x"),  # bad count
        swap(26, "ports target_in=t_in control_in=c_in program_in=p_in target_out=T_OUT,T_OUT2"),  # missing field
        "\n".join(base[:24] + [base[25]]) + "\n",  # postselect removed entirely
        # non-finite literals, one per numeric field
        swap(15, "ppbs PPBS in=t_low,c_in out=t_low,C_OUT tv=nan"),
        swap(13, "hwp HWP4 path=t_up angle=inf"),
        swap(12, "filter F1 path=t_up th=-inf tv=0.7071067811865475"),
        swap(16, "filter F2 path=C_OUT th=0.5773502691896258 tv=nan"),
        swap(14, "jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,inf"),
        swap(14, "jones HWP1 path=t_low m=-0.8660254037844386,0.5+nanj,0.5,0.8660254037844386"),
        swap(20, "measure path=d outcome D ket=nan,nan"),
        swap(21, "measure path=d outcome A ket=inf,0 correct=PLM"),
    ]
    return mutations


#: Line each fixture of make_mutations() is rejected at, in fixture order.  A
#: dangling correct= and a missing postselect are only detectable, and so
#: reported, at the last line of the input.
MUTATION_LINES = [1, 1, 2, 11, 11, 11, 12, 12, 13, 14, 14, 15, 16, 18, 19, 20, 20, 21, 21, 26, 21,
                  25, 25, 25, 26, 25] + [15, 13, 12, 16, 14, 14, 20, 21]


def test_mutation_corpus_rejected_with_location():
    mutations = make_mutations()
    assert len(mutations) == len(MUTATION_LINES)
    lines = []
    for text in mutations:
        with pytest.raises(NetlistError) as err:
            parse(text)
        lines.append(err.value.line)
    assert lines == MUTATION_LINES


NUMERIC_FIELDS = [
    # (line, text before the literal, text after it, message)
    (15, "ppbs PPBS in=t_low,c_in out=t_low,C_OUT tv=", "", "non-finite number"),
    (13, "hwp HWP4 path=t_up angle=", "", "non-finite number"),
    (12, "filter F1 path=t_up th=", " tv=0.7071067811865475", "non-finite number"),
    (14, "jones HWP1 path=t_low m=0.5,0.5,0.5,", "", "non-finite complex literal"),
    (20, "measure path=d outcome D ket=0.7071067811865475,", "", "non-finite complex literal"),
]


@pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=lambda f: f[1].split()[0])
@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_literals_are_rejected_at_their_value(field, literal):
    lineno, before, after, message = field
    lines = render(builtin_variant("full")).splitlines()
    lines[lineno - 1] = before + literal + after
    with pytest.raises(NetlistError, match=message) as err:
        parse("\n".join(lines) + "\n")
    value_col = before.rindex("=") + 2
    assert (err.value.line, err.value.col) == (lineno, value_col)


@pytest.mark.parametrize("literal", ["1+nanj", "infj", "nan-1j"])
def test_non_finite_complex_parts_are_rejected(literal):
    text = render(builtin_variant("full")).replace(
        "m=-0.8660254037844386,0.5,", f"m=-0.8660254037844386,{literal},"
    )
    with pytest.raises(NetlistError, match="non-finite complex literal") as err:
        parse(text)
    assert err.value.line == 14


def _full_with(lineno, new_line):
    """The shipped ``full.lopc`` with line ``lineno`` replaced by ``new_line``."""
    lines = resources.files("lopcsim").joinpath("circuits/full.lopc").read_text().splitlines()
    lines[lineno - 1] = new_line
    return "\n".join(lines) + "\n"


JONES, KET = "jones HWP1 path=t_low m=", "measure path=d outcome D ket="
FILTER, HWP = "filter F2 path=C_OUT", "hwp HWP2 path=t_low"
#: (line of full.lopc, a replacement with mixed faults in one literal field, the
#: error): the field's leftmost fault is reported, at the start of its value.
MIXED_LITERALS = [
    pytest.param(14, JONES + "inf,x,0,1", "line 14:25: non-finite complex literal 'inf'",
                 id="m=inf,x,0,1"),
    pytest.param(14, JONES + "x,inf,0,1", "line 14:25: invalid complex literal 'x'",
                 id="m=x,inf,0,1"),
    pytest.param(14, JONES + "-inf,inf,0,0", "line 14:25: non-finite complex literal '-inf'",
                 id="m=-inf,inf,0,0"),
    pytest.param(14, JONES + "0,nan,0,0", "line 14:25: non-finite complex literal 'nan'",
                 id="m=0,nan,0,0"),
    pytest.param(14, JONES + "0,0,0,1e309", "line 14:25: non-finite complex literal '1e309'",
                 id="m=0,0,0,1e309"),
    pytest.param(20, KET + "inf,x", "line 20:30: non-finite complex literal 'inf'", id="ket=inf,x"),
    pytest.param(20, KET + "x,inf", "line 20:30: invalid complex literal 'x'", id="ket=x,inf"),
    pytest.param(20, KET + "-inf,inf", "line 20:30: non-finite complex literal '-inf'",
                 id="ket=-inf,inf"),
    pytest.param(20, KET + "0,nan", "line 20:30: non-finite complex literal 'nan'", id="ket=0,nan"),
    pytest.param(20, KET + "0,1e309", "line 20:30: non-finite complex literal '1e309'",
                 id="ket=0,1e309"),
    # finite entries whose sum overflows are read; the ket check rejects them
    pytest.param(20, KET + "1e308,1e308", "line 20:0: outcome 'D': ket is not normalized",
                 id="ket=1e308,1e308"),
    pytest.param(16, FILTER + " th=inf tv=x", "line 16:25: non-finite number 'inf'",
                 id="th=inf,tv=x"),
    pytest.param(16, FILTER + " th=x tv=inf", "line 16:25: invalid number 'x'", id="th=x,tv=inf"),
    pytest.param(16, FILTER + " th=-inf tv=inf", "line 16:25: non-finite number '-inf'",
                 id="th=-inf,tv=inf"),
    pytest.param(16, FILTER + " th=0 tv=nan", "line 16:30: non-finite number 'nan'",
                 id="th=0,tv=nan"),
    pytest.param(16, FILTER + " th=0 tv=1e309", "line 16:30: non-finite number '1e309'",
                 id="th=0,tv=1e309"),
    pytest.param(17, HWP + " " * 100000 + "angle=nan", "line 17:100026: non-finite number 'nan'",
                 id="100000-spaces"),
]


@pytest.mark.parametrize("lineno, new_line, error", MIXED_LITERALS)
def test_a_literal_field_reports_its_leftmost_fault(lineno, new_line, error):
    with pytest.raises(NetlistError) as err:
        parse(_full_with(lineno, new_line))
    assert str(err.value) == error


@pytest.mark.parametrize(
    "lineno, new_line, diagnostic",
    [
        (14, JONES + "1e308,1e308,0,0",
         "line 14: HWP1: matrix is not subunitary (max singular value 1.4142135623730951e+308)"),
        (16, FILTER + " th=1e308 tv=1e308",
         "line 16: F2: filter transmissivity must lie in [0, 1], got 1e+308"),
    ],
    ids=["jones", "filter"],
)
def test_finite_entries_whose_sum_overflows_are_parsed(lineno, new_line, diagnostic):
    assert validate(parse(_full_with(lineno, new_line))) == [diagnostic]
