import argparse
import builtins
import contextlib
import io
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lopcsim import __version__, builtin_variant, cli, render
from lopcsim.cli import _emit, main
from lopcsim.gates import CompiledCircuit

from .test_compiled import DEAD_CASES, MERGED_CASES
from .test_netlist import shipped, with_postselect


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    return [dict(zip(header, row.split(","))) for row in data[1:]]


@pytest.mark.parametrize("variant,expected_p", [("basic", 1 / 48), ("full", 1 / 12)])
def test_verify_variants_pass(tmp_path, variant, expected_p, capsys):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--variant", variant, "--steps", "5", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert row["ok"] == "true"
        assert abs(float(row["p_success"]) - expected_p) < 1e-12
        assert abs(float(row["fidelity"]) - 1.0) < 1e-12
        assert float(row["max_amp_err"]) < 1e-12
    assert "PASS" in capsys.readouterr().err


def test_verify_single_phi_in_degrees(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--phi", "90", "--degrees", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["phi_rad"]) - math.pi / 2) < 1e-12


def test_verify_broken_netlist_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.lopc"
    broken.write_text("pbs oops\n", encoding="utf-8")
    assert main(["verify", "--netlist", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err


def test_verify_missing_file_exits_2(tmp_path):
    assert main(["verify", "--netlist", str(tmp_path / "nope.lopc")]) == 2


def test_verify_semantically_invalid_netlist_exits_2(tmp_path, capsys):
    # parses fine but fails validation: splitter transmissivity out of range
    text = render(builtin_variant("basic")).replace("tv=0.5773502691896258", "tv=1.5")
    bad = tmp_path / "range.lopc"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify", "--netlist", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_element_that_fails_to_build_is_named_once(tmp_path, capsys):
    # the shipped full.lopc, whose line 14 declares HWP1, with a gain of 2 on H
    jones = "jones HWP1 path=t_low m=-0.8660254037844386,0.5,0.5,0.8660254037844386"
    text = render(builtin_variant("full")).replace(jones, "jones HWP1 path=t_low m=2,0,0,1")
    bad = tmp_path / "gain.lopc"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify", "--variant", "full", "--netlist", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 14: HWP1: matrix is not subunitary (max singular value 2.0)\n"
    )


def test_verify_detuned_netlist_fails(tmp_path, capsys):
    # a parseable netlist that is not the gate: HWP2 detuned by 10 degrees
    text = render(builtin_variant("basic")).replace("hwp HWP2 path=t_low angle=22.5", "hwp HWP2 path=t_low angle=32.5")
    bad = tmp_path / "detuned.lopc"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(["verify", "--netlist", str(bad), "--steps", "3", "--out", str(out)])
    assert code == 1
    assert any(row["ok"] == "false" for row in read_csv(out))
    assert "FAIL" in capsys.readouterr().err


def test_verify_netlist_file_equivalent_to_builtin(tmp_path):
    good = tmp_path / "full.lopc"
    good.write_text(render(builtin_variant("full")), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["verify", "--netlist", str(good), "--variant", "full", "--steps", "3", "--out", str(out)]) == 0


def test_sweep_layout_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--variant", "full", "--steps", "4", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert len(rows) == 16  # 4 phases x 4 branches
    labels = [row["branch"] for row in rows[:4]]
    assert labels == sorted(labels)
    phis = [float(row["phi_rad"]) for row in rows]
    assert phis == sorted(phis)


def test_sweep_csv_json_equivalence(tmp_path):
    csv_out = tmp_path / "rows.csv"
    json_out = tmp_path / "rows.json"
    base = ["sweep", "--variant", "ff", "--steps", "3"]
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = read_csv(csv_out)
    json_rows = json.loads(json_out.read_text(encoding="utf-8"))
    assert len(csv_rows) == len(json_rows)
    for c_row, j_row in zip(csv_rows, json_rows):
        assert float(c_row["p_success"]) == j_row["p_success"]
        assert float(c_row["branch_prob"]) == j_row["branch_prob"]
        assert c_row["branch"] == j_row["branch"]


def test_verify_default_grid_has_21_rows(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 21
    assert float(rows[0]["phi_rad"]) == 0.0
    assert abs(float(rows[-1]["phi_rad"]) - math.pi) < 1e-15


def test_sweep_descending_grid_is_emitted_ascending(tmp_path):
    out = tmp_path / "desc.csv"
    assert main(["sweep", "--from", "1.0", "--to", "0.0", "--steps", "3", "--out", str(out)]) == 0
    phis = [float(r["phi_rad"]) for r in read_csv(out)]
    assert phis == sorted(phis)


def test_sweep_meta_lines(tmp_path):
    out = tmp_path / "meta.csv"
    assert main(["sweep", "--steps", "2", "--meta", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# tool=lopcsim")
    assert any(line.startswith("# variant=basic") for line in lines if line.startswith("#"))
    # meta must not break determinism
    out2 = tmp_path / "meta2.csv"
    assert main(["sweep", "--steps", "2", "--meta", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_hom_defaults_and_endpoints(tmp_path):
    out = tmp_path / "hom.csv"
    assert main(["hom", "--steps", "3", "--out", str(out)]) == 0
    rows = read_csv(out)
    values = {float(r["v"]): float(r["coincidence"]) for r in rows}
    assert abs(values[0.0] - 5 / 9) < 1e-12
    assert abs(values[0.5] - 1 / 3) < 1e-12
    assert abs(values[1.0] - 1 / 9) < 1e-12


def test_hom_balanced_splitter(tmp_path):
    out = tmp_path / "hom.csv"
    assert main(["hom", "--tv", "0.7071067811865476", "--from", "1", "--to", "1", "--steps", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[0]["coincidence"]) < 1e-12


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "--steps", "0"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["hom", "--tv", "1.5"]) == 2
    capsys.readouterr()


def test_json_verify_shape(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--steps", "2", "--format", "json", "--meta", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["meta"]["command"] == "verify"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["ok"] is True


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,flag",
    [("verify", "--phi"), ("verify", "--tol"), ("sweep", "--from"), ("sweep", "--to"), ("hom", "--from")],
)
def test_non_finite_numbers_exit_2(command, flag, bad, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, f"{flag}={bad}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err
    assert not out.exists()


def test_overflowing_grid_exits_2(tmp_path, capsys):
    # finite ends whose difference overflows would give non-finite grid points
    out = tmp_path / "out.csv"
    for command in ("verify", "sweep", "hom"):
        argv = [command, "--from=-1e308", "--to=1e308", "--steps", "3", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: --from=-1e+308 to --to=1e+308 spans more than a float holds\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "sweep", "hom"])
def test_a_grid_point_past_the_float_range_is_the_commands_to_reject(command, tmp_path, capsys):
    # every point lies in the float range, but 3 * (max / 3) rounds past it: the last is inf
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--to=1.7976931348623157e308", "--steps", "4",
                     "--out", str(out)]) == 2
    expected = "overlap must lie in [0, 1], got 5.992310449541053e+307" if command == "hom" else (
        "phase must be a finite number, got inf")
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, start, stop, phases", [
    ("verify", "0", "1e308", ["0", "5.0000000000000001e+307", "1e+308"]),
    ("sweep", "0", "1.5e308", ["0", "7.5000000000000001e+307", "1.5e+308"]),
])
def test_a_grid_whose_span_times_steps_overflows_keeps_its_points(command, start, stop, phases,
                                                                  tmp_path):
    # (steps - 1) * span overflows, though every point lies in the float range
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, f"--from={start}", f"--to={stop}", "--steps", str(len(phases)),
                     "--out", str(out)]) == 0
    assert list(dict.fromkeys(row["phi_rad"] for row in read_csv(out))) == phases


GRID_ENDS = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(GRID_ENDS, GRID_ENDS, st.integers(1, 300), st.booleans())
def test_grid_equals_the_list_formula_bit_for_bit(start, stop, steps, degrees):
    args = argparse.Namespace(phi=None, grid_from=start, grid_to=stop, steps=steps,
                              degrees=degrees)
    if steps > 1 and not math.isfinite(stop - start):
        with pytest.raises(ValueError, match="spans more than a float holds"):
            cli._grid(args, 0.0, 1.0)
        return
    expected = [start]
    if steps > 1:  # i * (stop - start) / (steps - 1), or where the product overflows, its ratio
        span, last = stop - start, steps - 1
        expected = [start + (i * span / last if math.isfinite(i * span) else i * (span / last))
                    for i in range(steps)]
    expected = [math.radians(v) for v in expected] if degrees else expected
    grid = cli._grid(args, 0.0, 1.0)
    assert grid.dtype == np.float64
    assert grid.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def test_a_one_point_grid_takes_its_start_whatever_the_span(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["verify", "--from=-1e308", "--to=1e308", "--steps", "1", "--out", str(out)]) == 0
    assert [row["phi_rad"] for row in read_csv(out)] == ["-1e+308"]


def test_json_output_refuses_non_finite_numbers(tmp_path):
    args = argparse.Namespace(format="json", meta=False, out=str(tmp_path / "out.json"))
    with pytest.raises(ValueError):
        _emit(args, "sweep", ["phi_rad"], [[math.nan]])


def test_verify_oracle_shape_mismatch_exits_2(tmp_path, capsys):
    # a full-layout file checked against the default basic oracle
    full = tmp_path / "full.lopc"
    full.write_text(render(builtin_variant("full")), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["verify", "--netlist", str(full), "--steps", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "[A:T_OUT, A:T_OUT2, D:T_OUT, D:T_OUT2]" in err  # found
    assert "'basic' oracle's [D:T_OUT]" in err  # expected
    assert "--variant full" in err
    assert not out.exists()


def test_steps_are_bounded(tmp_path, capsys, monkeypatch):
    assert cli.MAX_STEPS == 100_000
    out = tmp_path / "out.csv"
    for command in ("verify", "sweep", "hom"):
        assert main([command, "--steps", "200000000", "--out", str(out)]) == 2
        assert f"error: grid needs 1 to {cli.MAX_STEPS} points, got steps=200000000" in (
            capsys.readouterr().err
        )
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_STEPS", 4)
    assert main(["hom", "--steps", "4", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 4
    assert main(["hom", "--steps", "5", "--out", str(out)]) == 2


@pytest.mark.parametrize("argv", [["--tol", "-1"], ["--tol=-1e-3"]])
def test_negative_tolerance_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["verify", *argv, "--out", str(out)]) == 2
    assert "non-negative tolerance" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--tol", "0", "--phi", "0.5", "--out", str(out)]) in (0, 1)


def test_negative_grid_ends_use_the_equals_form(tmp_path, capsys):
    for command in ("verify", "sweep", "hom"):
        assert main([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--from=-1e-3" in help_text and "--to=-1e-3" in help_text
    out = tmp_path / "out.csv"
    assert main(["sweep", "--from=-1e-3", "--to=1e-3", "--steps", "3", "--out", str(out)]) == 0
    assert sorted({float(r["phi_rad"]) for r in read_csv(out)}) == [-1e-3, 0.0, 1e-3]
    assert main(["sweep", "--to", "-1e-3", "--out", str(out)]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", MERGED_CASES)
def test_light_merged_onto_a_lit_path_exits_2(tmp_path, capsys, text, line):
    merged = tmp_path / "merged.lopc"
    merged.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["verify", "--variant", "basic", "--netlist", str(merged), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: PX: sends light onto an already-lit path (C_OUT)")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("variant, text, diagnostics", DEAD_CASES)
def test_an_input_whose_light_reaches_no_port_exits_2(
    tmp_path, capsys, command, variant, text, diagnostics
):
    dead = tmp_path / "dead.lopc"
    dead.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--variant", variant, "--netlist", str(dead), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "".join(f"error: {d}\n" for d in diagnostics)
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", [["--steps", "0"], ["--steps", "200000000"], ["--from=0.1"], ["--to", "1"]]
)
def test_single_phi_rejects_grid_flags(grid, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["verify", "--phi", "0.5", *grid, "--out", str(out)]) == 2
    assert "error: --phi cannot be combined with --from/--to/--steps" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", *grid, "--phi", "0.5", "--degrees", "--out", str(out)]) == 2
    assert main(["verify", "--phi", "0.5", "--degrees", "--out", str(out)]) == 0


#: A run of each command, usage errors (a bad value, words a command does not
#: take, an unknown command, no command), --version, -h and a command's -h,
#: with their exit codes.
REPEATED = [
    (["verify", "--variant", "full", "--steps", "3", "--format", "json"], 0),
    (["sweep", "--variant", "ff", "--phi", "0.5", "--meta"], 0),
    (["hom", "--steps", "5", "--tv", "0.3"], 0),
    (["verify", "--steps", "x"], 2),
    (["--version"], 0),
    (["-h"], 0),
    (["verify", "--bogus"], 2),
    (["hom", "--variant", "full"], 2),
    (["verif"], 2),
    ([], 2),
    (["verify", "-h"], 0),
]


def test_repeated_and_interleaved_calls_match_the_first(capsys):
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    cli._parser.cache_clear()  # the first call builds the parser
    first = [run(argv) for argv, _ in REPEATED]
    assert [code for code, _, _ in first] == [code for _, code in REPEATED]
    assert all(out or err for _, out, err in first)
    interleaved = [5, 0, 3, 9, 1, 6, 4, 10, 2, 8, 7, 0]
    for order in (range(len(REPEATED)), reversed(range(len(REPEATED))), interleaved):
        for i in order:
            assert run(REPEATED[i][0]) == first[i]


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    build, calls = cli.build_parser, []

    def counting_build():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv, code in REPEATED * 3:
            assert main(argv) == code
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1


COMMANDS = sorted(cli._parser().options)
#: Every option string of the commands, help included, and each long one cut
#: to each shorter prefix, so that some abbreviate one option and some several.
OPTIONS = sorted({
    option[:end]
    for command in COMMANDS
    for option in [*cli._parser().options[command], "-h", "--help"]
    for end in range(3 if option.startswith("--") else 2, len(option) + 1)
})
VALUES = ["x", "-1", "0.5", "3", "-0.0", "1e309", "", "json", "full", "--", "-", *COMMANDS]
WORD = st.one_of(
    st.sampled_from([*OPTIONS, "--version", "--vers", *VALUES]),
    st.builds("{}={}".format, st.sampled_from([*OPTIONS, "--", "-", "--version"]),
              st.sampled_from(VALUES)),
)
#: Words that some command takes, so that some draws parse.
TAKEN = [["--format", "json"], ["--out", "x"], ["--meta"], ["--from=-1"], ["--to", "0.5"],
         ["--steps", "3"], ["--variant", "full"], ["--netlist", "x"], ["--phi", "-1"],
         ["--degrees"], ["--tol", "0.5"], ["--tv", "0.5"], ["--st", "3"], ["--form=csv"], ["--"]]
WORDS = st.lists(st.one_of(st.sampled_from(TAKEN), st.lists(WORD, min_size=1, max_size=2)),
                 max_size=5).map(lambda chunks: [word for chunk in chunks for word in chunk])
#: Most argvs start with a command word; the rest go through the top-level parser.
ARGV = st.builds(lambda first, rest: [*first, *rest],
                 st.sampled_from([*([command] for command in COMMANDS * 2), [], ["verif"]]), WORDS)


def parsed(parse, argv):
    """``vars()`` of ``parse(argv)``'s namespace, or its ``SystemExit`` code,
    with what it printed to stdout and stderr."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@example(["verify", "--=x"])
@example(["verify", "--", "--=x"])
@example(["verify", "--phi=1", "extra"])
# where the scan takes an argv and where it hands one to the parser
@example(["verify", "--phi", "-1"])
@example(["verify", "--phi=-1"])
@example(["verify", "--phi="])
@example(["verify", "--out=--"])
@example(["verify", "--out=-"])
@example(["verify", "--meta=1"])
@example(["verify", "--format=json=x"])
@example(["sweep", "--steps", "3.0"])
@example(["sweep", "--variant", "nope"])
@example(["sweep", "--steps", "3", "--out"])
@example(["hom", "--steps", "3", "--steps", "5"])
@example(["hom", "--steps", "3", "-h"])
@example(["hom", "--st", "3"])
@given(ARGV)
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
def test_parsing_after_the_command_word_matches_the_top_level_parser(argv):
    assert parsed(cli._parse_args, argv) == parsed(cli._parser().parse_args, argv)


#: The argv shapes of the benchmark's workloads and of README's examples.
TRAFFIC = [
    ["sweep", "--variant", "full", "--from=0.25", "--to=-1.5", "--steps", "5", "--format", "json"],
    ["sweep", "--variant", "dual", "--steps", "21", "--format", "json"],
    ["verify", "--variant", "ff", "--format", "csv", "--phi=-1.25"],
    ["verify", "--variant", "dual", "--format", "json", "--from=-90.5", "--to=270.25",
     "--steps", "4", "--degrees", "--netlist", "CIRCUIT"],
    ["verify", "--variant", "full"],
    ["verify", "--netlist", "CIRCUIT"],
    ["hom", "--tv=0.3", "--from=0.1", "--to=0.9", "--steps", "11", "--format", "csv"],
    ["hom", "--tv", "0.7071067811865476", "--steps", "41"],
]


@pytest.mark.parametrize("argv", TRAFFIC, ids=" ".join)
def test_the_workload_and_readme_argvs_parse_in_one_scan(tmp_path, monkeypatch, argv):
    netlist = tmp_path / "circuit.lopc"
    netlist.write_bytes(shipped("dual" if "dual" in argv else "basic"))
    argv = [str(netlist) if word == "CIRCUIT" else word for word in argv]

    def refuse(args=None, namespace=None):
        raise AssertionError(f"the parser was asked to read {args}")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


def test_main_runs_the_cmd_function_the_module_holds(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_hom", lambda args: seen.append(args) or 7)
    assert main(["hom", "--steps", "3"]) == 7
    [args] = seen
    assert (args.command, args.steps) == ("hom", 3)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_postselect_on_the_second_target_output_changes_no_byte(tmp_path, fmt):
    texts = {"shipped": shipped("full").decode("utf-8"),
             "T_OUT2": with_postselect("full", "postselect T_OUT2=1 C_OUT=1 d=1")}
    outputs = {}
    for name, text in texts.items():
        netlist, out = tmp_path / f"{name}.lopc", tmp_path / f"{name}.{fmt}"
        netlist.write_text(text, encoding="utf-8")
        argv = ["sweep", "--variant", "full", "--netlist", str(netlist), "--steps", "7"]
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["T_OUT2"] == outputs["shipped"]


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_a_postselect_without_the_detector_is_one_located_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.lopc"
    bad.write_text(with_postselect("full", "postselect T_OUT=1 C_OUT=2 d=0"), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--variant", "full", "--netlist", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: line 25:0: postselect must require exactly one photon on the measurement path\n"
    )
    assert not out.exists()


#: One run of each command; ``verify`` and ``sweep`` read their netlist from a
#: file whose name is not ASCII, so that ``--meta`` carries it.
OUT_RUNS = {
    "verify": ["verify", "--variant", "full", "--steps", "3"],
    "sweep": ["sweep", "--variant", "full", "--steps", "17"],
    "hom": ["hom", "--steps", "41"],
}


def out_run(tmp_path, command, fmt, meta):
    argv = [*OUT_RUNS[command], "--format", fmt, *(["--meta"] * meta)]
    if command != "hom":
        netlist = tmp_path / "réseau ☃ 𝄞.lopc"
        netlist.write_bytes(shipped("full"))
        argv += ["--netlist", str(netlist)]
    return argv


@pytest.mark.parametrize("meta", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_out_holds_the_utf8_bytes_of_stdout(tmp_path, capsys, command, fmt, meta):
    argv = out_run(tmp_path, command, fmt, meta)
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("\n")
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
    if meta and command != "hom" and fmt == "csv":
        assert "réseau ☃ 𝄞.lopc" in out.read_text(encoding="utf-8")


def test_out_truncates_a_longer_file(tmp_path, capsys):
    argv = out_run(tmp_path, "sweep", "csv", False)
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"x" * (3 * len(printed)))
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
def test_a_new_out_file_gets_the_mode_the_umask_leaves(tmp_path, umask):
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["hom", "--steps", "3", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_out_is_complete_when_each_write_takes_a_few_bytes(tmp_path, capsys, monkeypatch):
    argv = out_run(tmp_path, "sweep", "json", True)
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    writes = []

    class Trickle:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            writes.append(len(data))
            return self.file.write(data[:5])

    def trickling_open(path, mode, buffering):
        assert (mode, buffering) == ("wb", 0)
        return Trickle(builtins.open(path, mode, buffering=buffering))

    monkeypatch.setattr(cli, "open", trickling_open, raising=False)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed
    assert writes == list(range(len(printed), 0, -5))


@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing" / "out.csv"
    assert main([*OUT_RUNS[command], "--out", str(missing)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not missing.parent.exists()
    assert main([*OUT_RUNS[command], "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


#: Sweep grids as (argv, (start, stop, steps, degrees)): ascending, of 4
#: points (a ``full`` table of 16 rows), descending, constant, through zero in
#: degrees, and the one point -0.0.
SWEEP_GRIDS = [
    (["--from", "0.1", "--to", "3", "--steps", "33"], (0.1, 3.0, 33, False)),
    (["--steps", "4"], (0.0, math.pi, 4, False)),
    (["--from", "3", "--to=-1", "--steps", "16"], (3.0, -1.0, 16, False)),
    (["--from", "0.7", "--to", "0.7", "--steps", "17"], (0.7, 0.7, 17, False)),
    (["--from=-90", "--to", "90", "--steps", "33", "--degrees"], (-90.0, 90.0, 33, True)),
    (["--phi=-0.0"], (-0.0, -0.0, 1, False)),
]


def sweep_rows(variant, start, stop, steps, degrees):
    """The sweep table, row by row, from ``evaluate``'s arrays."""
    if steps == 1:
        phis = np.array([start])
    else:
        phis = start + np.arange(steps) * (stop - start) / (steps - 1)
    phis = np.sort(np.radians(phis) if degrees else phis, kind="stable")
    grid = CompiledCircuit(builtin_variant(variant)).evaluate(phis)
    labels = sorted((f"{outcome}:{port}", b) for b, (outcome, port) in enumerate(grid.branch_keys))
    return [
        {"phi_rad": float(phi), "p_success": float(grid.p_success[i]),
         "fidelity": float(grid.fidelity[i]), "branch": label,
         "branch_prob": float(grid.probabilities[i, b])}
        for i, phi in enumerate(grid.phis) for label, b in labels
    ]


@pytest.mark.parametrize("meta", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid, ends", SWEEP_GRIDS, ids=[
    "ascending", "4pt", "descending", "constant", "through-0-degrees", "minus-0"])
@pytest.mark.parametrize("variant", ["basic", "ff", "dual", "full"])
def test_sweep_prints_evaluate_row_by_row(capsys, variant, grid, ends, fmt, meta):
    assert main(["sweep", "--variant", variant, *grid, "--format", fmt, *(["--meta"] * meta)]) == 0
    rows = sweep_rows(variant, *ends)
    pairs = {"tool": f"lopcsim {__version__}", "command": "sweep", "variant": variant}
    if fmt == "json":
        payload = {"meta": pairs, "rows": rows} if meta else rows
        expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    else:
        header = ["phi_rad", "p_success", "fidelity", "branch", "branch_prob"]
        lines = [f"# {key}={value}" for key, value in pairs.items()] if meta else []
        lines.append(",".join(header))
        lines += [",".join(row[key] if key == "branch" else "%.17g" % row[key] for key in header)
                  for row in rows]
        expected = "\n".join(lines)
    assert capsys.readouterr().out == expected + "\n"
