import argparse
import json
import math
import warnings

import pytest

from lopcsim import builtin_variant, cli, render
from lopcsim.cli import _emit, main

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


#: A run of each command, a usage error, --version and -h, with their exit codes.
REPEATED = [
    (["verify", "--variant", "full", "--steps", "3", "--format", "json"], 0),
    (["sweep", "--variant", "ff", "--phi", "0.5", "--meta"], 0),
    (["hom", "--steps", "5", "--tv", "0.3"], 0),
    (["verify", "--steps", "x"], 2),
    (["--version"], 0),
    (["-h"], 0),
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
    for order in (range(len(REPEATED)), reversed(range(len(REPEATED))), [5, 0, 3, 1, 4, 2, 0]):
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
