"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import cmath
import math

import numpy as np
import pytest

from lopcsim import (
    CompiledCircuit,
    branch_table,
    builtin_variant,
    fidelity,
    hom_scan,
    parse,
    render,
)
from lopcsim.cli import main

from .gate_checks import strip_corrections
from .test_gates import KET0, KET1, product_input

K = 1.0 / (4.0 * math.sqrt(3.0))
PHI_GRID = [i * math.pi / 20.0 for i in range(21)]
PHI_EIGHT = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6, math.pi]
VARIANT_P = {"basic": 1 / 48, "ff": 1 / 24, "dual": 1 / 24, "full": 1 / 12}
KETS = (KET0, KET1)


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_ket(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    return (complex(z[0]), complex(z[1]))


def test_criterion_1_gate_correctness():
    worst_offdiag = worst_mag = worst_phase = worst_fid = 0.0
    circuit = CompiledCircuit(builtin_variant("basic"))
    grid = circuit.evaluate(PHI_GRID)
    for phi, g, fid in zip(PHI_GRID, circuit.operators(PHI_GRID)[:, 0], grid.fidelity):
        off = g - np.diag(np.diag(g))
        worst_offdiag = max(worst_offdiag, float(np.max(np.abs(off))))
        worst_mag = max(worst_mag, float(np.max(np.abs(np.abs(np.diag(g)) - K))))
        phase = cmath.phase(g[3, 3] / g[0, 0])
        worst_phase = max(worst_phase, abs(cmath.exp(1j * phase) - cmath.exp(1j * phi)))
        worst_fid = max(worst_fid, abs(fid - 1.0))
    ok = worst_offdiag < 1e-12 and worst_mag <= 1e-12 and worst_phase <= 1e-10 and worst_fid <= 1e-12
    report(1, ok, f"basic gate correctness over 21 phases (off-diag {worst_offdiag:.2e}, "
                  f"|G_kk| err {worst_mag:.2e}, phase err {worst_phase:.2e}, fid err {worst_fid:.2e})")


def test_criterion_2_success_probabilities():
    worst = {}
    for variant, expected in VARIANT_P.items():
        grid = CompiledCircuit(builtin_variant(variant)).evaluate(PHI_GRID)
        worst[variant] = float(np.max(np.abs(grid.p_success - expected)))
    ok = all(err <= 1e-12 for err in worst.values())
    detail = ", ".join(f"{v}={err:.2e}" for v, err in worst.items())
    report(2, ok, f"success probabilities 1/48, 1/24, 1/24, 1/12 ({detail})")


def test_criterion_3_state_independence():
    rng = np.random.default_rng(2024)
    phi = 0.9
    inputs = [(random_ket(rng), random_ket(rng)) for _ in range(100)]
    entangled = []
    for _ in range(20):
        chi = rng.normal(size=4) + 1j * rng.normal(size=4)
        chi /= np.linalg.norm(chi)
        entangled.append(chi)
    program = product_input(KET0, KET0, phi)[0, 0]
    spreads = {}
    for variant in VARIANT_P:
        circuit = CompiledCircuit(builtin_variant(variant))
        # an entangled two-qubit state chi over |tc>, times the program photon
        psis = [product_input(t, c, phi) for t, c in inputs]
        psis += [np.multiply.outer(chi.reshape(2, 2), program) for chi in entangled]
        probs = [float(np.sum(np.abs(circuit.run(psi)) ** 2)) for psi in psis]
        spreads[variant] = max(probs) - min(probs)
    ok = all(spread < 1e-12 for spread in spreads.values())
    detail = ", ".join(f"{v}={s:.2e}" for v, s in spreads.items())
    report(3, ok, f"state independence over 100 product + 20 entangled inputs ({detail})")


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    comparisons = 0
    for variant in VARIANT_P:
        circuit = CompiledCircuit(builtin_variant(variant))
        for phi in PHI_EIGHT:
            table = {key: rows[0] for key, rows in branch_table([phi], variant).items()}
            for t in (0, 1):
                for c in (0, 1):
                    psi = product_input(KETS[t], KETS[c], phi)
                    branches = dict(zip(circuit.branch_keys, circuit.run(psi)))
                    assert set(branches) == set(table)
                    comparisons += 1
                    for key, amps in branches.items():
                        expected = np.zeros(4, dtype=complex)
                        expected[2 * t + c] = table[key][2 * t + c]
                        worst = max(worst, float(np.max(np.abs(amps - expected))))
    ok = worst <= 1e-12 and comparisons == 128
    report(4, ok, f"oracle equivalence over {comparisons} input/phase/variant combinations "
                  f"(max amplitude error {worst:.2e})")


def test_criterion_5_hom_physics():
    classical, dip = hom_scan(1 / math.sqrt(3), [0.0, 1.0])
    err_dip = abs(dip - 1 / 9)
    err_classical = abs(classical - 5 / 9)
    (balanced,) = hom_scan(1 / math.sqrt(2), [1.0])
    ok = err_dip <= 1e-12 and err_classical <= 1e-12 and balanced < 1e-12
    report(5, ok, f"two-photon interference: 1/9 and 5/9 endpoints (errors {err_dip:.2e}, "
                  f"{err_classical:.2e}), balanced dip {balanced:.2e}")


def test_criterion_6_linearity():
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = [("basic", 40), ("full", 10)]
    for variant, count in cases:
        run = CompiledCircuit(builtin_variant(variant)).run
        for _ in range(count):
            phi = float(rng.uniform(0.0, math.pi))
            pair = []
            for _ in range(2):
                pair.append(product_input(random_ket(rng), random_ket(rng), phi))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            alpha, beta = alpha / norm, beta / norm
            # the pair is not orthogonal: scale the superposition back to unit norm
            scale = np.linalg.norm(alpha * pair[0] + beta * pair[1])
            combined = run((alpha * pair[0] + beta * pair[1]) / scale)
            expected = (alpha * run(pair[0]) + beta * run(pair[1])) / scale
            worst = max(worst, float(np.max(np.abs(combined - expected))))
    ok = worst < 1e-12
    report(6, ok, f"amplitude linearity over 50 random superposition inputs (max error {worst:.2e})")


def test_criterion_7_feed_forward_branches():
    nl = builtin_variant("ff")
    worst = 0.0
    circuit = CompiledCircuit(nl)
    for branch_ops in circuit.operators(PHI_GRID):
        ops = {outcome: op for (outcome, _), op in zip(circuit.branch_keys, branch_ops)}
        ref = ops["D"][0, 0]
        phase = ops["A"][0, 0] / ref
        phase /= abs(phase)
        worst = max(worst, float(np.max(np.abs(ops["A"] - phase * ops["D"]))))
    uncorrected = CompiledCircuit(strip_corrections(nl))
    a_op = dict(zip(uncorrected.branch_keys, uncorrected.operators([0.0])[0]))["A", "T_OUT"]
    fid_err = abs(fidelity(a_op, 0.0) - 0.25)
    ok = worst <= 1e-10 and fid_err <= 1e-12
    report(7, ok, f"feed-forward branch equality (max deviation {worst:.2e}); "
                  f"uncorrected branch fidelity 1/4 (error {fid_err:.2e})")


def test_criterion_8_parser_robustness(tmp_path):
    from .test_netlist import make_mutations

    round_trips = all(
        parse(render(builtin_variant(v))) == builtin_variant(v)
        for v in ("basic", "ff", "dual", "full")
    )
    mutations = make_mutations()
    located = 0
    exit_codes_ok = True
    for i, text in enumerate(mutations):
        try:
            parse(text)
        except Exception as exc:
            if getattr(exc, "line", 0) > 0:
                located += 1
        path = tmp_path / f"mutation_{i}.lopc"
        path.write_text(text, encoding="utf-8")
        if main(["verify", "--netlist", str(path)]) != 2:
            exit_codes_ok = False
    ok = round_trips and located == len(mutations) and len(mutations) >= 20 and exit_codes_ok
    report(8, ok, f"netlist round-trips and {located}/{len(mutations)} corruption "
                  "fixtures rejected with located errors and exit code 2")


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "sweep1.csv"
    second = tmp_path / "sweep2.csv"
    argv = ["sweep", "--variant", "full", "--steps", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    report(9, ok, "byte-identical sweep output for identical configuration")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-s", "-q"]))
