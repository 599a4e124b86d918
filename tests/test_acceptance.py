"""Acceptance suite: one test per criterion, one PASS line per criterion.

Criteria and their pinned tolerances:

  1. connection fidelity      exact equality, 100 points x 7 families
  2. Ricci fidelity           exact equality, same samples + spot value
  3. tabulated-system match   exact equality, same samples
  4. G5 irrational anchor     1e-12 on lambda1 and lambda2
  5. G6 irrational anchor     1e-12 on lambda1 and lambda2
  6. branch soundness         30 branches x 50 samples; residual 0 exact,
                              <= 1e-9 approx; 3.4(v) must carry errata
  7. completeness sampling    1000 off-branch points per family, all none
  8. invariant suite          exact identities + brute-force Ricci oracle
  9. determinism              `verify --seed 7` twice, byte-identical
"""

from __future__ import annotations

import math
from fractions import Fraction

from ein2lie import (
    BRANCHES,
    DELTA,
    EPS,
    FamilyParams,
    Mode,
    build_family,
    is_ein2,
    jacobi_ok,
    match_printed_system,
    ricci,
    sample_branch,
    sample_off_branch,
    verify_branch,
)
from ein2lie.branches import LAMBDA1_FREE
from ein2lie.cli import main
from oracles import CONNECTION_TABLES, RHO_OP_TABLES, curvature, ricci_brute

F = Fraction
SEED = 7
EXACT, APPROX = Mode.exact(), Mode.approx()


def test_criterion_1_connection_fidelity(family_samples_100):
    for family, samples in family_samples_100.items():
        table = CONNECTION_TABLES[family]
        assert len(samples) == 100
        for params in samples:
            nabla = ricci(build_family(params, EXACT), EXACT).connection
            expected = table(params)
            for i in range(3):
                for j in range(3):
                    assert nabla[i][j] == tuple(expected[i][j]), (
                        family, params, i, j,
                    )
    print("PASS criterion 1: connection tables reproduced exactly at 100 points per family")


def test_criterion_2_ricci_fidelity(family_samples_100):
    spot = ricci(build_family(FamilyParams("G1", alpha=1, beta=2), EXACT), EXACT)
    assert spot.rho_op == ((-2, -2, -2), (-2, -4, -2), (2, 2, 0))
    for family, samples in family_samples_100.items():
        table = RHO_OP_TABLES[family]
        for params in samples:
            rd = ricci(build_family(params, EXACT), EXACT)
            expected = tuple(tuple(x for x in row) for row in table(params))
            assert rd.rho_op == expected, (family, params)
    print("PASS criterion 2: Ricci operator matrices reproduced exactly, spot value included")


def test_criterion_3_printed_system_fidelity(family_samples_100):
    for family, samples in family_samples_100.items():
        for params in samples:
            assert match_printed_system(params), (family, params)
    print("PASS criterion 3: tabulated component systems match at all sampled points")


def test_criterion_4_g5_anchor():
    alpha_sq = (5 + math.sqrt(405)) / 76
    alpha = math.sqrt(alpha_sq)
    params = FamilyParams("G5", alpha=alpha, beta=F(-1), gamma=F(2), delta=2 * alpha)
    solution = is_ein2(build_family(params, APPROX), DELTA, APPROX)
    assert solution.kind == "point"
    lambda1 = -(45 + 9 * math.sqrt(405)) / 76
    lambda2 = 18 * alpha_sq**2 - F(9, 2) * alpha_sq - F(9, 4)
    assert abs(solution.point[0] - lambda1) <= 1e-12
    assert abs(solution.point[1] - lambda2) <= 1e-12
    print("PASS criterion 4: G5 anchor lambda1 = -(45 + 9*sqrt(405))/76 within 1e-12")


def test_criterion_5_g6_anchor():
    alpha_sq = (-2 + math.sqrt(10)) / 6
    alpha = math.sqrt(alpha_sq)
    params = FamilyParams("G6", alpha=alpha, beta=F(1), gamma=F(2), delta=2 * alpha)
    solution = is_ein2(build_family(params, APPROX), DELTA, APPROX)
    assert solution.kind == "point"
    lambda1 = (4 * math.sqrt(10) - 5) / 3
    lambda2 = (37 - 8 * math.sqrt(10)) / 12
    assert abs(solution.point[0] - lambda1) <= 1e-12
    assert abs(solution.point[1] - lambda2) <= 1e-12
    print("PASS criterion 5: G6 anchor lambda1 = (4*sqrt(10) - 5)/3 within 1e-12")


def test_criterion_6_branch_soundness():
    errata_labels = []
    for spec in BRANCHES:
        report = verify_branch(spec, count=50, seed=SEED)
        assert report.attempted == 50
        assert report.verdict in ("verified", "errata"), (spec.label, report.verdict)
        if report.verdict == "errata":
            errata_labels.append(spec.label)
            assert report.failures, "errata must carry a counterexample"
            assert report.correction, "errata must carry a recomputed formula"
            assert all(f.recomputed_ok for f in report.failures)

        # Residual discipline at the stated (or corrected) lambdas.
        mode = spec.mode
        for params in sample_branch(spec, 5, seed=SEED):
            solution = is_ein2(build_family(params, mode), DELTA, mode)
            expected = spec.expected(params, mode)
            if report.verdict == "errata":
                expected = spec.recompute(params, mode)
            if expected.kind == LAMBDA1_FREE:
                assert solution.lambda2_zero_line()
                continue
            residual = solution.residual_of(expected.lambda1, expected.lambda2)
            if mode.is_exact:
                assert residual == 0, (spec.label, params)
            else:
                assert residual <= 1e-9, (spec.label, params, residual)

    assert errata_labels == ["3.4(v)"]
    print(
        "PASS criterion 6: 30 branches sound at 50 samples; the single errata record"
        " is 3.4(v) with a recomputed lambda1"
    )


def test_criterion_7_completeness_sampling():
    for family in ("G1", "G2", "G3", "G4", "G5", "G6", "G7"):
        for params in sample_off_branch(family, 1000, seed=SEED):
            solution = is_ein2(build_family(params, EXACT), DELTA, EXACT)
            assert solution.kind == "none", (family, params)
    print("PASS criterion 7: 1000 off-branch points per family, none is Ein(2)")


def test_criterion_8_invariant_suite(family_samples_100):
    for family, samples in family_samples_100.items():
        for params in samples:
            sc = build_family(params, EXACT)
            assert jacobi_ok(sc, EXACT)
            nabla = ricci(sc, EXACT).connection
            riem = curvature(sc, nabla)
            rd = ricci(sc, EXACT)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        assert nabla[i][j][k] - nabla[j][i][k] == sc.c[i][j][k]
                        assert EPS[k] * nabla[i][j][k] + EPS[j] * nabla[i][k][j] == 0
                        for l in range(3):
                            assert (
                                riem[i][j][k][l] + riem[j][k][i][l] + riem[k][i][j][l] == 0
                            )
                    assert rd.rho[i][j] == rd.rho[j][i]
                    assert EPS[j] * rd.rho_op[i][j] == EPS[i] * rd.rho_op[j][i]
            assert rd.rho == ricci_brute(sc)
    print(
        "PASS criterion 8: torsion, metric compatibility, Bianchi, Ricci symmetry,"
        " self-adjointness, Jacobi and the brute-force oracle all hold exactly"
    )


def test_criterion_9_verify_determinism(tmp_path):
    text1, text2 = tmp_path / "run1.txt", tmp_path / "run2.txt"
    assert main(["verify", "--seed", "7", "--out", str(text1)]) == 0
    assert main(["verify", "--seed", "7", "--out", str(text2)]) == 0
    assert text1.read_bytes() == text2.read_bytes()
    # The JSON path must be byte-stable too (floats included).
    first, second = tmp_path / "run1.json", tmp_path / "run2.json"
    argv = ["verify", "--seed", "7", "--samples", "5", "--fidelity-samples", "5",
            "--neg-samples", "5", "--format", "json"]
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("PASS criterion 9: verify --seed 7 is byte-identical across runs")
