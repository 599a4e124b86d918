"""Families, raw tables, Jacobi residual, unimodularity, parameter constraints."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ein2lie
from ein2lie import (
    AntisymmetryViolation,
    ConstraintViolation,
    FamilyParams,
    Mode,
    StructureConstants,
    UnknownFamily,
    build_family,
    from_raw,
    jacobi_ok,
    sample_valid_points,
    unimodular,
    validate_params,
)
from ein2lie.liealg import PARAMS_USED, _jacobi_base, family_table
from oracles import jacobi_brute

F = Fraction

EXACT, APPROX = Mode.exact(), Mode.approx()

ZERO_TABLE = [[[0] * 3 for _ in range(3)] for _ in range(3)]


def table(**entries):
    """Raw table from entries like c_121=1 meaning the e1 part of [e1,e2]."""
    t = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for key, value in entries.items():
        i, j, k = (int(ch) - 1 for ch in key.split("_")[1])
        t[i][j][k] = F(value)
        t[j][i][k] = -F(value)
    return t


def test_build_family_g1_brackets():
    sc = build_family(FamilyParams("G1", alpha=1, beta=2), EXACT)
    assert sc.c[0][1] == (1, 0, -2)
    assert sc.c[0][2] == (-1, -2, 0)
    assert sc.c[1][2] == (2, 1, 1)


def test_build_family_antisymmetry(family_samples_100):
    for family, samples in family_samples_100.items():
        sc = build_family(samples[0], EXACT)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert sc.c[i][j][k] == -sc.c[j][i][k]


def test_build_family_g5_constraint_violation():
    with pytest.raises(ConstraintViolation) as info:
        build_family(FamilyParams("G5", alpha=1, beta=1, gamma=1, delta=1), EXACT)
    assert "alpha*gamma + beta*delta" in str(info.value)


def test_build_family_abelian_g3():
    sc = build_family(FamilyParams("G3"), EXACT)
    assert all(v == 0 for v in sc.values())


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        FamilyParams("G8")


def test_from_raw_zero_is_abelian():
    sc = from_raw(ZERO_TABLE, EXACT)
    assert all(v == 0 for v in sc.values())
    assert jacobi_ok(sc, EXACT)
    assert unimodular(sc, EXACT)


def test_from_raw_matches_build_family():
    built = build_family(FamilyParams("G1", alpha=1, beta=0), EXACT)
    raw = from_raw([[list(built.c[i][j]) for j in range(3)] for i in range(3)], EXACT)
    assert raw == built


def test_from_raw_of_a_family_table_gives_back_its_brackets(family_samples_100):
    """On exact family tables and their all-float copies (as an approx raw table
    is read), `from_raw` gives back the brackets, and `c` entry for entry with
    a float exactly where the reference has one, zeros included."""
    for samples in family_samples_100.values():
        for params in samples:
            exact = family_table(params)
            floats = StructureConstants(tuple(tuple(map(float, v)) for v in exact.brackets))
            float_table = [[[float(x) for x in row] for row in plane] for plane in exact.c]
            for sc, raw, mode in ((exact, exact.c, EXACT), (floats, float_table, APPROX)):
                got = from_raw(raw, mode)
                assert got.brackets == sc.brackets, params
                for got_plane, plane in zip(got.c, sc.c):
                    for got_row, row in zip(got_plane, plane):
                        assert got_row == row, params
                        assert [type(x) is float for x in got_row] == [
                            type(x) is float for x in row
                        ], params


def test_from_raw_rejects_antisymmetry_violation():
    bad = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][0] = F(1)
    bad[1][0][0] = F(1)  # should be -1
    with pytest.raises(AntisymmetryViolation) as info:
        from_raw(bad, EXACT)
    assert info.value.indices == (1, 2, 1)


def test_from_raw_tolerates_float_noise_in_approx_mode():
    noisy = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    noisy[0][1][2] = 1.0
    noisy[1][0][2] = -1.0 + 1e-12
    sc = from_raw(noisy, Mode.approx(1e-9))
    assert sc.c[0][1][2] == pytest.approx(1.0)
    assert sc.c[0][1][2] == -sc.c[1][0][2]  # stored antisymmetrized


def test_jacobi_zero_for_g2_sample():
    sc = build_family(FamilyParams("G2", alpha=1, beta=1, gamma=1), EXACT)
    assert jacobi_ok(sc, EXACT)
    assert _jacobi_base(sc.c) == (0, 0, 0)


def test_jacobi_solvable_swap_table_is_a_lie_algebra():
    # [e1,e2] = e3, [e1,e3] = e2, [e2,e3] = 0: the cyclic sum cancels
    # termwise, so the residual vanishes (checked against the expansion
    # oracle as well).
    sc = from_raw(table(c_123=1, c_132=1), EXACT)
    assert jacobi_brute(sc, 0, 1, 2) == (0, 0, 0)
    assert jacobi_ok(sc, EXACT)


def test_jacobi_nonzero_residual():
    # [e1,e2] = e3, [e1,e3] = e1: the cyclic sum is -e3.
    sc = from_raw(table(c_123=1, c_131=1), EXACT)
    assert jacobi_brute(sc, 0, 1, 2) == (0, 0, -1)
    assert not jacobi_ok(sc, EXACT)
    assert _jacobi_base(sc.c) == (0, 0, -1)


def test_jacobi_residual_matches_brute_expansion(family_samples_100):
    for samples in family_samples_100.values():
        sc = build_family(samples[0], EXACT)
        assert _jacobi_base(sc.c) == jacobi_brute(sc, 0, 1, 2)


def test_unimodular_examples():
    assert unimodular(build_family(FamilyParams("G1", alpha=1, beta=2), EXACT), EXACT)
    non_unimodular = build_family(FamilyParams("G5", alpha=1, beta=0, gamma=0, delta=1), EXACT)
    assert not unimodular(non_unimodular, EXACT)
    assert unimodular(from_raw(ZERO_TABLE, EXACT), EXACT)


def test_unimodular_split_across_families(family_samples_100):
    for family, samples in family_samples_100.items():
        expected = family in ("G1", "G2", "G3", "G4")
        for params in samples:
            assert unimodular(build_family(params, EXACT), EXACT) is expected


def test_validate_params_examples():
    with pytest.raises(ConstraintViolation) as info:
        validate_params(FamilyParams("G1", alpha=0, beta=1), EXACT)
    assert "alpha != 0" in str(info.value)
    validate_params(FamilyParams("G7", alpha=1, gamma=0, delta=1, beta=3), EXACT)
    validate_params(FamilyParams("G6", alpha=1, beta=2, gamma=2, delta=1), EXACT)
    with pytest.raises(ConstraintViolation):
        validate_params(FamilyParams("G4", alpha=1, beta=1), EXACT)  # eta missing
    with pytest.raises(ConstraintViolation):
        FamilyParams("G4", alpha=1, beta=1, eta=2)


@pytest.mark.parametrize("eta", [True, 1.0, F(1)])
def test_family_params_rejects_a_non_int_eta(eta):
    """eta is an int sign: a bool, a float or a Fraction raises TypeError, as alpha=True does."""
    with pytest.raises(TypeError):
        FamilyParams("G4", alpha=2, beta=2, eta=eta)
    assert FamilyParams("G4", alpha=2, beta=2, eta=1).eta == 1


def test_validate_params_messages():
    with pytest.raises(ConstraintViolation) as info:
        validate_params(FamilyParams("G5", alpha=1, beta=1, gamma=1, delta=1), EXACT)
    assert str(info.value) == (
        "constraint violated: alpha*gamma + beta*delta = 0 (alpha*gamma + beta*delta = 2)"
    )
    with pytest.raises(ConstraintViolation) as info:
        validate_params(FamilyParams("G7", alpha=1, gamma=F(1, 2), delta=1), EXACT)
    assert str(info.value) == "constraint violated: alpha*gamma = 0 (alpha*gamma = 1/2)"
    with pytest.raises(ConstraintViolation) as info:
        validate_params(FamilyParams("G6", alpha=1, delta=-1), EXACT)
    assert str(info.value) == "constraint violated: alpha + delta != 0"


def test_validate_params_approx_inequalities():
    approx = Mode.approx(1e-6)
    with pytest.raises(ConstraintViolation):
        validate_params(FamilyParams("G1", alpha=1e-9, beta=0.0), approx)
    validate_params(FamilyParams("G1", alpha=1e-3, beta=0.0), approx)


def test_families_satisfy_jacobi_at_sampled_points(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples:
            assert jacobi_ok(build_family(params, EXACT), EXACT)


@given(
    entries=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=9, max_size=9
    )
)
@settings(max_examples=50, deadline=None)
def test_from_raw_antisymmetry_always_holds(entries):
    values = iter(entries)
    t = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                v = next(values)
                t[i][j][k] = v
                t[j][i][k] = -v
    sc = from_raw(t, EXACT)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert sc.c[i][j][k] == -sc.c[j][i][k]


def test_sample_valid_points_deterministic():
    a = sample_valid_points("G5", 10, seed=3)
    b = sample_valid_points("G5", 10, seed=3)
    assert a == b
    for params in a:
        validate_params(params, EXACT)


def test_family_table_reads_exactly_the_params_used():
    """Perturbing a parameter changes a family's table iff PARAMS_USED lists it."""
    base = {"alpha": F(2), "beta": F(3), "gamma": F(5), "delta": F(7), "eta": 1}
    perturbed = {"alpha": F(11), "beta": F(13), "gamma": F(17), "delta": F(19), "eta": -1}
    for family, used in PARAMS_USED.items():
        table = family_table(FamilyParams(family, **base)).c
        for name, value in perturbed.items():
            moved = family_table(FamilyParams(family, **{**base, name: value})).c
            assert (moved != table) == (name in used), (family, name)


def test_importing_the_package_loads_no_dataclasses_and_compiles_no_formula():
    """A stdlib-only import (-S) leaves dataclasses, inspect, typing and ast unloaded
    and every formula cache empty: the families' constraints and samplers compile on
    first use, and the clause compiler loads ast on its first compile."""
    src = os.path.dirname(os.path.dirname(ein2lie.__file__))
    code = (
        "import sys; import ein2lie; from ein2lie.liealg import _compile_clause, _formula; "
        "print(ein2lie.__file__.startswith(sys.argv[1]), 'dataclasses' in sys.modules, "
        "'inspect' in sys.modules, 'typing' in sys.modules, 'ast' in sys.modules, "
        "_compile_clause.cache_info().currsize, _formula.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.split() == ["True", "False", "False", "False", "False", "0", "0"]
