"""Connection, curvature and Ricci data against transcribed tables and brute force."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ein2lie import (
    ANCHORS,
    BRANCHES,
    EPS,
    FAMILIES,
    ConstraintViolation,
    FamilyParams,
    Mode,
    NotLieAlgebra,
    StructureConstants,
    build_family,
    from_raw,
    is_ein2,
    jacobi_ok,
    ricci,
    sample_branch,
)
import ein2lie
from ein2lie.geometry import _contract, _koszul
from ein2lie.liealg import _jacobi_base, family_table
from oracles import CONNECTION_TABLES, RHO_OP_TABLES, curvature, ricci_brute

F = Fraction

ABELIAN = from_raw([[[0] * 3 for _ in range(3)] for _ in range(3)])


def _non_jacobi_table():
    bad = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][2], bad[1][0][2] = F(1), F(-1)  # [e1,e2] = e3
    bad[0][2][0], bad[2][0][0] = F(1), F(-1)  # [e1,e3] = e1
    return bad


def ricci_via_tensor(sc, mode=None):
    """(rho, rho_op, rho_sq) through the full curvature tensor and its signed trace.

    Each sum runs left to right from 0; builtin `sum` compensates float
    rounding from Python 3.12 on, which would move the bits compared here.
    """
    riem = curvature(sc, ricci(sc, mode).connection)
    rho = tuple(
        tuple(-(0 + riem[i][0][j][0] + riem[i][1][j][1] + riem[i][2][j][2]) for j in range(3))
        for i in range(3)
    )
    rho_op = tuple(tuple(EPS[j] * rho[i][j] for j in range(3)) for i in range(3))
    rho_sq = tuple(
        tuple(
            0
            + EPS[0] * rho_op[i][0] * rho_op[j][0]
            + EPS[1] * rho_op[i][1] * rho_op[j][1]
            + EPS[2] * rho_op[i][2] * rho_op[j][2]
            for j in range(3)
        )
        for i in range(3)
    )
    return rho, rho_op, rho_sq


def _bits(matrix):
    """Entries with their type; floats by their exact bits."""
    return tuple(
        (type(x), x.hex() if isinstance(x, float) else x) for row in matrix for x in row
    )


def assert_matches_reference_routes(sc, mode=None):
    """ricci against the tensor route (type and bits) and the brute-force oracle."""
    rd = ricci(sc, mode)
    for got, expected in zip((rd.rho, rd.rho_op, rd.rho_sq), ricci_via_tensor(sc, mode)):
        assert _bits(got) == _bits(expected), sc.c
    brute = ricci_brute(sc)
    if sc.is_exact():
        assert _bits(rd.rho) == _bits(brute), sc.c
    else:
        for got_row, brute_row in zip(rd.rho, brute):
            for got, expected in zip(got_row, brute_row):
                assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12), sc.c


def test_levi_civita_g1_spot_values():
    nabla = ricci(build_family(FamilyParams("G1", alpha=1, beta=2))).connection
    assert nabla[0][0] == (0, -1, -1)
    assert nabla[1][0] == (0, 0, 1)
    assert nabla[2][0] == (0, 1, 0)
    assert nabla[2][1] == (-1, 0, -1)


def test_levi_civita_g5_spot_values():
    nabla = ricci(build_family(FamilyParams("G5", alpha=2, beta=0, gamma=0, delta=1))).connection
    assert nabla[0][0] == (0, 0, 2)
    assert nabla[1][1] == (0, 0, 1)
    assert nabla[0][2] == (2, 0, 0)
    assert nabla[1][2] == (0, 1, 0)
    for i, j in ((1, 0), (2, 0), (0, 1), (2, 1), (2, 2)):
        assert nabla[i][j] == (0, 0, 0)


def test_levi_civita_abelian_is_flat():
    nabla = ricci(ABELIAN).connection
    assert all(x == 0 for i in nabla for j in i for x in j)
    riem = curvature(ABELIAN, nabla)
    assert all(x == 0 for a in riem for b in a for c in b for x in c)


def test_levi_civita_matches_tables(family_samples_100):
    for family, samples in family_samples_100.items():
        expected_table = CONNECTION_TABLES[family]
        for params in samples:
            nabla = ricci(build_family(params)).connection
            expected = expected_table(params)
            for i in range(3):
                for j in range(3):
                    assert nabla[i][j] == tuple(expected[i][j]), (
                        family,
                        params,
                        i,
                        j,
                    )


def test_levi_civita_rejects_non_lie_algebra():
    with pytest.raises(NotLieAlgebra):
        ricci(from_raw(_non_jacobi_table())).connection


def test_ricci_rejects_non_lie_algebra():
    with pytest.raises(NotLieAlgebra):
        ricci(from_raw(_non_jacobi_table()))


def _scaled(table, t):
    return [[[t * x for x in row] for row in plane] for plane in table]


def test_non_lie_table_with_denominators_is_rejected():
    """The Jacobi check runs on the integer table L c, here with L = 6."""
    sc = from_raw(_scaled(_non_jacobi_table(), F(5, 6)))
    with pytest.raises(NotLieAlgebra):
        ricci(sc)
    with pytest.raises(NotLieAlgebra):
        is_ein2(sc)


def test_lie_table_with_denominators_passes():
    params = FamilyParams("G5", alpha=F(1, 2), beta=0, gamma=0, delta=F(1, 3))
    rd = ricci(build_family(params))
    assert rd.scale == 6
    expected = CONNECTION_TABLES["G5"](params)
    for i in range(3):
        for j in range(3):
            assert rd.connection[i][j] == tuple(expected[i][j]), (i, j)


def test_exact_mode_hands_back_no_float_from_a_float_table():
    """In exact mode a float table reads as its dyadic rationals throughout: `from_raw`
    stores Fractions and the connection holds no float, equal to that of the Fractions;
    approx mode keeps the floats."""
    raw = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    raw[0][1][2], raw[1][0][2] = 0.1, -0.1
    exact = from_raw(raw, Mode.exact())
    assert all(type(x) is Fraction for x in exact.values()), exact
    assert exact.brackets[0][2] == Fraction(0.1)
    assert type(from_raw(raw, Mode.approx()).brackets[0][2]) is float

    floats = family_table(FamilyParams("G1", alpha=0.5, beta=0.25))
    connection = ricci(floats, Mode.exact()).connection
    assert connection[0][1] == (F(1, 2), 0, F(-1, 8))
    assert all(type(x) is Fraction for plane in connection for row in plane for x in row), connection
    dyadic = family_table(FamilyParams("G1", alpha=F(1, 2), beta=F(1, 4)))
    assert connection == ricci(dyadic).connection
    assert ricci(floats, Mode.approx()).connection[0][1] == (0.5, 0, -0.125)
    assert type(ricci(floats, Mode.approx()).connection[0][1][0]) is float


def test_approx_mode_on_an_exact_table_tests_jacobi_exactly():
    """An exact table's residual is tested on L c, exactly, whatever the mode.

    Here J(c) = (0, 0, -1e-10), within the 1e-9 tolerance that `jacobi_ok`
    still applies; a float copy of the table keeps that tolerance test.
    """
    exact = from_raw(_scaled(_non_jacobi_table(), F(1, 100000)))
    approx = Mode.approx()
    assert jacobi_ok(exact, approx)
    with pytest.raises(NotLieAlgebra):
        ricci(exact, approx)
    floats = from_raw(_scaled(_non_jacobi_table(), 1e-5))
    assert ricci(floats).scale == 1


def test_connection_invariants(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples[:25]:
            sc = build_family(params)
            nabla = ricci(sc).connection
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        torsion = nabla[i][j][k] - nabla[j][i][k] - sc.c[i][j][k]
                        assert torsion == 0
                        compat = EPS[k] * nabla[i][j][k] + EPS[j] * nabla[i][k][j]
                        assert compat == 0


def test_curvature_antisymmetry_and_bianchi(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples[:25]:
            sc = build_family(params)
            riem = curvature(sc, ricci(sc).connection)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        for l in range(3):
                            assert riem[i][j][k][l] == -riem[j][i][k][l]
                            bianchi = (
                                riem[i][j][k][l] + riem[j][k][i][l] + riem[k][i][j][l]
                            )
                            assert bianchi == 0


def test_curvature_g1_spot_value():
    # R(e1,e2)e1 = 2 e2 + 2 e3 at alpha=1, beta=0, agreeing with the
    # brute-force vector-algebra route.
    from oracles import curvature_vec, koszul_connection

    sc = build_family(FamilyParams("G1", alpha=1, beta=0))
    riem = curvature(sc, ricci(sc).connection)
    assert riem[0][1][0] == (0, 2, 2)
    assert curvature_vec(sc, koszul_connection(sc), 0, 1, 0) == (0, 2, 2)


def test_ricci_g1_printed_matrix():
    rd = ricci(build_family(FamilyParams("G1", alpha=1, beta=2)))
    assert rd.rho_op == ((-2, -2, -2), (-2, -4, -2), (2, 2, 0))


def test_ricci_g2_printed_matrix():
    rd = ricci(build_family(FamilyParams("G2", alpha=1, beta=1, gamma=1)))
    assert rd.rho_op == (
        (F(-5, 2), 0, 0),
        (0, F(-1, 2), -1),
        (0, 1, F(-1, 2)),
    )


def test_ricci_abelian_zero():
    rd = ricci(ABELIAN)
    assert all(x == 0 for row in rd.rho_op for x in row)


def test_ricci_g7_null_image():
    # rho0 maps onto a null direction: rho^2 vanishes while rho0 does not.
    rd = ricci(build_family(FamilyParams("G7", alpha=1, beta=0, gamma=0, delta=2)))
    assert rd.rho_op == ((0, 0, 0), (0, 1, 1), (0, -1, -1))
    assert all(x == 0 for row in rd.rho_sq for x in row)


def test_ricci_matches_tables(family_samples_100):
    for family, samples in family_samples_100.items():
        expected_table = RHO_OP_TABLES[family]
        for params in samples:
            rd = ricci(build_family(params))
            assert rd.rho_op == tuple(
                tuple(x for x in row) for row in expected_table(params)
            ), (family, params)


def test_ricci_symmetry_and_self_adjointness(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples[:25]:
            rd = ricci(build_family(params))
            for i in range(3):
                for j in range(3):
                    assert rd.rho[i][j] == rd.rho[j][i]
                    assert rd.rho[i][j] == EPS[j] * rd.rho_op[i][j]
                    assert EPS[j] * rd.rho_op[i][j] == EPS[i] * rd.rho_op[j][i]
                    expected_sq = sum(
                        EPS[k] * rd.rho_op[i][k] * rd.rho_op[j][k] for k in range(3)
                    )
                    assert rd.rho_sq[i][j] == expected_sq


def test_ricci_agrees_with_brute_force(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples:
            assert_matches_reference_routes(build_family(params))


def test_mode_promotion_to_float():
    exact = ricci(build_family(FamilyParams("G1", alpha=1, beta=2)))
    mixed = ricci(build_family(FamilyParams("G1", alpha=1.0, beta=2.0)))
    assert isinstance(mixed.rho_op[0][0], float)
    for i in range(3):
        for j in range(3):
            assert float(exact.rho_op[i][j]) == pytest.approx(mixed.rho_op[i][j])


# ---------------------------------------------------------------------------
# The contraction against the full-tensor route and the brute-force oracle
# ---------------------------------------------------------------------------

def test_ricci_equals_reference_routes_on_branch_samples():
    float_points = 0
    for spec in BRANCHES:
        for params in sample_branch(spec, 50):
            mode = params.mode()
            float_points += not mode.is_exact
            assert_matches_reference_routes(build_family(params, mode), mode)
    assert float_points > 0


def test_ricci_equals_reference_routes_on_anchors():
    mode = Mode.approx()
    for anchor in ANCHORS:
        sc = build_family(anchor.params, mode)
        assert not sc.is_exact()
        assert_matches_reference_routes(sc, mode)


def test_ricci_hands_on_the_integer_contraction():
    rd = ricci(build_family(FamilyParams("G1", alpha=F(1, 2), beta=F(1, 3))))
    assert rd.scale == 6
    assert all(type(x) is int for row in rd.n for x in row)
    # the Fractions are built on first read only
    assert not {"rho", "rho_op", "rho_sq"} & set(vars(rd))
    assert rd.rho == tuple(tuple(F(x, 4 * 6**2) for x in row) for row in rd.n)
    assert rd.rho_sq == tuple(tuple(F(x, 16 * 6**4) for x in row) for row in rd.squares())


def test_ricci_keeps_exact_zero_in_float_tables():
    # Entries with no nonzero term stay Fraction(0) in a float table.
    rd = ricci(build_family(FamilyParams("G5", alpha=0.5, beta=0, gamma=0, delta=1.5)))
    assert type(rd.rho[0][1]) is Fraction and rd.rho[0][1] == 0
    assert isinstance(rd.rho[0][0], float)


_BIG_DENOMINATORS = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
# decimals with full-width mantissas, so that reordered sums round differently
_FULL_MANTISSA_FLOATS = st.integers(min_value=-10**16, max_value=10**16).map(lambda k: k * 1e-15)


@st.composite
def family_points(draw, scalars):
    """A point on the family's parameter set, equalities solved for one parameter."""
    family = draw(st.sampled_from(FAMILIES))
    a, b, g, d = (draw(scalars) for _ in range(4))
    if family == "G4":
        return FamilyParams("G4", alpha=a, beta=b, eta=draw(st.sampled_from((1, -1))))
    if family in ("G5", "G6", "G7"):
        if family != "G7" and b:
            d = (-a if family == "G5" else a) * g / b
        elif draw(st.booleans()):
            a = 0
        else:
            g = 0
    return FamilyParams(family, alpha=a, beta=b, gamma=g, delta=d)


def _valid_table(params):
    try:
        return build_family(params)
    except ConstraintViolation:
        assume(False)


@given(params=family_points(_BIG_DENOMINATORS))
@settings(max_examples=60, deadline=None)
def test_ricci_equals_reference_routes_with_large_denominators(params):
    assert_matches_reference_routes(_valid_table(params))


@given(params=family_points(_FULL_MANTISSA_FLOATS))
@settings(max_examples=60, deadline=None)
def test_ricci_float_tables_bit_identical_to_tensor_route(params):
    sc = _valid_table(params)
    assume(not sc.is_exact())
    assert_matches_reference_routes(sc)


_PAIRS = ((0, 1), (0, 2), (1, 2))


@st.composite
def raw_tables(draw, scalars):
    """An antisymmetric raw table from nine drawn brackets c^k_ij (i < j), zero in part."""
    brackets = draw(st.lists(st.one_of(st.just(0), scalars), min_size=9, max_size=9))
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for p, (i, j) in enumerate(_PAIRS):
        for k in range(3):
            table[i][j][k], table[j][i][k] = brackets[3 * p + k], -brackets[3 * p + k]
    return table


def _assert_antisymmetric_with_zero_diagonal(sc):
    c = sc.c
    for i in range(3):
        assert c[i][i] == (0, 0, 0)
        for j in range(3):
            assert all(c[i][j][k] == -c[j][i][k] for k in range(3))


@given(source=st.one_of(raw_tables(_BIG_DENOMINATORS), family_points(_BIG_DENOMINATORS)))
@settings(max_examples=300, deadline=None)
def test_exact_ricci_equals_the_contraction_loop_on_the_scaled_table(source):
    """The compiled form against `_contract` and `_jacobi_base` run on L c.

    Raw tables are mostly not Lie and their Lie ones sparse; family
    points add dense Lie tables (G1 and G7 have seven or eight brackets).
    """
    sc = from_raw(source) if isinstance(source, list) else _valid_table(source)
    scale = math.lcm(*(x.denominator for x in sc.values()))
    scaled = [[[x.numerator * (scale // x.denominator) for x in row] for row in plane]
              for plane in sc.c]
    if any(_jacobi_base(scaled)):
        with pytest.raises(NotLieAlgebra):
            ricci(sc)
        return
    rd = ricci(sc)
    assert (rd.n, rd.scale) == (_contract(scaled), scale)
    assert all(type(x) is int for row in rd.n for x in row)
    assert rd.connection == tuple(
        tuple(tuple(F(x, 2 * scale) for x in row) for row in plane) for plane in _koszul(scaled)
    )


@given(table=raw_tables(_BIG_DENOMINATORS | _FULL_MANTISSA_FLOATS))
@settings(max_examples=100, deadline=None)
def test_from_raw_stores_an_antisymmetric_table_with_zero_diagonal(table):
    _assert_antisymmetric_with_zero_diagonal(from_raw(table))


def test_family_tables_are_antisymmetric_with_zero_diagonal(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples:
            _assert_antisymmetric_with_zero_diagonal(family_table(params))
    for anchor in ANCHORS:
        _assert_antisymmetric_with_zero_diagonal(family_table(anchor.params))
    rng = random.Random(7)
    for _ in range(100):
        x = [rng.choice((0, F(rng.randint(-9, 9), rng.randint(1, 9)), rng.uniform(-9, 9)))
             for _ in range(9)]
        sc = StructureConstants((tuple(x[:3]), tuple(x[3:6]), tuple(x[6:])))
        _assert_antisymmetric_with_zero_diagonal(sc)


def test_importing_the_package_derives_no_form():
    """The exact form is derived on the first exact `ricci` call, not at import."""
    src = os.path.dirname(os.path.dirname(ein2lie.__file__))
    code = "import ein2lie; print(ein2lie.geometry._form.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.strip() == "0"


def test_exact_mode_decides_a_float_table_on_ints(family_samples_100):
    """The float tables of the seed-7 points (16 of the G7 ones fail the Jacobi test in
    float arithmetic): exact mode reads each entry as its dyadic rational, so `ricci`
    contracts ints, as on the table of Fractions, and `jacobi_ok` decides as there."""
    exact = Mode.exact()
    for samples in family_samples_100.values():
        for params in samples:
            floats = family_table(FamilyParams(params.family, eta=params.eta, **{
                name: float(getattr(params, name)) for name in ("alpha", "beta", "gamma", "delta")
            }))
            dyadic = StructureConstants(tuple(tuple(map(F, bracket)) for bracket in floats.brackets))
            assert jacobi_ok(floats, exact) == jacobi_ok(dyadic, exact), floats
            if jacobi_ok(dyadic, exact):
                rd, reference = ricci(floats, exact), ricci(dyadic, exact)
                assert all(type(x) is int for row in rd.n for x in row), floats
                assert (rd.n, rd.scale) == (reference.n, reference.scale)
