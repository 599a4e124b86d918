"""Component system assembly, the affine solver, and tabulated-system fidelity."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ein2lie import (
    ANCHORS,
    BRANCHES_BY_LABEL,
    CONVENTIONS,
    DELTA,
    METRIC,
    FamilyParams,
    Mode,
    RicciData,
    build_family,
    from_raw,
    is_ein2,
    match_printed_system,
    ricci,
    sample_branch,
    solve,
)
import ein2lie
from ein2lie import ein2
from ein2lie.ein2 import PAIRS
from ein2lie.liealg import (
    FAMILY_PIECES,
    ConstraintViolation,
    _compile_clauses,
    _evaluate,
    _execute,
    _formula,
    _numbers,
    _plan,
)
from oracles import covers, min_sup_residual_vertices, solve_brute, solve_eliminate
from test_geometry import _BIG_DENOMINATORS, _valid_table, family_points

F = Fraction
EXACT, APPROX = Mode.exact(), Mode.approx()

ABELIAN = from_raw([[[0] * 3 for _ in range(3)] for _ in range(3)], EXACT)


def solve_triples(triples, mode=Mode.exact()):
    """Solve hand-built rows (a, b, c): exact ones scaled to ints by their lcm, floats as floats."""
    if not mode.is_exact:
        return ein2._solve(tuple(tuple(float(x) for x in row) for row in triples), 1, mode)
    rows = [tuple(F(x) for x in row) for row in triples]
    scale = lcm(*(x.denominator for row in rows for x in row))
    ints = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)
    return ein2._solve(ints, scale, mode)


def ricci_rows(rd, convention):
    """The six rows (rho_sq, rho, C) on PAIRS, read off the Ricci Fractions."""
    constants = (1, 0, 0, 1, 0, -1 if convention == METRIC else 1)
    return [(rd.rho_sq[i][j], rd.rho[i][j], F(c)) for (i, j), c in zip(PAIRS, constants)]


def test_rows_g1_first_row():
    rows = is_ein2(build_family(FamilyParams("G1", alpha=1, beta=2), EXACT), DELTA, EXACT).rows
    assert rows[0] == (4, -2, 1)


def test_rows_zero_ricci_rows():
    for (i, j), (a, b, c) in zip(PAIRS, is_ein2(ABELIAN, DELTA, EXACT).rows):
        assert (a, b) == (0, 0)
        assert c == (1 if i == j else 0)


def test_rows_g7_mixed_row():
    sc = build_family(FamilyParams("G7", alpha=0, beta=1, gamma=1, delta=1), EXACT)
    rows = is_ein2(sc, DELTA, EXACT).rows
    assert rows[PAIRS.index((1, 2))] == (1, 1, 0)


def test_conventions_differ_only_in_last_diagonal_row(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples[:10]:
            rd = ricci(build_family(params, EXACT), EXACT)
            delta_rows = solve(rd, DELTA, Mode.exact()).rows
            metric_rows = solve(rd, METRIC, Mode.exact()).rows
            assert delta_rows[:5] == metric_rows[:5]
            a_d, b_d, c_d = delta_rows[5]
            a_m, b_m, c_m = metric_rows[5]
            assert (a_d, b_d) == (a_m, b_m)
            assert (c_d, c_m) == (1, -1)


def test_an_unknown_convention_is_refused_with_its_message():
    sc = build_family(FamilyParams("G1", alpha=1, beta=2), EXACT)
    expected = "unknown convention 'bogus'; expected one of ('delta', 'metric')"
    with pytest.raises(ValueError) as raised:
        is_ein2(sc, "bogus", EXACT)
    assert str(raised.value) == expected


def test_conventions_agree_when_lambda2_zero():
    # A lambda2 = 0 point solves both readings of the constant column.
    params = FamilyParams("G2", alpha=2, beta=1, gamma=1)
    rd = ricci(build_family(params, EXACT), EXACT)
    sol_delta = solve(rd, DELTA, Mode.exact())
    sol_metric = solve(rd, METRIC, Mode.exact())
    assert sol_delta.kind == sol_metric.kind == "point"
    assert sol_delta.point == sol_metric.point == (4, 0)
    # Same for the flat case: both conventions give the lambda2 = 0 line.
    line_metric = is_ein2(ABELIAN, METRIC, EXACT)
    assert line_metric.kind == "line" and line_metric.lambda2_zero_line()


def test_solve_zero_ricci_gives_free_lambda1_line():
    solution = is_ein2(ABELIAN, DELTA, EXACT)
    assert solution.kind == "line"
    assert solution.lambda2_zero_line()
    assert solution.line_base == (0, 0)
    assert solution.line_direction == (1, 0)
    assert solution.residual == 0


def test_solve_point_example():
    sc = build_family(FamilyParams("G2", alpha=2, beta=1, gamma=1), EXACT)
    solution = is_ein2(sc, DELTA, EXACT)
    assert solution.kind == "point"
    assert solution.point == (4, 0)
    assert solution.residual == 0


def test_solve_inconsistent_example():
    solution = is_ein2(build_family(FamilyParams("G1", alpha=1, beta=1), EXACT), DELTA, EXACT)
    assert solution.kind == "none"
    assert solve_brute(solution.rows)[0] == "none"
    assert solution.residual > 0


def test_minimal_residual_is_a_lower_bound():
    solution = is_ein2(build_family(FamilyParams("G1", alpha=1, beta=1), EXACT), DELTA, EXACT)
    best = solution.residual
    for l1 in (F(-3), F(-1), F(0), F(1), F(3, 2), F(2), F(3)):
        for l2 in (F(-2), F(0), F(1), F(2)):
            assert solution.residual_of(l1, l2) >= best


def test_solve_plane_for_identically_zero_system():
    solution = solve_triples([(0, 0, 0)] * 6)
    assert solution.kind == "plane"
    assert solution.residual == 0


def test_solve_lambda2_free_line():
    # Rows constraining only lambda1: the solution line runs along lambda2.
    solution = solve_triples([(-2, 1, 0), (-2, 1, 0), (0, 0, 0), (-4, 2, 0), (0, 0, 0), (0, 0, 0)])
    assert solution.kind == "line"
    assert solution.contains(F(2), F(17))
    assert not solution.contains(F(1), F(0))


def test_is_ein2_examples():
    sol = is_ein2(build_family(FamilyParams("G1", alpha=F(3, 2), beta=0), EXACT), DELTA, EXACT)
    assert sol.kind == "point" and sol.point == (0, 0)

    sol = is_ein2(build_family(FamilyParams("G4", alpha=0, beta=1, eta=1), EXACT), DELTA, EXACT)
    assert sol.kind == "line" and sol.lambda2_zero_line()

    sol = is_ein2(ABELIAN, DELTA, EXACT)
    assert sol.kind == "line" and sol.lambda2_zero_line()


def test_match_printed_system_examples():
    assert match_printed_system(FamilyParams("G1", alpha=1, beta=2))
    assert match_printed_system(FamilyParams("G5", alpha=1, beta=0, gamma=0, delta=1))
    assert match_printed_system(FamilyParams("G3", alpha=1, beta=2, gamma=3))


def test_match_printed_system_sampled(family_samples_100):
    for samples in family_samples_100.values():
        for params in samples[:25]:
            assert match_printed_system(params), params


def test_match_printed_system_reads_float_parameters_as_dyadic_rationals():
    """Fidelity is exact on float points too: a float G5 or G6 branch sample that misses
    its bilinear family relation exactly raises ConstraintViolation, the others match,
    and so do both anchors, whose delta = 2*alpha is exact in floats."""
    for label, missing in (("3.2(iv)", 24), ("3.4(vii)", 29)):
        raised = 0
        for params in sample_branch(BRANCHES_BY_LABEL[label], 50, seed=7):
            assert type(params.alpha) is float, params
            try:
                assert match_printed_system(params), params
            except ConstraintViolation:
                raised += 1
        assert raised == missing, label
    assert all(match_printed_system(anchor.params) for anchor in ANCHORS)


def test_exact_verdicts_and_fidelity_build_no_ricci_fraction(monkeypatch, family_samples_100):
    """Exact is_ein2 and match_printed_system read only the integer contraction,
    and exact fidelity evaluates the tabulated texts on ints only: it converts
    each point to int pairs (`_pairs`) and runs their plans on them."""
    points = [params for samples in family_samples_100.values() for params in samples[:10]]
    references = [ricci_rows(ricci(build_family(p, EXACT), EXACT), DELTA) for p in points]

    def refuse(self):
        raise AssertionError("a Ricci Fraction was built")

    for name in ("rho", "rho_op", "rho_sq"):
        monkeypatch.setattr(RicciData, name, property(refuse))
    pairs, execute, integer_runs = ein2._pairs, ein2._execute, []

    def to_pairs(values):
        converted = pairs(values)
        assert not any(isinstance(x, Fraction) for x in converted.values()), converted
        return converted

    def ints_only(plan, pairs, exact, *args):
        given = [*pairs.values()]
        out = execute(plan, pairs, exact, *args)
        pairs = [*given, *out.values()]
        assert exact and all(type(x) is int for pair in pairs for x in pair), (pairs, out)
        integer_runs.append(plan)
        return out

    monkeypatch.setattr(ein2, "_pairs", to_pairs)
    monkeypatch.setattr(ein2, "_execute", ints_only)
    for params, rows in zip(points, references):
        solution = is_ein2(build_family(params, EXACT), DELTA, EXACT)
        assert_matches_elimination(solution, rows, Mode.exact())
        assert match_printed_system(params), params
    assert integer_runs == [_formula(ein2.PRINTED_SYSTEMS[params.family]) for params in points]


def test_exact_verdicts_and_fidelity_build_no_full_table(monkeypatch, family_samples_100):
    """Exact is_ein2 and match_printed_system read the nine brackets, never `c`."""
    built = []

    def build(params, mode):
        built.append(build_family(params, mode))
        return built[-1]

    monkeypatch.setattr(ein2, "build_family", build)
    for samples in family_samples_100.values():
        for params in samples:
            sc = build_family(params, EXACT)
            is_ein2(sc, DELTA, EXACT)
            assert match_printed_system(params), params
            assert "c" not in vars(sc) and "c" not in vars(built[-1]), params


def _distinct_nonzero(rows):
    """Tabulated rows that are nonzero and pairwise distinct up to sign."""
    keys = {max(tuple(row), tuple(-x for x in row)) for row in rows}
    return len(keys) == len(rows) and all(any(row) for row in rows)


def test_match_printed_system_rejects_a_changed_table(monkeypatch, family_samples_100):
    """Adding 1 to any one tabulated coefficient breaks the match, and so
    does an extra row (0, 0, 2), which no delta-convention system has.
    The change wraps `_printed_rows`, the ints of the text's integer
    plan on the scale of `_rows`, so +1 is a change of 1/(16 L^4) in the
    table."""
    tabulated = ein2._printed_rows
    for family, samples in family_samples_100.items():
        scales = {p: ricci(build_family(p, EXACT), EXACT).scale for p in samples}
        points = [p for p in samples if _distinct_nonzero(tabulated(p, scales[p]))][:3]
        assert points, family
        for params in points:
            scale = scales[params]
            monkeypatch.setattr(ein2, "_printed_rows", tabulated)
            assert match_printed_system(params), params
            for r in range(len(tabulated(params, scale))):
                for k in range(3):

                    def changed(p, s, r=r, k=k):
                        rows = [list(row) for row in tabulated(p, s)]
                        rows[r][k] += 1
                        return rows

                    monkeypatch.setattr(ein2, "_printed_rows", changed)
                    assert not match_printed_system(params), (params, r, k)

            def extended(p, s):
                return [*tabulated(p, s), (0, 0, 2)]

            monkeypatch.setattr(ein2, "_printed_rows", extended)
            assert not match_printed_system(params), params


def test_importing_the_package_compiles_no_integer_plan():
    """Import compiles no formula; an exact fidelity check then compiles its
    family's plan, which runs on int pairs, and only that."""
    src = os.path.dirname(os.path.dirname(ein2lie.__file__))
    code = (
        "import ein2lie; size = ein2lie.liealg._formula.cache_info().currsize; "
        "ein2lie.match_printed_system(ein2lie.FamilyParams('G1', alpha=1, beta=2)); "
        "print(size, ein2lie.liealg._formula.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.split() == ["0", "1"]


_PIECES = [(family, free, text) for family, pieces in FAMILY_PIECES.items() for free, text in pieces]


@pytest.mark.parametrize("family, free, text", _PIECES, ids=[f"{f}:{free}" for f, free, _ in _PIECES])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integer_plan_rows_are_the_scaled_fraction_rows(family, free, text, data):
    """At rational points with large denominators on each piece of each
    family, the tabulated rows of the integer plan are ints, and entry by
    entry 16 L^4 times the Fraction rows `_evaluate` gives."""

    def draw(rng, name, nonzero):
        if name == "eta":
            return data.draw(st.sampled_from((1, -1))), 1
        return data.draw(_BIG_DENOMINATORS.filter(bool) if nonzero else _BIG_DENOMINATORS).as_integer_ratio()

    # the piece's relations fix the other parameters, as its sampler's plan does
    exact = Mode.exact()
    values = _execute(_plan(_compile_clauses(text) if text else (), free), {}, True, draw=draw)
    assume(values is not None)
    params = FamilyParams(family, **_numbers(values))
    scale = ricci(_valid_table(params, exact), exact).scale
    integer = ein2._printed_rows(params, scale)
    bound = _evaluate(ein2.PRINTED_SYSTEMS[family], vars(params), exact)
    fractions = [tuple(bound[f"{x}{i}"] for x in "ABC") for i in range(1, 7) if f"A{i}" in bound]
    assert all(type(x) is int for row in integer for x in row), integer
    assert integer == [tuple(16 * scale**4 * x for x in row) for row in fractions]


@given(
    rows=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), max_size=6),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_sign_canonical_sets_equal_the_two_way_cover(rows, data):
    """Equal sets of sign-canonical nonzero rows are exactly the two-way cover of the oracle.

    The other side drops, keeps or repeats each row, flips its sign, adds
    zero rows, may change one entry by 1 and is shuffled."""
    others = [
        tuple(data.draw(st.sampled_from((1, -1))) * x for x in row)
        for row in rows
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    others += [(0, 0, 0)] * data.draw(st.integers(0, 2))
    if others and data.draw(st.booleans()):
        r, k = data.draw(st.integers(0, len(others) - 1)), data.draw(st.integers(0, 2))
        changed = list(others[r])
        changed[k] += data.draw(st.sampled_from((1, -1)))
        others[r] = tuple(changed)
    others = data.draw(st.permutations(others))
    two_way = covers(rows, others) and covers(others, rows)
    assert (ein2._canonical(rows) == ein2._canonical(others)) is two_way


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(triples=st.lists(st.tuples(small_fractions, small_fractions, small_fractions), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_minors_oracle(triples):
    solution = solve_triples(triples)
    oracle = solve_brute(triples)
    assert solution.kind == oracle[0]
    if oracle[0] == "point":
        assert solution.point == oracle[1]
    elif oracle[0] == "line":
        base, direction = oracle[1], oracle[2]
        assert solution.contains(*base)
        assert solution.contains(base[0] + direction[0], base[1] + direction[1])
    if solution.kind != "none":
        assert solution.residual == 0


@given(triples=st.lists(st.tuples(small_fractions, small_fractions, small_fractions), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_minimal_residual_never_exceeds_probes(triples):
    solution = solve_triples(triples)
    if solution.kind != "none":
        return
    best = solution.residual
    assert best > 0
    for l1 in (F(-1), F(0), F(1)):
        for l2 in (F(-1), F(0), F(1)):
            assert solution.residual_of(l1, l2) >= best


@st.composite
def rank_forced_triples(draw):
    """Six rows whose coefficient rank (0, 1 or 2) is chosen, not left to chance.

    Uniform rows are almost always rank 2, so rank 0 (every (b, c) zero)
    and rank 1 (every (b, c) a multiple of one direction, c = k*b or
    b = 0) are built on purpose; duplicated, sign-flipped and zero-
    coefficient rows are then mixed in.
    """
    rank = draw(st.sampled_from((0, 1, 2)))
    a_column = draw(st.lists(small_fractions, min_size=6, max_size=6))
    if rank == 0:
        coefficients = [(F(0), F(0))] * 6
    elif rank == 1:
        u, v = draw(st.tuples(small_fractions, small_fractions).filter(lambda d: d != (0, 0)))
        scales = draw(st.lists(small_fractions, min_size=6, max_size=6))
        coefficients = [(t * u, t * v) for t in scales]
    else:
        coefficients = draw(st.lists(st.tuples(small_fractions, small_fractions), min_size=6, max_size=6))
    rows = [(a, b, c) for a, (b, c) in zip(a_column, coefficients)]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("duplicate", "flip", "zero")))
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        if op == "duplicate":
            rows[i] = rows[j]
        elif op == "flip":
            rows[i] = tuple(-x for x in rows[j])
        else:
            rows[i] = (rows[i][0], F(0), F(0))
    return rows


@pytest.mark.parametrize(
    "triples, expected",
    [
        # Rank 0: nothing to tune, the largest |a| remains.
        ([(1, 0, 0), (-3, 0, 0), (2, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)], 3),
        # Rank 1 with b = 0 throughout: lambda2 = -2 balances 1 and 3.
        ([(1, 0, 1), (3, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)], 1),
        # Rank 1 with c = 2b: s = lambda1 + 2 lambda2 = 0 balances |1 + s| and |2s - 1|.
        ([(1, 1, 2), (-1, 2, 4), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)], 1),
        # Rank 2 with a duplicated and a sign-flipped row: |a| = 1 at the origin is optimal.
        ([(1, 1, 0), (1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, 1), (0, 1, 1)], 1),
        # Rank 2 with a zero-coefficient row that dominates.
        ([(F(7, 2), 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 1), (0, 0, 0), (0, 0, 0)], F(7, 2)),
    ],
)
def test_minimal_residual_examples(triples, expected):
    solution = solve_triples(triples)
    assert solution.kind == "none"
    assert solution.residual == expected
    assert type(solution.residual) is Fraction
    assert min_sup_residual_vertices(solution.rows, Mode.exact()) == expected


@given(triples=rank_forced_triples())
@settings(max_examples=200, deadline=None)
def test_minimal_residual_matches_vertex_oracle(triples):
    solution = solve_triples(triples)
    assume(solution.kind == "none")
    residual = solution.residual
    assert type(residual) is Fraction
    assert residual == min_sup_residual_vertices(triples, Mode.exact())


@given(triples=rank_forced_triples(), scale=st.sampled_from((F(1), F(1, 100), F(100))))
@settings(max_examples=200, deadline=None)
def test_float_minimal_residual_tracks_exact(triples, scale):
    scaled = [tuple(scale * F(x) for x in row) for row in triples]
    exact = solve_triples(scaled)
    approx = solve_triples(scaled, Mode.approx())
    assume(exact.kind == approx.kind == "none")
    r = exact.residual
    assert abs(approx.residual - r) <= 1e-9 * max(1, r)


def _interleave(nonzero, at, zeros):
    """len(zeros) rows: `nonzero` in its order at the positions `at`, the next of `zeros` elsewhere."""
    rows, fill = iter(nonzero), iter(zeros)
    return [next(rows) if i in at else next(fill) for i in range(len(zeros))]


# all-zero rows as float rows may hold them: int 0, 0.0 and -0.0
_ZERO_ROWS = ((0, 0, 0), (0.0, -0.0, 0.0), (-0.0, -0.0, -0.0))


@given(triples=rank_forced_triples(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_all_zero_rows_leave_the_minimal_residual_as_it_was(triples, data):
    rows = [tuple(F(x) for x in row) for row in triples]
    scale = lcm(*(x.denominator for row in rows for x in row)) * data.draw(st.integers(2, 5))
    ints = [row for row in (tuple(int(x * scale) for x in row) for row in rows) if any(row)]
    assume(ints)
    keep = data.draw(st.sets(st.integers(0, len(ints) - 1), min_size=1))
    nonzero = [ints[i] for i in sorted(keep)]
    total = max(3, len(nonzero)) + data.draw(st.integers(0, 2))
    at = set(data.draw(st.permutations(range(total)))[: len(nonzero)])
    zeros = data.draw(st.lists(st.sampled_from(_ZERO_ROWS), min_size=total, max_size=total))
    padded = _interleave(nonzero, at, [(0, 0, 0)] * total)
    exact = [ein2._min_sup_residual(r, scale, EXACT) for r in (nonzero, padded)]
    assert type(exact[0]) is type(exact[1]) is Fraction
    oracle = min_sup_residual_vertices([tuple(F(x, scale) for x in row) for row in padded], EXACT)
    assert exact[0] == exact[1] == oracle
    floats = [tuple(x / scale for x in row) for row in nonzero]
    approx = [ein2._min_sup_residual(r, 1, APPROX) for r in (floats, _interleave(floats, at, zeros))]
    assert type(approx[0]) is type(approx[1]) is float
    assert approx[0] == approx[1]
    assert abs(approx[1] - oracle) <= 1e-9 * max(1, oracle)


@pytest.mark.parametrize(
    "nonzero, expected",
    [
        ([(3, 0, 0)], F(3, 2)),
        ([(3, 1, 2)], 0),
        ([(2, 0, 2), (6, 0, 2)], 1),
        ([(2, 2, 4), (-2, 4, 8)], 1),
        ([(2, 2, 0), (4, 0, 2)], 0),
    ],
)
def test_minimal_residual_of_one_or_two_nonzero_rows(nonzero, expected):
    """Scale 2; no triple is left once the zero rows are dropped."""
    for at in itertools.combinations(range(6), len(nonzero)):
        padded = _interleave(nonzero, set(at), [(0, 0, 0)] * 6)
        assert min_sup_residual_vertices([tuple(F(x, 2) for x in row) for row in padded], EXACT) == expected
        for rows in (nonzero, padded):
            residual = ein2._min_sup_residual(rows, 2, EXACT)
            assert type(residual) is Fraction and residual == expected
            residual = ein2._min_sup_residual([tuple(x / 2 for x in row) for row in rows], 1, APPROX)
            assert type(residual) is float and residual == expected


def test_a_row_within_tolerance_of_zero_is_not_dropped():
    tiny = APPROX.tolerance / 2
    assert ein2._min_sup_residual([(tiny, 0.0, 0.0), (0.0, -0.0, 0.0)], 1, APPROX) == tiny


# ---------------------------------------------------------------------------
# The integer solver against the pivoted elimination it replaced
# ---------------------------------------------------------------------------

_FIELDS = ("point", "line_base", "line_direction", "residual")


def assert_matches_elimination(solution, rows, mode):
    """Exact: identical values and types; float: same kind, lambdas within 1e-9."""
    oracle = solve_eliminate(rows, mode)
    assert solution.kind == oracle.kind
    if mode.is_exact:
        assert repr([getattr(solution, f) for f in _FIELDS]) == repr(
            [getattr(oracle, f) for f in _FIELDS]
        )
        probes = [(F(1), F(0)), oracle.point or oracle.line_base or (F(0), F(0))]
        if oracle.kind == "line":
            base, direction = oracle.line_base, oracle.line_direction
            probes.append((base[0] + direction[0], base[1] + direction[1]))
        for lam1, lam2 in probes:
            on_rows = all(a + lam1 * b + lam2 * c == 0 for a, b, c in rows)
            assert solution.contains(lam1, lam2) == (oracle.kind != "none" and on_rows)
        return
    for field in _FIELDS[:3]:
        got, want = getattr(solution, field), getattr(oracle, field)
        assert (got is None) == (want is None)
        for x, y in zip(got or (), want or ()):
            assert abs(x - y) <= 1e-9 * max(1, abs(y))


@st.composite
def oracle_triples(draw):
    """Rows of a forced coefficient rank, made consistent half of the time."""
    rows = draw(rank_forced_triples())
    if draw(st.booleans()):
        lam1, lam2 = draw(small_fractions), draw(small_fractions)
        rows = [(-(lam1 * b + lam2 * c), b, c) for _, b, c in rows]
    return rows


@given(triples=oracle_triples())
@settings(max_examples=120, deadline=None)
def test_solver_matches_elimination_oracle(triples):
    assert_matches_elimination(solve_triples(triples), triples, Mode.exact())
    floats = [tuple(float(x) for x in row) for row in triples]
    assert_matches_elimination(solve_triples(triples, Mode.approx()), floats, Mode.approx())


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_LARGE = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@given(
    params=st.one_of(family_points(_SMALL), family_points(_LARGE)),
    convention=st.sampled_from(CONVENTIONS),
)
@settings(max_examples=60, deadline=None)
def test_is_ein2_matches_elimination_oracle_on_ricci_rows(params, convention):
    try:
        sc = build_family(params, EXACT)
    except ConstraintViolation:
        assume(False)
    rows = ricci_rows(ricci(sc, EXACT), convention)
    assert_matches_elimination(is_ein2(sc, convention, EXACT), rows, Mode.exact())

    values = {name: float(getattr(params, name)) for name in ("alpha", "beta", "gamma", "delta")}
    approx = Mode.approx()
    try:
        float_sc = build_family(FamilyParams(params.family, eta=params.eta, **values), approx)
    except ConstraintViolation:
        return
    float_rows = ricci_rows(ricci(float_sc, approx), convention)
    assert_matches_elimination(is_ein2(float_sc, convention, approx), float_rows, approx)


def test_systems_carry_plain_int_constants():
    for params, mode in (
        (FamilyParams("G1", alpha=1.0, beta=2.0), APPROX),
        (FamilyParams("G5", alpha=0.5, beta=0.0, gamma=0.0, delta=1.5), APPROX),
        (FamilyParams("G1", alpha=1, beta=2), EXACT),
    ):
        rd = ricci(build_family(params, mode), mode)
        for convention in CONVENTIONS:
            constants = [c for _, _, c in ein2._rows(rd, convention, mode)[0]]
            assert all(type(c) is int for c in constants), (params, convention, constants)


def _float_route_points():
    """Float branch samples, both anchors and the points of the approx benchmark scans."""
    points = [
        params
        for label in ("2.7(viii)", "3.2(iv)", "3.4(vii)")
        for params in sample_branch(BRANCHES_BY_LABEL[label], 20, 7)
    ]
    points += [anchor.params for anchor in ANCHORS]
    halves = [k / 2 for k in range(-4, 5)]
    points += [FamilyParams("G3", alpha=a, beta=b, gamma=1.0) for a in halves for b in halves]
    points += [FamilyParams("G1", alpha=1 + k / 2, beta=b) for k in range(5) for b in halves]
    points += [
        FamilyParams("G5", alpha=a, beta=0.0, gamma=0.0, delta=d)
        for a in halves
        for d in halves
        if a + d != 0
    ]
    return points


def _bits(x):
    return type(x), x.hex() if isinstance(x, float) else x


# Exact tables with denominators (L = 6 for both), which approx mode reads
# on the integer contraction N and its scale L.
_EXACT_IN_APPROX = (
    FamilyParams("G3", alpha=F(1, 2), beta=F(1, 3), gamma=F(5, 6)),
    FamilyParams("G1", alpha=F(1, 3), beta=F(1, 2)),
)


def _exact_points_in_approx(family_samples_100):
    points = [*_EXACT_IN_APPROX]
    points += [params for samples in family_samples_100.values() for params in samples[:10]]
    assert sum(ricci(build_family(params, EXACT), EXACT).scale > 1 for params in points) >= 20
    return points


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_float_rows_come_straight_from_the_contraction(convention, family_samples_100):
    """Float Ricci data and rows hold no Fraction; rows are the Ricci floats bit for bit.

    Exact tables read in approx mode too: their rows divide S and N by
    16 L^4 and 4 L^2, so they are rho_sq and rho rounded once.
    """
    points = [*_float_route_points(), *_exact_points_in_approx(family_samples_100)]
    for params in points:
        sc = build_family(params, APPROX)
        rd = ricci(sc, APPROX)
        assert not any(type(x) is Fraction for row in rd.n for x in row), params
        rows = is_ein2(sc, convention, APPROX).rows
        for row, (i, j), c in zip(rows, PAIRS, ein2._constants(convention)):
            expected = (float(rd.rho_sq[i][j]), float(rd.rho[i][j]), c)
            assert [_bits(x) for x in row] == [_bits(x) for x in expected], params


def test_approx_mode_reads_exact_tables_at_their_scale(family_samples_100):
    """Approx mode on an exact table finds the exact lambdas, not L^2 or L^4 times them."""
    for params in _exact_points_in_approx(family_samples_100):
        sc = build_family(params, EXACT)
        exact, approx = is_ein2(sc, DELTA, EXACT), is_ein2(sc, DELTA, APPROX)
        assert approx.kind == exact.kind, params
        if exact.kind == "point":
            assert all(abs(x - y) <= 1e-9 for x, y in zip(approx.point, exact.point)), params
    assert is_ein2(build_family(_EXACT_IN_APPROX[0], EXACT), DELTA, APPROX).point == (1 / 3, 0)


def test_approx_solutions_are_floats_without_negative_zero(family_samples_100):
    """Approx points, line bases and line directions are floats, and a zero is +0.0."""
    points = [*_float_route_points(), *_exact_points_in_approx(family_samples_100)]
    kinds = set()
    for params in points:
        solution = is_ein2(build_family(params, APPROX), DELTA, APPROX)
        kinds.add(solution.kind)
        values = solution.point or (solution.line_base or ()) + (solution.line_direction or ())
        for x in values:
            assert type(x) is float and (x != 0 or math.copysign(1.0, x) == 1.0), (params, x)
    assert {"point", "line"} <= kinds


def test_exact_point_contains_compares_with_the_point():
    sc = build_family(FamilyParams("G2", alpha=2, beta=1, gamma=1), EXACT)
    solution = is_ein2(sc, DELTA, EXACT)
    assert solution.point == (4, 0)
    assert solution.contains(4, 0) and solution.contains(F(4), F(0))
    assert not solution.contains(4, F(1, 10**30))


@pytest.mark.parametrize(
    "triples, kind",
    [
        # The reduced coefficient 1e-12 of row 2 is negligible, its minor 1e-8 is not.
        ([(-1e4, 1e4, 0.0), (-1e4, 1e4, 1e-12)] + [(0.0, 0.0, 0.0)] * 4, "line"),
        # Only the least-squares point keeps both lambda1 rows within the tolerance.
        ([(-1 + 9e-10, 1.0, 0.0), (-1 - 9e-10, 1.0, 0.0), (0.0, 0.0, 1.0)] + [(0.0, 0.0, 0.0)] * 3,
         "point"),
    ],
)
def test_float_decisions_at_the_tolerance(triples, kind):
    solution = solve_triples(triples, Mode.approx())
    assert solution.kind == kind
    assert_matches_elimination(solution, triples, Mode.approx())


def _transformed(sc, entry):
    """The raw table whose entry c^k_ij is entry(c, i, j, k)."""
    table = [[[entry(sc.c, i, j, k) for k in range(3)] for j in range(3)] for i in range(3)]
    return from_raw(table, EXACT)


def _same_solution(new, old):
    """The same kind and lambdas, the same line and the same minimal residual, exactly."""
    assert new.kind == old.kind
    if old.kind == "point":
        assert new.point == old.point
    elif old.kind == "line":
        assert new.line_direction == old.line_direction and new.contains(*old.line_base)
    elif old.kind == "none":
        assert new.residual == old.residual


_SIGNS = [signs for signs in itertools.product((1, -1), repeat=3) if signs != (1, 1, 1)]
_SCALES = (F(2), F(-1, 3), F(3, 2), F(-1))


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_exact_verdicts_are_invariant_under_homothety_and_frame_isometries(
    convention, family_samples_100
):
    # Rescaling the algebra by t rescales the Ricci operator by t^2, so a
    # solution (lambda1, lambda2) maps to (t^2*lambda1, t^4*lambda2).  Flipping
    # the sign of basis vectors or swapping the spacelike e1 and e2 is an
    # isometry of the frame: it permutes the rows up to sign.
    for samples in family_samples_100.values():
        for index, params in enumerate(samples):
            sc = build_family(params, EXACT)
            old = is_ein2(sc, convention, EXACT)
            t, s = _SCALES[index % len(_SCALES)], _SIGNS[index % len(_SIGNS)]

            scaled = is_ein2(_transformed(sc, lambda c, i, j, k: t * c[i][j][k]), convention, EXACT)
            assert scaled.kind == old.kind, params
            if old.kind == "point":
                assert scaled.point == (t**2 * old.point[0], t**4 * old.point[1]), params
            elif old.kind == "line":
                (b1, b2), (d1, d2) = old.line_base, old.line_direction
                assert scaled.contains(t**2 * b1, t**4 * b2), params
                assert scaled.contains(t**2 * (b1 + d1), t**4 * (b2 + d2)), params

            flip = lambda c, i, j, k: s[i] * s[j] * s[k] * c[i][j][k]
            swap = lambda c, i, j, k: c[(1, 0, 2)[i]][(1, 0, 2)[j]][(1, 0, 2)[k]]
            for entry in (flip, swap):
                _same_solution(is_ein2(_transformed(sc, entry), convention, EXACT), old)
