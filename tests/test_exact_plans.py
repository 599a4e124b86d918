"""The exact form of every formula text and relation against its scalar form, and
the exact hot path's freedom from Fraction arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ein2lie import (
    BRANCHES,
    BRANCHES_BY_LABEL,
    FAMILIES,
    FamilyParams,
    Mode,
    build_family,
    classify,
    is_ein2,
    match_printed_system,
    sample_branch,
    sample_off_branch,
    sample_valid_points,
    validate_params,
    verify_branch,
)
from ein2lie.branches import _CASE_TEXTS, _members, _piece_plans
from ein2lie.ein2 import CONVENTIONS, PRINTED_SYSTEMS
from ein2lie.verify import DEFAULT_POINTS, _solved
from ein2lie.liealg import (
    FAMILY_PIECES,
    _PARAM_NAMES,
    _compile_clauses,
    _evaluate,
    _execute,
    _family_relations,
    _first_failure,
    _formula,
    _pairs,
)

F = Fraction
EXACT, APPROX = Mode.exact(), Mode.approx()

_TEXTS = sorted(
    {spec.lambdas for spec in BRANCHES}
    | {text for texts in _CASE_TEXTS.values() for text in texts}
    | {spec.quartic for spec in BRANCHES if spec.quartic}
    | set(PRINTED_SYSTEMS.values())
)
#: Every relation over the parameters of every branch, family constraint and family
#: piece, by family: all but those of the branch quartics, whose membership plans
#: `test_exact_membership_plan_of_every_branch_decides_as_its_scalar_plan` runs.
_FAMILY_RELATIONS = {
    family: [
        *(
            relation
            for spec in BRANCHES if spec.family == family
            for relation in spec.relations if relation.names[0] | relation.names[1] <= set(_PARAM_NAMES)
        ),
        *_family_relations(family),
        *(relation for _, text in FAMILY_PIECES[family] if text for relation in _compile_clauses(text)),
    ]
    for family in FAMILIES
}
_RELATIONS = [relation for relations in _FAMILY_RELATIONS.values() for relation in relations]

# Zero and small values make equalities hold and quotients divide by zero;
# large denominators make the unnormalised pairs grow.
_VALUES = st.one_of(
    st.just(F(0)),
    st.sampled_from([F(n, d) for n in range(-3, 4) for d in (1, 2)]),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
)
_POINTS = st.fixed_dictionaries(
    {"alpha": _VALUES, "beta": _VALUES, "gamma": _VALUES, "delta": _VALUES, "eta": st.sampled_from((1, -1))}
)


def _outcome(run):
    """What `run()` gives, or the type of the error it raises."""
    try:
        return run()
    except ZeroDivisionError as error:
        return type(error)


def _scalar_evaluate(text, values, mode):
    """`_evaluate` by the text's plan in scalar forms, as it runs on floats."""
    return _execute(_formula(text), dict(values), False, mode)


@pytest.mark.parametrize("text", _TEXTS)
@given(values=_POINTS)
@settings(max_examples=40, deadline=None)
def test_exact_plan_of_every_formula_text_equals_its_scalar_plan(text, values):
    """Each bound value is the same Fraction; a failed check and a ZeroDivisionError
    come at the same points; in approx mode the scalar plan runs unchanged."""
    scalar = _outcome(lambda: _scalar_evaluate(text, values, EXACT))
    exact = _outcome(lambda: _evaluate(text, values, EXACT))
    if not isinstance(scalar, dict):
        assert exact == scalar
        return
    assert exact.keys() == scalar.keys()
    bound = exact.keys() - values.keys()
    assert all(type(exact[name]) is Fraction and exact[name] == F(scalar[name]) for name in bound)
    assert _outcome(lambda: _evaluate(text, values, APPROX)) == _outcome(
        lambda: _scalar_evaluate(text, values, APPROX)
    )


@given(values=_POINTS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_exact_form_of_every_relation_decides_as_its_scalar_form(values, data):
    """Every relation of every branch, family constraint and family piece: its
    exact test at int pairs is the scalar test in exact mode, `_first_failure` runs
    it in exact mode and the scalar test in approx mode, and both forms raise
    ZeroDivisionError at the same points."""
    relation = data.draw(st.sampled_from(_RELATIONS))
    pairs = _pairs(values)
    scalar = _outcome(lambda: relation.check(values, False, EXACT))
    assert _outcome(lambda: relation.check(dict(pairs), True, None)) == scalar
    assert _outcome(lambda: _first_failure((relation,), values, EXACT) is None) == scalar
    assert _outcome(lambda: _first_failure((relation,), values, APPROX) is None) == _outcome(
        lambda: relation.check(values, False, APPROX)
    )
    for side in range(2):
        bound = _outcome(lambda: relation.sides[side](values))
        pair = _outcome(lambda: relation.exact[0][side](dict(pairs)))
        assert (F(*pair) if isinstance(pair, tuple) else pair) == bound


@pytest.mark.parametrize("label", [spec.label for spec in BRANCHES])
@given(values=_POINTS)
@settings(max_examples=20, deadline=None)
def test_exact_membership_plan_of_every_branch_decides_as_its_scalar_plan(label, values):
    """A branch's membership plan, its quartic's set steps included, passes or fails
    at int pairs where it does on the numbers in exact mode, and raises
    ZeroDivisionError at the same points; `_members` runs it in either mode."""
    spec = BRANCHES_BY_LABEL[label]
    params = FamilyParams(spec.family, **values)
    scalar = _outcome(lambda: _execute(spec.membership, dict(values), False, EXACT) is not None)
    assert _outcome(lambda: _execute(spec.membership, _pairs(values), True) is not None) == scalar
    assert _outcome(lambda: any(_members((spec,), params, EXACT))) == scalar
    assert _outcome(lambda: any(_members((spec,), params, APPROX))) == _outcome(
        lambda: _execute(spec.membership, dict(values), False, APPROX) is not None
    )


def test_exact_forms_agree_on_the_seed_7_samples():
    """At the branch samples, where equalities hold by construction, each relation
    of their family decides alike in both forms."""
    for spec in BRANCHES:
        for params in sample_branch(spec, 10, seed=7):
            if params.mode().is_exact:
                values = vars(params)
                for relation in _FAMILY_RELATIONS[spec.family]:
                    exact = _outcome(lambda: relation.check(_pairs(values), True, None))
                    assert exact == _outcome(lambda: relation.check(values, False, EXACT))


@pytest.mark.parametrize("power", ["alpha^beta", "alpha^eta", "alpha^(-1)", "alpha^2.0"])
def test_a_power_by_anything_but_a_non_negative_integer_constant_is_refused_at_compile(power):
    with pytest.raises(ValueError):
        _compile_clauses(f"{power} != 0")
    with pytest.raises(ValueError):
        _formula(f"q = {power}")


#: Each kind of term the grammar refuses, with the message it is refused with.
_REFUSED = {
    "zeta": "unsupported term 'zeta'",
    "0.5": "unsupported term '0.5'",
    "1/2": "unsupported term '1 / 2'",
    "alpha^beta": "'alpha ** beta' has no non-negative integer constant exponent",
    "alpha^(-1)": "'alpha ** (-1)' has no non-negative integer constant exponent",
    "alpha^2.0": "'alpha ** 2.0' has no non-negative integer constant exponent",
    "alpha < beta": "unsupported term 'alpha < beta'",
    "abs(alpha)": "unsupported term 'abs(alpha)'",
}


@pytest.mark.parametrize("term", list(_REFUSED))
@pytest.mark.parametrize("place", ["{} = 0", "-({}) = 0", "alpha*({})*beta != 0", "alpha = {}"])
def test_every_refused_term_is_refused_at_compile_with_its_message(place, term):
    """At the top of a side, under unary minus, in a factor of a `!=` product and on an
    equality's right side, a refused term raises its ValueError when the text compiles.
    A bare `<` on a side makes the clause no chain of = and !=; a formula text admits
    any name, so only `_compile_clauses` refuses one outside the parameters."""
    text = place.format(term)
    message = _REFUSED[term]
    if term == "alpha < beta" and place in ("{} = 0", "alpha = {}"):
        message = f"constraint {text!r} is not a chain of = and !="
    compilers = [_compile_clauses] + ([_formula] if term != "zeta" else [])
    for compile_text in compilers:
        with pytest.raises(ValueError) as error:
            compile_text(text)
        assert str(error.value) == message, (compile_text, text)


def test_each_distinct_clause_is_parsed_once(monkeypatch):
    """Compiling a text parses each distinct clause once, and neither compiling it again
    nor running its relations, in either form, parses anything."""
    import ast

    parsed, parse = [], ast.parse

    def counted(source, *args, **kwargs):
        parsed.append(source)
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counted)
    text = "alpha*beta - 17 = 3*gamma != 0, delta^3 != 19*alpha, alpha*beta - 17 = 3*gamma != 0"
    relations = _compile_clauses(text)
    assert len(parsed) == 2 and len(relations) == 5, parsed
    values = {"alpha": F(1), "beta": F(20), "gamma": F(1), "delta": F(2), "eta": 1}
    assert _compile_clauses(text) == relations
    assert _first_failure(relations, values, EXACT) is None
    assert _first_failure(relations, values, APPROX) is None
    assert [relation.sides[1](values) for relation in relations[:2]] == [3, 0]
    assert len(parsed) == 2, parsed


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
    "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_the_exact_hot_path_does_no_fraction_arithmetic(monkeypatch):
    """With every arithmetic dunder of Fraction raising, the exact samplers,
    membership tests, validation, stated lambdas, branch replays without a root
    step, verdicts and fidelity checks of the seed-7 run still complete."""
    exact_branches = [
        spec for spec in BRANCHES if all(p.mode().is_exact for p in sample_branch(spec, 50, seed=7))
    ]
    expected = {spec.label: verify_branch(spec, 50, seed=7).verdict for spec in exact_branches}
    assert len(exact_branches) == 26
    valid = {family: sample_valid_points(family, 100, seed=7) for family in FAMILIES}
    kinds = {family: [is_ein2(build_family(p)).kind for p in valid[family]] for family in FAMILIES}

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the exact path")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        F(1, 2) + 1
    for spec in exact_branches:
        samples = sample_branch(spec, 50, seed=7)
        for params in samples:
            validate_params(params)
            assert any(_members((spec,), params, EXACT)), (spec.label, params)
            spec.expected(params, EXACT)
        assert verify_branch(spec, 50, seed=7).verdict == expected[spec.label]
    for family in FAMILIES:
        assert sample_valid_points(family, 100, seed=7) == valid[family]
        assert [is_ein2(build_family(p)).kind for p in valid[family]] == kinds[family]
        for params in valid[family]:
            assert match_printed_system(params), params
        for params in sample_off_branch(family, 100, seed=7):
            assert is_ein2(build_family(params)).kind == "none", params


def _converted(params: FamilyParams, convert) -> FamilyParams:
    """The point with `convert` applied to alpha, beta, gamma and delta."""
    return FamilyParams(params.family, eta=params.eta, **{
        name: convert(getattr(params, name)) for name in ("alpha", "beta", "gamma", "delta")
    })


def _exact_outcomes(params: FamilyParams, convention: str) -> tuple:
    """What exact mode decides at `params`: the solution of `is_ein2`, the fidelity
    check and the `classify` status, each as its value or its exception and message."""

    def solved():
        solution = is_ein2(build_family(params, EXACT), convention, EXACT)
        return (solution.kind, solution.point, solution.line_base, solution.line_direction,
                solution.residual)

    outcomes = []
    for decide in (solved, lambda: match_printed_system(params),
                   lambda: classify(params, convention, EXACT).status):
        try:
            outcomes.append(decide())
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return tuple(outcomes)


def test_exact_mode_decides_float_parameters_as_their_dyadic_rationals(family_samples_100):
    """Each seed-7 fidelity point with its parameters as floats, under both conventions:
    exact mode decides it as it decides the Fractions of those floats, exceptions and
    their messages included, and no decision is a TypeError, so each one ran."""
    mismatches, outcomes = [], []
    for samples in family_samples_100.values():
        for params in samples:
            floats = _converted(params, float)
            dyadic = _converted(floats, Fraction)
            for convention in CONVENTIONS:
                outcomes += [_exact_outcomes(floats, convention), _exact_outcomes(dyadic, convention)]
                if outcomes[-2] != outcomes[-1]:
                    mismatches.append((convention, params))
    assert len(mismatches) == 0, (len(mismatches), mismatches[:3])
    assert len(outcomes) == 2 * 1400
    type_errors = [o for point in outcomes for o in point if type(o) is tuple and o[0] == "TypeError"]
    assert not type_errors, type_errors[:3]


def test_the_sampled_sections_of_verify_are_exact_by_construction(monkeypatch):
    """No family piece's sampler plan takes a root step, so every fidelity and negative
    sampling point is rational: at seed 7 each holds only Fractions, eta an int for G4,
    and both sections decide it without asking the point for its mode."""

    def refuse(self):
        raise AssertionError("a sampled section asked a point for its mode")

    monkeypatch.setattr(FamilyParams, "mode", refuse)
    for family in FAMILIES:
        assert all(kind != "root" for plan in _piece_plans(family) for kind, _, _ in plan), family
        for sample, decide in ((sample_valid_points, match_printed_system),
                               (sample_off_branch, lambda params: not _solved(params))):
            for params in sample(family, DEFAULT_POINTS, seed=7):
                numbers = [getattr(params, name) for name in ("alpha", "beta", "gamma", "delta")]
                assert all(type(x) is Fraction for x in numbers), params
                assert type(params.eta) is (int if family == "G4" else type(None)), params
                assert decide(params), params


def test_exact_mode_reads_a_g4_float_beta_unrounded():
    """G4's bracket 2*eta - beta rounds in float at beta = 1/3; exact mode builds it
    from the dyadic rational of the float, so the table holds no float."""
    floats = FamilyParams("G4", alpha=1, beta=1 / 3, eta=1)
    table = build_family(floats, EXACT)
    assert float not in map(type, table.values())
    assert table.brackets[0][2] == 2 - Fraction(1 / 3) != Fraction(2 - 1 / 3)
