"""Branch catalog, samplers, the branch verifier and its errata machinery."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from ein2lie import (
    ANCHORS,
    BRANCHES,
    BRANCHES_BY_LABEL,
    DELTA,
    ConstraintViolation,
    EmptyBranch,
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
    verify_anchor,
    verify_branch,
)
from ein2lie.branches import (
    _CASES,
    _QUARTIC_CLAUSE,
    AnchorSpec,
    BranchSpec,
    _members,
    _piece_plans,
    _positive_quadratic_roots,
    _sample,
    sample_family_point,
)
from ein2lie import ein2
from ein2lie.ein2 import METRIC, PRINTED_SYSTEMS
from ein2lie.liealg import (
    FAMILY_CONSTRAINTS,
    FAMILY_PIECES,
    PARAMS_USED,
    _Relation,
    _compile_clauses,
    _evaluate,
    _execute,
    _first_failure,
    _formula,
    _pairs,
    _plan,
    family_table,
)
from ein2lie.reporting import expected_json

F = Fraction
EXACT = Mode.exact()


def test_catalog_has_thirty_branches():
    assert len(BRANCHES) == 30
    assert len({spec.label for spec in BRANCHES}) == 30
    by_theorem = {}
    for spec in BRANCHES:
        by_theorem.setdefault(spec.theorem, []).append(spec)
    assert {t: len(v) for t, v in by_theorem.items()} == {
        "2.3": 1, "2.5": 1, "2.7": 8, "2.9": 3, "3.2": 4, "3.4": 9, "3.6": 4,
    }


def test_samples_satisfy_membership_and_family_constraints():
    for spec in BRANCHES:
        for params in sample_branch(spec, 5, seed=11):
            validate_params(params, spec.mode)
            assert any(_members((spec,), params, spec.mode)), (spec.label, params)


def test_a_branch_is_approx_exactly_when_its_samples_hold_a_float():
    """`BranchSpec.mode` reads the sampler plan: approx when it takes a root step.
    At seeds 0-9 a branch's samples hold a float parameter exactly then, and the
    approx branches are the four whose points need a square root."""
    for spec in BRANCHES:
        for seed in range(10):
            for params in sample_branch(spec, 50, seed):
                floats = any(type(x) is float for x in vars(params).values())
                assert floats is not spec.mode.is_exact, (spec.label, seed, params)
    approx = [spec.label for spec in BRANCHES if not spec.mode.is_exact]
    assert approx == ["2.7(viii)", "3.2(iv)", "3.4(vii)", "3.4(viiii)"]
    assert all(spec.mode == Mode.approx() for spec in BRANCHES if spec.label in approx)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_branch_needs_a_positive_count(count):
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        sample_branch(BRANCHES_BY_LABEL["2.3"], count)


def test_sample_branch_deterministic():
    spec = BRANCHES_BY_LABEL["3.2(iv)"]
    assert sample_branch(spec, 5, seed=3) == sample_branch(spec, 5, seed=3)
    assert sample_branch(spec, 5, seed=3) != sample_branch(spec, 5, seed=4)


#: Each irrational branch's quartic, written out independently of the catalog:
#: the coefficients (qa, qb, qc) of qa*x^2 + qb*x + qc in x = alpha^2.
QUARTICS = {
    "3.2(iv)": lambda b, g: (
        g * (3 * b**2 + 3 * g**2 - 2 * g * b),
        b * ((b**2 - g**2) ** 2 + (b + g) ** 4) / 2,
        b**3 * ((b**2 - g**2) ** 2 + (b + g) ** 4) / 4,
    ),
    "3.4(vii)": lambda b, g: (b + g, g * b * (g - b), -(b**3) * (b - g) ** 2 / 2),
}


@pytest.mark.parametrize(
    "label, sign", [("3.2(iv)", -1), ("3.4(vii)", 1)], ids=["3.2(iv)", "3.4(vii)"]
)
def test_sample_branch_quartic_constraint_holds(label, sign):
    for p in sample_branch(BRANCHES_BY_LABEL[label], 5, seed=1):
        qa, qb, qc = map(float, QUARTICS[label](p.beta, p.gamma))
        assert abs(qa * p.alpha**4 + qb * p.alpha**2 + qc) < 1e-9
        # delta = -alpha*gamma/beta on 3.2(iv), alpha*gamma/beta on 3.4(vii)
        assert p.delta == pytest.approx(sign * float(p.alpha * p.gamma / p.beta))


def _branch_quartic(label, params):
    """The coefficients (qa, qb, qc) that the branch's own quartic text gives at params."""
    bound = _evaluate(BRANCHES_BY_LABEL[label].quartic, vars(params), EXACT)
    return bound["qa"], bound["qb"], bound["qc"]


def test_quartic_root_example_g5():
    # At the anchor's beta = -1, gamma = 2 the quartic is 38 x^2 - 5 x - 5/2
    # in x = alpha^2 (76 x^2 - 10 x - 5 halved), positive root (5 + sqrt(405))/76.
    anchor = ANCHORS[0]
    assert anchor.label == "3.2(iv) @ beta=-1, gamma=2"
    coefficients = _branch_quartic("3.2(iv)", anchor.params)
    assert coefficients == (38, -5, F(-5, 2))
    roots = _positive_quadratic_roots(*coefficients)
    assert len(roots) == 1
    assert roots[0] == pytest.approx((5 + math.sqrt(405)) / 76, abs=1e-15)
    assert roots[0] == pytest.approx(anchor.params.alpha**2, abs=1e-15)


def test_quartic_root_example_g6():
    # At the anchor's beta = 1, gamma = 2 the quartic is 3 x^2 + 2 x - 1/2,
    # positive root (-2 + sqrt(10))/6.
    anchor = ANCHORS[1]
    assert anchor.label == "3.4(vii) @ beta=1, gamma=2"
    coefficients = _branch_quartic("3.4(vii)", anchor.params)
    assert coefficients == (3, 2, F(-1, 2))
    roots = _positive_quadratic_roots(*coefficients)
    assert len(roots) == 1
    assert roots[0] == pytest.approx((-2 + math.sqrt(10)) / 6, abs=1e-15)
    assert roots[0] == pytest.approx(anchor.params.alpha**2, abs=1e-15)


def test_positive_quadratic_roots_none_without_x_terms_or_real_roots():
    """qa = qb = 0 leaves no quadratic in x, and a negative discriminant no real root."""
    assert _positive_quadratic_roots(0, 0, 0) == []
    assert _positive_quadratic_roots(0, 0, F(-5, 2)) == []
    assert _positive_quadratic_roots(1, 0, 1) == []
    assert _positive_quadratic_roots(F(1, 2), -1, 1) == []


def test_sample_branch_2_3_values():
    spec = BRANCHES_BY_LABEL["2.3"]
    for p in sample_branch(spec, 10, seed=5):
        assert p.beta == 0 and p.alpha != 0


def test_empty_branch_raises():
    dead = BranchSpec("2.3(dead)", "alpha = 0, alpha != 0", "beta", "lambda1 = 0, lambda2 = 0")
    assert dead.family == "G1"
    with pytest.raises(EmptyBranch, match=r"^branch 2.3\(dead\): no valid sample in 10000 draws$"):
        sample_branch(dead, 1, seed=0)


def test_branch_sampler_checks_the_family_constraints():
    # Every draw of this branch text meets its own clauses but lies on
    # alpha + delta = 0, which no G7 point may.
    off_family = BranchSpec("3.6(off)", "alpha = delta = 0, gamma != 0", "gamma* beta", "lambda2 = 0")
    rng = random.Random(0)
    assert all(off_family.draw(rng) is None for _ in range(50))
    with pytest.raises(EmptyBranch, match=r"^branch 3.6\(off\): no valid sample"):
        sample_branch(off_family, 1, seed=0)


def test_family_samplers_are_bounded(monkeypatch):
    """Every sampler gives up after MAX_DRAWS draws, with its own message."""
    monkeypatch.setattr("ein2lie.branches._sample", lambda family, plan, rng: None)
    with pytest.raises(EmptyBranch, match=r"^G1: no valid point in 10000 draws$"):
        sample_family_point("G1", random.Random(0))
    on_branch = lambda family, plan, rng: FamilyParams("G1", alpha=1, beta=0)
    monkeypatch.setattr("ein2lie.branches._sample", on_branch)
    with pytest.raises(EmptyBranch, match=r"^G1: no off-branch sample in 10000 draws$"):
        sample_off_branch("G1", 1)


def test_verify_branch_2_3_all_zero_lambdas():
    report = verify_branch(BRANCHES_BY_LABEL["2.3"], count=50, seed=7)
    assert report.verdict == "verified"
    assert report.passed == 50
    for params in sample_branch(BRANCHES_BY_LABEL["2.3"], 5, seed=7):
        solution = is_ein2(build_family(params, EXACT), DELTA, EXACT)
        assert solution.kind == "point" and solution.point == (0, 0)


def test_verify_branch_3_4_v_is_errata():
    report = verify_branch(BRANCHES_BY_LABEL["3.4(v)"], count=20, seed=7)
    assert report.verdict == "errata"
    assert report.passed == 0
    assert "beta^4/2" in report.correction
    for failure in report.failures:
        assert failure.solution_kind == "point"
        assert failure.residual_at_expected > 0
        assert failure.recomputed is not None
        assert failure.recomputed_ok
        # The recomputed lambda1 is the stated one with beta^4 -> beta^4/2.
        p = failure.params
        corrected = (p.alpha**4 - p.alpha**2 * p.beta**2 + p.beta**4 / 2) / p.alpha**2
        assert failure.recomputed.lambda1 == corrected
        assert failure.recomputed.lambda2 == failure.expected.lambda2


def test_verify_branch_decides_the_convention_divergence():
    """Under the metric convention `verify_branch` itself replays a failing branch
    under delta: 3.4(v), an erratum under delta, is a convention divergence, and
    2.5, whose lambda2 is 0, stays verified."""
    report = verify_branch(BRANCHES_BY_LABEL["3.4(v)"], 5, seed=7, convention=METRIC)
    assert (report.verdict, report.ok) == ("convention_divergence", True)
    assert "delta verdict: errata" in report.correction
    assert verify_branch(BRANCHES_BY_LABEL["2.5"], 5, seed=7, convention=METRIC).verdict == "verified"


def test_verify_branch_is_deterministic():
    a = verify_branch(BRANCHES_BY_LABEL["3.2(iv)"], count=10, seed=7)
    b = verify_branch(BRANCHES_BY_LABEL["3.2(iv)"], count=10, seed=7)
    assert [f.params for f in a.failures] == [f.params for f in b.failures]
    assert (a.verdict, a.passed) == (b.verdict, b.passed)
    samples_a = sample_branch(BRANCHES_BY_LABEL["3.2(iv)"], 10, seed=7)
    samples_b = sample_branch(BRANCHES_BY_LABEL["3.2(iv)"], 10, seed=7)
    assert samples_a == samples_b


def test_classify_line_branch():
    result = classify(FamilyParams("G7", alpha=1, gamma=0, delta=1, beta=5), DELTA, EXACT)
    assert result.branches == ("3.6(iii)",)
    assert result.solution.kind == "line"
    assert result.solution.lambda2_zero_line()
    assert result.status == "ein2"


def test_classify_point_branch():
    result = classify(FamilyParams("G5", alpha=1, beta=0, gamma=0, delta=1), DELTA, EXACT)
    assert "3.2(i)" in result.branches
    assert result.solution.kind == "point"
    assert result.solution.point == (-2, 0)
    assert result.status == "ein2"


def test_classify_not_ein2():
    result = classify(FamilyParams("G6", alpha=4, beta=2, gamma=1, delta=2), DELTA, EXACT)
    assert result.branches == ()
    assert result.solution.kind == "none"
    assert result.status == "not_ein2"
    assert result.solution.residual > 0


def test_classify_rejects_invalid_params():
    # alpha*gamma - beta*delta = -3 != 0: not a valid G6 parameter point.
    with pytest.raises(ConstraintViolation):
        classify(FamilyParams("G6", alpha=1, beta=2, gamma=1, delta=2), DELTA, EXACT)


def test_classify_validates_once(monkeypatch):
    import ein2lie.liealg as liealg

    calls = []

    def counting(params, mode):
        calls.append(params)
        return validate_params(params, mode)

    monkeypatch.setattr(liealg, "validate_params", counting)
    classify(FamilyParams("G5", alpha=1, beta=0, gamma=0, delta=1), DELTA, EXACT)
    assert len(calls) == 1
    with pytest.raises(ConstraintViolation) as info:
        classify(FamilyParams("G5", alpha=1, beta=0, gamma=0, delta=-1), DELTA, EXACT)
    assert str(info.value) == "constraint violated: alpha + delta != 0"
    assert len(calls) == 2


def test_verify_branch_validates_each_sample_once(monkeypatch):
    import ein2lie.liealg as liealg

    calls = []

    def counting(params, mode):
        calls.append(params)
        return validate_params(params, mode)

    monkeypatch.setattr(liealg, "validate_params", counting)
    for label in ("2.3", "3.2(iv)", "3.4(v)"):
        spec = BRANCHES_BY_LABEL[label]
        calls.clear()
        samples = sample_branch(spec, 5, seed=3)
        sampled = len(calls)
        calls.clear()
        report = verify_branch(spec, count=5, seed=3)
        assert len(calls) == sampled and len(samples) == report.attempted


def test_classify_overlapping_branches():
    # alpha = 0, gamma = -beta is a rational point of the square-root locus
    # gamma^2 = alpha^2 + beta^2, so two branch constraint sets hold at once;
    # classify returns the full match set.
    result = classify(FamilyParams("G3", alpha=0, beta=1, gamma=-1), DELTA, EXACT)
    assert set(result.branches) == {"2.7(vi)", "2.7(viii)"}
    assert result.status == "ein2"
    assert result.solution.kind == "point"
    assert result.solution.point == (-2, 0)  # both stated lambda pairs agree here


def test_off_branch_points_are_not_ein2():
    for family in ("G1", "G3", "G6", "G7"):
        for params in sample_off_branch(family, 25, seed=7):
            assert is_ein2(build_family(params, EXACT), DELTA, EXACT).kind == "none", params


def _counting(counts, name, function):
    """`function`, counting its calls in counts[name]."""
    def counted(*args):
        counts[name] += 1
        return function(*args)
    return counted


def test_off_branch_sampling_converts_each_drawn_point_to_int_pairs_once(monkeypatch):
    """Every branch of the family tests an off-branch candidate on one set of int pairs."""
    from ein2lie import branches, liealg

    counts = collections.Counter()
    monkeypatch.setattr(liealg, "_pairs", _counting(counts, "conversions", liealg._pairs))
    monkeypatch.setattr(branches, "_sample", _counting(counts, "draws", branches._sample))
    assert len(sample_off_branch("G3", 20, 7)) == 20
    assert len(branches.branches_for("G3")) == 8
    assert 20 <= counts["conversions"] <= counts["draws"], counts


def test_quartic_root_steps_convert_each_point_once(monkeypatch):
    """The quartic's coefficients are set on int pairs before the root step, so
    sampling 3.2(iv) and 3.4(vii) converts nothing to int pairs, and turns pairs
    into numbers once per root step and once per accepted point."""
    from ein2lie import branches, liealg

    counts = collections.Counter()
    for module, name in ((branches, "_numbers"), (liealg, "_numbers"), (liealg, "_pairs")):
        monkeypatch.setattr(module, name, _counting(counts, name, getattr(liealg, name)))
    monkeypatch.setattr(branches, "_root", _counting(counts, "roots", branches._root))
    for label in ("3.2(iv)", "3.4(vii)"):
        assert len(sample_branch(BRANCHES_BY_LABEL[label], 50, seed=7)) == 50
    assert counts["_pairs"] == 0, counts
    assert 0 < counts["_numbers"] <= counts["roots"] + 100, counts


#: The branches whose sampler binds a parameter by a square root.
_ROOT_BRANCHES = {"2.7(viii)", "3.2(iv)", "3.4(vii)", "3.4(viiii)"}


def test_every_sampler_plan_is_data():
    """Read as it stands, each branch's and family piece's sampler plan is a tuple of
    draw, set, root and check steps: draws of the free text in order, with its
    nonzero flags, then plain relations; exactly the four float branches have a root
    step, and each quartic branch sets its coefficients before it.  No membership
    plan draws or roots."""
    plans = [(spec.label, spec.free, spec.plan) for spec in BRANCHES] + [
        (f"{family} {free}", free, plan)
        for family, pieces in FAMILY_PIECES.items()
        for (free, _), plan in zip(pieces, _piece_plans(family))
    ]
    assert len(plans) == 30 + 12
    roots = {}
    for label, free, plan in plans:
        assert type(plan) is tuple and all(len(step) == 3 for step in plan), label
        draws = [(name, arg) for kind, name, arg in plan if kind == "draw"]
        assert draws == [(token.rstrip("*"), token.endswith("*")) for token in free.split()], label
        for kind, name, arg in plan:
            assert kind in ("draw", "set", "root", "check"), (label, kind)
            if kind == "set":
                relation, side = arg
                assert type(relation) is _Relation, (label, name)
                assert relation.bare[1 - side] == name and relation.equal, (label, name)
            elif kind in ("root", "check"):
                assert type(arg) is _Relation, (label, kind)
                assert kind == "check" or arg.squared.count(name) == 1, (label, name)
        roots[label] = [name for kind, name, _ in plan if kind == "root"]
    assert {label: names for label, names in roots.items() if names} == {
        "2.7(viii)": ["gamma"], "3.2(iv)": ["alpha"], "3.4(vii)": ["alpha"], "3.4(viiii)": ["delta"],
    }
    for label in ("3.2(iv)", "3.4(vii)"):
        steps = [(kind, name) for kind, name, _ in BRANCHES_BY_LABEL[label].plan]
        root = steps.index(("root", "alpha"))
        assert {("set", "qa"), ("set", "qb"), ("set", "qc")} <= set(steps[:root]), (label, steps)
    for spec in BRANCHES:
        assert {kind for kind, _, _ in spec.membership} <= {"set", "check"}, spec.label


@pytest.mark.parametrize("label", sorted(_ROOT_BRANCHES))
def test_no_step_after_a_root_step_runs_in_exact_form(label):
    """The runner reads the plan's steps on int pairs up to the root step, on
    numbers after it: the root sees numbers, and every name bound is a number."""
    from ein2lie.branches import _draw, _root

    spec, rng = BRANCHES_BY_LABEL[label], random.Random(7)
    steps = [kind for kind, _, _ in spec.plan]
    assert steps.count("root") == 1 and "draw" not in steps[steps.index("root"):], steps
    rooted = spec.plan[steps.index("root")][1]
    seen = []

    def root(rng, relation, name, values):
        seen.append(dict(values))
        return _root(rng, relation, name, values)

    points = [_execute(spec.plan, {}, True, None, _draw, root, rng) for _ in range(100)]
    points = [values for values in points if values is not None]
    assert len(points) > 10 and len(seen) >= len(points), label
    for values in [*seen, *points]:
        assert not any(type(x) is tuple for x in values.values()), (label, values)
    assert all(type(values[rooted]) is float for values in points), label


def _grid_points():
    """Every valid point whose used parameters lie in {n/d : d in {1, 2}, |n| <= 2d}
    (eta = +-1): a deterministic grid that reaches the special subvarieties
    random draws hit only by chance."""
    grid = sorted({F(n, d) for d in (1, 2) for n in range(-2 * d, 2 * d + 1)})
    for family in FAMILIES:
        names = PARAMS_USED[family]
        axes = [(1, -1) if name == "eta" else grid for name in names]
        for values in itertools.product(*axes):
            params = FamilyParams(family, **dict(zip(names, values)))
            try:
                validate_params(params, EXACT)
            except ConstraintViolation:
                continue
            yield params


def test_classify_is_complete_on_a_grid():
    # Every valid grid point is matched by a branch exactly when it is Ein(2).
    statuses = collections.defaultdict(collections.Counter)
    for params in _grid_points():
        statuses[params.family][classify(params, DELTA, EXACT).status] += 1
    for family in FAMILIES:
        assert set(statuses[family]) == {"ein2", "not_ein2"}, (family, statuses[family])


def test_match_printed_system_holds_on_the_grid():
    points = list(_grid_points())
    assert len(points) == 3619
    for params in points:
        assert match_printed_system(params), params


def test_anchor_g5_reproduces_closed_forms():
    anchor = ANCHORS[0]
    assert anchor.theorem == "3.2"
    result = verify_anchor(anchor)
    assert result.ok
    assert result.solution.point[0] == pytest.approx(-(45 + 9 * math.sqrt(405)) / 76, abs=1e-12)
    alpha_sq = (5 + math.sqrt(405)) / 76
    assert result.solution.point[1] == pytest.approx(
        18 * alpha_sq**2 - 4.5 * alpha_sq - 2.25, abs=1e-12
    )


def test_anchor_g6_reproduces_closed_forms():
    anchor = ANCHORS[1]
    assert anchor.theorem == "3.4"
    result = verify_anchor(anchor)
    assert result.ok
    assert result.solution.point[0] == pytest.approx((4 * math.sqrt(10) - 5) / 3, abs=1e-12)
    assert result.solution.point[1] == pytest.approx((37 - 8 * math.sqrt(10)) / 12, abs=1e-12)


def _wrong_2_5() -> BranchSpec:
    """Branch 2.5 with 1 added to its stated lambda1, which then fails on every sample."""
    stated = BRANCHES_BY_LABEL["2.5"]
    return BranchSpec(stated.label, stated.constraints, stated.free,
                      "lambda1 = alpha^2/2 + 2*gamma^2 + 1, lambda2 = 0")


def test_wrong_stated_lambdas_without_a_recomputation_are_inconclusive():
    report = verify_branch(_wrong_2_5(), 50, seed=7)
    assert (report.verdict, report.passed, report.ok) == ("inconclusive", 0, False)
    assert len(report.failures) == 50
    assert all(f.recomputed is None and not f.recomputed_ok for f in report.failures)


def test_an_anchor_that_is_no_point_fails_with_infinite_errors():
    """G1 at alpha = beta = 1 is not Ein(2), so its solution is no point."""
    anchor = AnchorSpec("2.3 @ alpha=beta=1", FamilyParams("G1", alpha=1, beta=1), 0, 0)
    result = verify_anchor(anchor)
    assert result.solution.kind == "none"
    assert (result.lambda1_error, result.lambda2_error) == (math.inf, math.inf)
    assert not result.ok


def test_line_branches_are_exactly_the_flat_ones():
    line_labels = set()
    for spec in BRANCHES:
        for params in sample_branch(spec, 3, seed=13):
            solution = is_ein2(build_family(params, spec.mode), DELTA, spec.mode)
            if solution.kind == "line":
                line_labels.add(spec.label)
    assert line_labels == {
        "2.7(i)", "2.7(iii)", "2.7(iv)", "2.9(i)", "3.6(i)", "3.6(ii)", "3.6(iii)",
    }


# sha256 of repr(sample_branch(spec, 50, seed=7)): the sampler streams the
# verify report rests on.
SAMPLE_STREAM_SHA256 = {
    "2.3": "246dfd6e53c8fbfa3f9493509dba0503b0b855beef89e8a7f285116d0a6b45a7",
    "2.5": "83efb9cb565f958c355135f387fcf2c02f696a36bc21adc925f98a5ec0db1db3",
    "2.7(i)": "5702e3888ce4a84b4dff024a5554ba27a6308e3339d2f056eb644a4f2b8ed74c",
    "2.7(ii)": "2fdaf874dd823124e37601eca7417fefe267d9329c7bcc6ae2350735c66fc11e",
    "2.7(iii)": "a330709d03ebf8bae676d65b4ff9e0285a454a2d66a48a76e73386d8dbe33601",
    "2.7(iv)": "7134f7384f6bfc2b87bac313a5561edb5f54be16aa2c67ea558e283698f9778d",
    "2.7(v)": "1194c9747639032f57999a972773456094a95697af8a76743299bc7d06f38f0d",
    "2.7(vi)": "84363b8838c8a93fb4e58b44caf94f3f83a492cbcb970fc87dbdbe87077d17ea",
    "2.7(vii)": "ae93c49d72e3b6be5861565880d22a0b106055ed16e7f3975edaa9a19bcf957f",
    "2.7(viii)": "92b5d2cb1e79b5a82a085a24cd4fcce92f3424e72a7a52118f190153ebba77ba",
    "2.9(i)": "e0471f1f6b4269e96bbb844831f756f1fcb510140a9b16415907dea2744ad3cb",
    "2.9(ii)": "8ef83218f16ba7525a31f0e00756b4b7374c75ff1d8a140ffe899855e6582f92",
    "2.9(iii)": "20ee3bc310215c920f9b51dab573b980f36adb6ac37ef5056fcb78bd591e55fe",
    "3.2(i)": "59485fbaf38692d9e019f9fd77062ff12386b8e3db3f52313be26e60b7eb82b8",
    "3.2(ii)": "3bdaa297fbfd61276232a192294e28f19476004eff3f0fafbea142a80494b0b3",
    "3.2(iii)": "f7c9625fa3c8645ba209939a92e4e5d38cc54a1ba61f7f8a63cd673bd87b7cbc",
    "3.2(iv)": "1c46dad08f603586ceb13c2d3a33eeb60eaa087900dee1a83817b12fabe58d2b",
    "3.4(i)": "ee94da2adb9ae64293013fb70495115da039f8b5d86844baa641dc6e1dcf1c5f",
    "3.4(ii)": "62a24b069c0a5561826a2c9fc688c6124417d2b997dedf60cd8d3fcbc76eefba",
    "3.4(iii)": "b5a2dd7909fcef5b00a9d247ea7a91a8bc6e4a5d7020310c89dffebca0ea0329",
    "3.4(iv)": "73b2d9ff15b21705c1810d2f378849a87787e76eae8d2413a9be79aee5e4ddce",
    "3.4(v)": "232cb837129c1582feba80bdd9e0f53e77aa433e296cb165ebf76ceaf4b743c8",
    "3.4(vi)": "7cb85a3aae2b6a4fda488f23cef2e105a1d212e44a795e0e945bb593a65721f9",
    "3.4(vii)": "d045706cb9642ca165f4a57803ed3417b08a6d415befe56e9847e66d8d571224",
    "3.4(viii)": "983ed6d30182cbc3af3b49deb41690508d375c1c542fbebaea548399b12a6c5b",
    "3.4(viiii)": "f3b516d87c9280fb749ea571c24d7068cfda1a185907e47fa9ad318c3497d375",
    "3.6(i)": "a3cf803ac4c862fedbc58fbfce277e1a170f3587665871632b03955e64d9f330",
    "3.6(ii)": "3ee3756724d002d097ef4e9f39080714d8df4a0263f75c40db2d5291a6a5e5a6",
    "3.6(iii)": "21f253e9866c81f9125e44c86c11664020e55e749fe78ba713fdd294b3c3b014",
    "3.6(iv)": "63b8282d1a6de1e30429c219ad85da0fe27bd2e85f17a0f136b9357604d05b05",
}


def test_sample_streams_are_pinned():
    streams = {
        spec.label: hashlib.sha256(repr(sample_branch(spec, 50, seed=7)).encode()).hexdigest()
        for spec in BRANCHES
    }
    assert streams == SAMPLE_STREAM_SHA256


# sha256 of repr(sample_valid_points(family, 100, seed)) and of
# repr(sample_off_branch(family, 100, seed)): the fidelity and negative
# sections of the verify report rest on these streams, yet print only counts.
FAMILY_STREAM_SHA256 = {
    ("G1", 7): (
        "a3aea82ef9bd94a88105f59264d71f44090f6bd0ff959b21e8709aafebaec31b",
        "60edc89a0e6015b83fc1b48f2a5db9750513c773cfca59cc0267c1d61a28417c",
    ),
    ("G2", 7): (
        "ab47ed4ee769e583b94ed5b20b269093f41829f95552cc2552a0032144fb5ab8",
        "79af8e59e61b04c4b2ec7d46159006c5ead56e2e689161c32cd6f129f898acdd",
    ),
    ("G3", 7): (
        "e45ee770f45dd01c893be10d92646ab130382e3b5869f21acadcff7951a4dd56",
        "3ee6fa4a0c8fae0cdfb6f9f4972a89c861131edb322074587315d06c1fa2fcad",
    ),
    ("G4", 7): (
        "6a75433bf85e2c1a76a27b2296b414a4e464622fa92838c7d2855949a71e9146",
        "53bbba4173a2e962f0a1489b83dcb0b1eee0aa74f9359fe189bde7a864f18b04",
    ),
    ("G5", 7): (
        "59d45e52a9f6b650ed4449c50bde46d02a11ad073377a6871aa166ff2af557d6",
        "9939b68110ff8ebd352b14a641b0dffcbdf7dfb8e3881890739feb585d8d56a7",
    ),
    ("G6", 7): (
        "8ca44678de34b7deee090d765a21395a464b7b60a0afb78824acee0e4acc7cd5",
        "c5e9bc19077b4d9e89c4a60dda4d367ab99afd68fc1a41135946d9022ffcc120",
    ),
    ("G7", 7): (
        "848981f34c5a2da4e16523a91d41c16c33ec2101985b21b1d7fabb568754729d",
        "30e18a9516f49d8c7ddeb6abf7486f8554046dc75fb6654405bfa0893a449cbf",
    ),
    ("G1", 11): (
        "4166f79fa3c2023b74141e82dcc3a3a91b66e0da208631f543ace4cd72fdedda",
        "f9c7763d71d01fc3839708fe92ece8c913bb90f6085d95ab5f0f4bb33c4f2a75",
    ),
    ("G2", 11): (
        "e9a60d36c1cfa0ad0af7a7dfeff2fad006be0a3b71c453989310b1d3e9bf7449",
        "96412f62d4a186249bf56a6d2b539c89120a256fe84286076a7f1e663d95c28f",
    ),
    ("G3", 11): (
        "d3fa6df6f720c27e0522e860cb234eaef594ff9508df43f110ac839beca2e4b9",
        "5a6777a211d93aa8b9c56660b84687587c81f0999f166e0a80a82f75b748f7bd",
    ),
    ("G4", 11): (
        "6305de85baa8e95a7230ce7b1a6f3059fa5c06bcd709150d45a237fe13ce7149",
        "8e95fba89b9c2fec9bfb028b61e021df0cd2b4a3601735b58d23cff5811aabac",
    ),
    ("G5", 11): (
        "766aa7015a489fc8bd82608a5f6c0a2aeb9fa1664ad4e6af6118897b951d0e05",
        "30c064f27eb7a78d3bb9eb71cb6e1190703ae990da86b0c44a25b7b38cfd666f",
    ),
    ("G6", 11): (
        "16cd1dc514f20eef5493b29cdde8ee805ab9f49d11aac1d5a149e52a999758c9",
        "0f74038afb6750519de5bae00cb0f98790d01e2e8cb4b041abc8b4186a0e4776",
    ),
    ("G7", 11): (
        "2c70488aa544f3cdfb18571ed6af74f7cba6f5a662a80f624d9e10926fb96843",
        "7c89616f660a542522d40e8b68f4152e7de4e31d0151adc7d7fd5535fed3ab22",
    ),
}


def test_family_streams_are_pinned():
    streams = {
        (family, seed): (
            hashlib.sha256(repr(sample_valid_points(family, 100, seed)).encode()).hexdigest(),
            hashlib.sha256(repr(sample_off_branch(family, 100, seed)).encode()).hexdigest(),
        )
        for family, seed in FAMILY_STREAM_SHA256
    }
    assert streams == FAMILY_STREAM_SHA256


# sha256 of the JSON form (`expected_json`) of each seed-7 sample's stated
# lambdas and, where the branch has one, its recomputed lambdas.  JSON
# prints int 0 and Fraction(0) alike and keeps every float bit.
EXPECTED_SHA256 = {
    "2.3": "a4b393d9b1c62f2ef54b05bd8893a483f5a1d395127ae2f7f06bc31b36763b46",
    "2.5": "693c5445ef8fca016ca9d76ded9040d2c0c5d669989480f224736a2cfca2de5c",
    "2.7(i)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "2.7(ii)": "2a2f021dbd71e8f4733c621abc5403891dca6716cc66e1831eec5d41bb652db3",
    "2.7(iii)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "2.7(iv)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "2.7(v)": "1137a16aca92d3dd0c0ccbfdb234808bcd9eb4f871b52c5b78862982786e1262",
    "2.7(vi)": "e9c237368890d228a9acd6d41756dc71323090ad6a5be3b4fd308497a631ff75",
    "2.7(vii)": "37ce37ab6d1ed2ea1628169aacd82e099babb25f000e44f8a1add39134fd2a26",
    "2.7(viii)": "1df644e9cd0e06c5e09e9922d16db9de0c6eb4d4e5992003dd3db03060b01e21",
    "2.9(i)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "2.9(ii)": "174d28d457ccfe42ecd28f9d5b4fe6c94f7e9c86b5281c86ac23e0a8d413f55b",
    "2.9(iii)": "a4b393d9b1c62f2ef54b05bd8893a483f5a1d395127ae2f7f06bc31b36763b46",
    "3.2(i)": "4b46213e580c22ae3f016cb9d751feca112a2e6f5d32006960f12091b8d1ae13",
    "3.2(ii)": "2305fd60504e8ba90c815ff28eb05252fba60df2b05dd09f760718d4d4987ff2",
    "3.2(iii)": "000d18a8050f50ac53c00cff59b299758599b367c67c895935c4a2e4c83ffce3",
    "3.2(iv)": "dbb9cb9b001d7d4be521d4f73c45183e8f3551c659d012ae4e7eb6bf9cd099d6",
    "3.4(i)": "dbc318d3886aca779beb37813c4d5bf3ad0f804455b2a123b39375b77d481267",
    "3.4(ii)": "de76442ab3d40a4fab3f19f072259e7219e45deed99b76834f155fecd0fbd864",
    "3.4(iii)": "c4c9929335b95e765eda60c390333c87a28f592e8a8ab431f80934149371fd3d",
    "3.4(iv)": "0be2f51570e62b39a05348607c6225d30a9a7bf19f78e1cbda77183b961aab53",
    "3.4(v)": "ed4d11436bc8984db34c8b7828c73ee95138842710be66e20073c1c897699791",
    "3.4(vi)": "36e427091f204024d02cbd2fe2f81a04801626ada026c32872ff21e57d9c67e5",
    "3.4(vii)": "0787b4f96a9e57fdbbb6d41f15257d033079abc42f203c1c41aad6a7aa866ae5",
    "3.4(viii)": "9ebb3f5715520a52b1b33be32fad7b6e1b4193ab24fa7af45b3923a5f6f02414",
    "3.4(viiii)": "14d262db3401326d7200b2d453728c41a5184111e7400079768fa920bf0f77d4",
    "3.6(i)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "3.6(ii)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "3.6(iii)": "405f22a62d9fa28df03f5f56f2f09b1a41e4f2897b7179a439fee4fa8d3ec4aa",
    "3.6(iv)": "a4b393d9b1c62f2ef54b05bd8893a483f5a1d395127ae2f7f06bc31b36763b46",
}


def test_stated_and_recomputed_lambdas_are_pinned():
    streams = {}
    for spec in BRANCHES:
        doc = [
            [
                expected_json(spec.expected(p, spec.mode)),
                expected_json(spec.recompute(p, spec.mode)) if spec.recompute else None,
            ]
            for p in sample_branch(spec, 50, seed=7)
        ]
        streams[spec.label] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert streams == EXPECTED_SHA256


def test_every_piece_draw_is_a_valid_point():
    for family in FAMILY_PIECES:
        plans = _piece_plans(family)
        assert len(plans) == len(FAMILY_PIECES[family])
        for index, plan in enumerate(plans):
            rng = random.Random(f"{family}|{index}")
            points = [p for p in (_sample(family, plan, rng) for _ in range(200)) if p is not None]
            assert len(points) > 100, (family, index)
            for params in points:
                validate_params(params, EXACT)


def test_pieces_cover_every_valid_grid_point():
    # On the grid {-1, 0, 1/2, 1, 2}^4 every valid G5/G6/G7 point lies on
    # at least one piece of its family's variety.
    exact = Mode.exact()
    grid = (F(-1), F(0), F(1, 2), F(1), F(2))
    valid_counts = {}
    for family in ("G5", "G6", "G7"):
        pieces = [_compile_clauses(text) for _, text in FAMILY_PIECES[family]]
        valid = 0
        for a, b, g, d in itertools.product(grid, repeat=4):
            params = FamilyParams(family, alpha=a, beta=b, gamma=g, delta=d)
            try:
                validate_params(params, EXACT)
            except ConstraintViolation:
                continue
            valid += 1
            values = vars(params)
            # _first_failure stops at beta != 0 before the division by beta
            assert any(_first_failure(piece, values, exact) is None for piece in pieces), params
        valid_counts[family] = valid
    assert valid_counts == {"G5": 78, "G6": 88, "G7": 190}


def test_sample_family_point_rejects_unknown_family():
    with pytest.raises(ValueError):
        sample_family_point("G8", random.Random(0))


def test_every_constraint_clause_compiles():
    texts = [spec.constraints for spec in BRANCHES]
    texts += [text for family, text in FAMILY_CONSTRAINTS.items() if family not in ("G3", "G4")]
    quartic_texts = set()
    for text in texts:
        for clause in text.split(", "):
            if clause == _QUARTIC_CLAUSE:
                quartic_texts.add(text)
                continue
            # Every "=" and "!=" of the clause becomes one relation.
            assert len(_compile_clauses(clause)) == clause.count("="), clause
    assert quartic_texts == {
        BRANCHES_BY_LABEL["3.2(iv)"].constraints,
        BRANCHES_BY_LABEL["3.4(vii)"].constraints,
    }


def test_every_formula_text_compiles():
    # Each kind of formula text, with the names every text of the kind binds.
    kinds = [
        ([spec.lambdas for spec in BRANCHES], {"lambda2"}),
        ([", ".join(case) for cases in _CASES.values() for case in cases], {"lambda2"}),
        (list(PRINTED_SYSTEMS.values()), {"A1", "B1", "C1"}),
        ([spec.quartic for spec in BRANCHES if spec.quartic], {"qa", "qb", "qc"}),
    ]
    params = {"alpha", "beta", "gamma", "delta", "eta"}
    for texts, binds in kinds:
        for text in texts:
            relations = _compile_clauses(text, names=None)
            bound = {r.bare[0] for r in relations if r.equal and r.bare[0] not in params}
            read = set().union(*(r.names[0] | r.names[1] for r in relations))
            # Every name read is a parameter or bound by the same text.
            assert read <= params | bound, text
            assert binds <= bound, text
            assert _formula(text), text
    # A tabulated system binds A, B and C of each of its rows 1..n.
    for text in PRINTED_SYSTEMS.values():
        bound = {r.bare[0] for r in _compile_clauses(text, names=None)}
        n = sum(f"A{i}" in bound for i in range(1, 7))
        assert {f"{x}{i}" for x in "ABC" for i in range(1, n + 1)} <= bound, text
    assert [len(texts) for texts, _ in kinds] == [len(BRANCHES), 6, 7, 2]


def test_every_tabulated_system_compiles_to_an_integer_plan():
    """The plan of each tabulated text sets, on int pairs, the names it sets on
    numbers, in order.  Every entry is of degree at most 4, so the rows lift to the
    scale of `_rows`: at p/7, of scale L = 7, each is an int times 1/(16 L^4)."""
    for family, text in PRINTED_SYSTEMS.items():
        plan = _formula(text)
        params = FamilyParams(family, F(1, 7), F(2, 7), F(3, 7), F(5, 7), eta=-1 if family == "G4" else None)
        pairs, numbers = _pairs(vars(params)), vars(params)
        on_pairs = [name for name in _execute(plan, dict(pairs), True) if name not in pairs]
        on_numbers = [name for name in _execute(plan, dict(numbers), False, Mode.approx()) if name not in numbers]
        assert on_pairs == on_numbers == [name for _, name, _ in plan], text
        assert all(kind == "set" for kind, _, _ in plan), text
        rows = ein2._printed_rows(params, 7)
        assert rows and all(type(x) is int for row in rows for x in row), (family, rows)


def test_integer_plan_runs_on_int_pairs_and_divides_exactly(monkeypatch):
    # On int pairs the plan reads and binds pairs (n, d) for n/d, which need not be in lowest terms.
    bound = _execute(_formula("m = beta^2/2, A = m*eta - 3"), {"beta": (6, 2), "eta": (-1, 1)}, True)
    assert all(type(x) is int for pair in bound.values() for x in pair), bound
    assert (F(*bound["m"]), F(*bound["A"])) == (F(9, 2), -F(9, 2) - 3)
    # a remainder raises and never floors: 16 * alpha/3 at alpha = 1 (L = 1) is not an int
    monkeypatch.setitem(PRINTED_SYSTEMS, "G1", "A1 = alpha/3, B1 = beta, C1 = 1")
    with pytest.raises(ArithmeticError):
        match_printed_system(FamilyParams("G1", alpha=1, beta=1))


def test_integer_plan_divides_by_names_runs_checks_and_refuses_a_power_by_a_name():
    """Both forms state a quotient by a name, raising ZeroDivisionError where it
    is zero, and a check; a `^` by a name is refused at compile, in either form."""
    for text in ("q = alpha/beta", "q = alpha/(2*beta)", "m = alpha, q = beta/m"):
        assert _formula(text), text
        values = {"alpha": F(3, 2), "beta": F(-5, 7)}
        assert _evaluate(text, values, Mode.exact())["q"] == _evaluate(text, values, Mode.approx())["q"]
        for mode in (Mode.exact(), Mode.approx()):
            with pytest.raises(ZeroDivisionError):
                _evaluate(text, {"alpha": F(0), "beta": F(0)}, mode)
    plan = _formula("q = alpha, alpha != 0")
    assert _execute(plan, {"alpha": (0, 3)}, True) is None
    assert _execute(plan, {"alpha": (2, 3)}, True) == {"alpha": (2, 3), "q": (2, 3)}
    for text in ("q = alpha^eta", "q = alpha^(-1)", "q = alpha^beta, beta = 2"):
        with pytest.raises(ValueError):
            _formula(text)


def test_formula_must_bind_every_name_it_reads():
    with pytest.raises(ValueError):
        _formula("lambda1 = V, lambda2 = 0")
    with pytest.raises(ValueError):
        _formula("lambda1 = 0, lambda2^2 = alpha")


def test_constraint_text_keeps_the_parameter_vocabulary():
    with pytest.raises(ValueError, match="'lambda1'"):
        _compile_clauses("lambda1 = alpha")
    assert _compile_clauses("lambda1 = alpha", names=None)


def test_case_identities_split_in_the_callers_mode():
    # alpha = beta with gamma = 0 is flat: neither G3 case applies.
    recompute = BRANCHES_BY_LABEL["2.7(ii)"].recompute
    flat = FamilyParams("G3", alpha=F(1), beta=F(1), gamma=F(0))
    assert recompute(flat, Mode.exact()) is None
    # At the approx tolerance alpha = beta + 1e-12 takes the alpha = beta
    # case (lambda1 = 2) and not the generic one (lambda1 = 2e-12).
    near = FamilyParams("G3", alpha=1.0 + 1e-12, beta=1.0, gamma=2.0)
    assert abs(recompute(near, Mode.approx()).lambda1 - 2) < 1e-9
    assert recompute(near, Mode.exact()).lambda1 < 1e-9


def test_3_4_v_correction_holds_and_the_stated_lambda1_fails_on_every_sample():
    # The sampled form of the erratum: the corrected lambda1 that the
    # correction prints, compiled from that text, with the stated lambda2.
    spec = BRANCHES_BY_LABEL["3.4(v)"]
    correction = verify_branch(spec, count=5, seed=7).correction
    text = correction.partition(" (the tabulated")[0]
    assert text == "lambda1 = (alpha^4 - alpha^2*beta^2 + beta^4/2) / alpha^2"
    (relation,) = _compile_clauses(text, names=None)
    for params in sample_branch(spec, 50, seed=7):
        solution = is_ein2(family_table(params), DELTA, spec.mode)
        stated = spec.expected(params, spec.mode)
        assert solution.contains(relation.sides[1](vars(params)), stated.lambda2)
        assert not solution.contains(stated.lambda1, stated.lambda2)


@pytest.mark.parametrize("text", ["zeta = 0", "alpha < beta", "alpha = 0.5", "alpha = 1/2"])
def test_compiler_rejects_unknown_terms(text):
    with pytest.raises(ValueError):
        _compile_clauses(text)


def _g3_sampler(free, relations):
    """The sampler of a G3 plan (G3 adds no constraint of its own)."""
    plan = _plan(relations, free)
    return lambda rng: _sample("G3", plan, rng)


def test_sampler_rejects_relation_left_open():
    # beta = gamma binds neither side when only alpha is drawn.
    with pytest.raises(ValueError):
        _g3_sampler("alpha", _compile_clauses("beta = gamma"))


def test_sampler_checks_equalities_on_free_parameters():
    # beta is free, so beta = 0 is checked after beta is drawn, not bound
    # before the draw and then overwritten.
    draw = _g3_sampler("alpha beta", _compile_clauses("beta = 0"))
    rng = random.Random(0)
    samples = [p for p in (draw(rng) for _ in range(200)) if p is not None]
    assert samples and all(p.beta == 0 for p in samples)


def test_sampler_binds_a_squared_parameter_to_both_roots():
    relations = _compile_clauses("gamma^2 = alpha^2 + beta^2")
    draw = _g3_sampler("alpha* beta*", relations)
    rng = random.Random(0)
    samples = [draw(rng) for _ in range(200)]
    assert {math.copysign(1, p.gamma) for p in samples} == {1, -1}
    assert all(relations[0].check(vars(p), False, Mode.approx()) for p in samples)


def test_sampler_checks_a_squared_free_parameter():
    # gamma is free, so gamma^2 = alpha^2 + beta^2 is checked on the drawn
    # rational gamma, not bound to a float root.
    draw = _g3_sampler("alpha beta gamma", _compile_clauses("gamma^2 = alpha^2 + beta^2"))
    rng = random.Random(0)
    samples = [p for p in (draw(rng) for _ in range(2000)) if p is not None]
    assert samples
    assert all(
        isinstance(p.gamma, Fraction) and p.gamma**2 == p.alpha**2 + p.beta**2 for p in samples
    )


def test_checks_after_a_root_binding_run_at_the_approx_tolerance():
    # gamma is a rounded square root, so an exact test of the identity
    # below would reject some of these draws.
    text = "gamma^2 = alpha^2 + beta^2, gamma^2 - alpha^2 - beta^2 = 0"
    draw = _g3_sampler("alpha* beta*", _compile_clauses(text))
    rng = random.Random(0)
    samples = [draw(rng) for _ in range(200)]
    assert None not in samples
    assert any(p.gamma**2 - p.alpha**2 - p.beta**2 != 0 for p in samples)


def test_product_nonzero_reads_factor_by_factor_in_approx_mode():
    # alpha*beta = -1e-10 is within tolerance, but each factor is not.
    spec = BRANCHES_BY_LABEL["2.7(v)"]
    params = FamilyParams("G3", alpha=-1e-5, beta=1e-5, gamma=0.0)
    assert any(_members((spec,), params, Mode.approx()))


def test_errata_note_is_the_family_case_note():
    stated = BRANCHES_BY_LABEL["3.2(ii)"]
    spec = BranchSpec(
        stated.label, stated.constraints, stated.free, "lambda1 = 1, lambda2 = 0", stated.note,
        stated.quartic,
    )
    report = verify_branch(spec, count=5, seed=7)
    assert report.verdict == "errata"
    assert report.correction.startswith("recomputed from the G5 case identities")
    assert "V*W" not in report.correction
