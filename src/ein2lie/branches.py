"""The 30-branch classification catalog and its mechanical verifier.

Each branch of the classification (labeled by theorem and case, "2.3"
through "3.6(iv)") is a `BranchSpec`, six texts: the label, the
parameter constraints that define the branch, the free parameters of
its sampler, the stated (lambda1, lambda2), an errata note and the
branch quartic.  Its family is read off the label; its membership
test, seeded sampler and lambdas are compiled on first use.

The constraint text is the one statement of a branch's points: its
membership test and its sampler are compiled from it.  The text is a
list of clauses separated by ", ".  A clause is a chain of `=` and `!=`
over the parameters alpha..eta, integer constants, + - * / ^ and unary
minus, so `alpha = beta != 0` reads as alpha = beta and beta != 0.  A
product compared `!= 0` is tested factor by factor.  The clause
"alpha^2 a root of the branch quartic" reads as the branch's quartic, a
formula text (below) binding qa, qb and qc (and a helper k) from beta
and gamma, then the relation qa*alpha^4 + qb*alpha^2 + qc = 0.

A branch lists its free parameters in RNG order, "*" marking a nonzero
draw ("alpha* delta beta"); eta is always a random sign.  They are
drawn from a fixed rational grid.  A branch sampler checks the branch
relations, then the family constraints.  An equality binds a name,
neither free nor yet bound, that is one of its sides: a bare one to the
other side, a squared one (`gamma^2 = alpha^2 + beta^2`) to a random
sign times the square root of the other side, and alpha of the quartic
relation to a random sign times the square root of a random positive
root of qa*x^2 + qb*x + qc, which rejects the draw if it has none.
Every other relation is checked once its parameters are bound, in
approx mode after a square root, and a failed check rejects the draw.
Parameters neither drawn nor bound are 0.
The valid-point sampler of each family is compiled the same way, from
the pieces of its parameter variety in `liealg.FAMILY_PIECES`, each a
list of free parameters and the relations that fix the rest, checked
together with the family constraints.

The stated lambdas are a formula text in the same grammar, whose
equalities bind lambda1, lambda2 and helper names (T, V, W, ...) from
the parameters by the same binding step: each binds once every name its
other side reads is bound, so a text may define a helper after its use.
Every other relation of the text is a check, run in the caller's mode.
A formula that leaves lambda1 unbound states lambda1 free (with
lambda2 = 0).  A family's case identities are an ordered list of such
texts, each its checks followed by its formula: the first whose checks
pass gives the recomputed lambdas, and none passing gives None.  The
last is the family's generic case, the stated formula of its float
branch, and each errata note quotes the formula text it evaluates.
Each sampler (`BranchSpec.plan`, `_piece_plans`), each membership test
(`BranchSpec.membership`) and each formula text, `ein2.PRINTED_SYSTEMS`
too, is a plan of steps from one builder, run by one runner on int
pairs for exact values (`liealg._plan`, `_execute`).  One conversion of
a point (`liealg._point`) serves all the membership plans it runs.

`verify_branch` replays a branch against the solver: every sample must
be Ein(2) and the stated lambdas must lie in the computed solution set
(membership, not uniqueness; several branches leave lambda1 free, which
is accepted exactly when the solver returns a line).  A reproducible
systematic failure is not an error: the verifier re-derives the lambdas
from the case identities of the classification argument itself and, if
that recomputation checks out, reports the branch as errata with a
counterexample and the corrected formula attached.  The float branches
2.7(viii), 3.2(iv) and 3.4(vii) state the generic case identity of
their family, so for them the recomputation is no independent check.
The stated lambdas assume the delta convention; under the metric
convention, which flips the constant coefficient of row (3,3), a branch
with lambda2 != 0 fails, and `verify_branch` itself replays it under
delta and, if that replay is ok, reports a convention divergence.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, cached_property, partial

from .ein2 import _EXACT, DELTA, NONE, Ein2Solution, is_ein2
from .liealg import (
    FAMILY_PIECES,
    FamilyParams,
    LieAlgebraError,
    _PARAM_NAMES,
    _Relation,
    _compile_clauses,
    _evaluate,
    _execute,
    _family_relations,
    _numbers,
    _plan,
    _point,
    build_family,
    family_table,
)
from .scalars import Mode, Scalar, _Value

#: Published default seed and samples per branch: default runs are reproducible.
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 50

MAX_DRAWS = 10_000


class EmptyBranch(LieAlgebraError):
    """No valid sample found in MAX_DRAWS draws (infeasible branch)."""


def _theorem(label: str) -> str:
    """The theorem a branch or anchor label belongs to: "3.4" for "3.4(vii) ..."."""
    return label.split("(")[0]


# ---------------------------------------------------------------------------
# Expected lambda statements
# ---------------------------------------------------------------------------

POINT_SPEC = "point"
LAMBDA1_FREE = "lambda1_free"


class ExpectedLambdas(_Value):
    """Stated solution of a branch: an explicit point, or lambda2 = 0 with
    lambda1 unconstrained (accepted only as a full solver line)."""

    _fields = ("kind", "lambda1", "lambda2")

    def __init__(self, kind: str, lambda1=None, lambda2=None):
        self.kind, self.lambda1, self.lambda2 = kind, lambda1, lambda2

    @classmethod
    def point(cls, lambda1, lambda2) -> "ExpectedLambdas":
        return cls(POINT_SPEC, lambda1, lambda2)

    @classmethod
    def free_lambda1(cls) -> "ExpectedLambdas":
        return cls(LAMBDA1_FREE, None, Fraction(0))


class BranchSpec(_Value):
    """One classification branch, stated once as text.

    `free` lists the parameters its sampler draws, `lambdas` is the
    formula text of its stated (lambda1, lambda2), `note` starts its
    errata correction and `quartic` is the formula text of the quartic
    its quartic clause names.  The family is read off the label, and
    the arithmetic of its points off its sampler (`mode`).
    """

    _fields = ("label", "constraints", "free", "lambdas", "note", "quartic")

    def __init__(self, label: str, constraints: str, free: str, lambdas: str, note="", quartic=""):
        self.label, self.constraints, self.free = label, constraints, free
        self.lambdas, self.note, self.quartic = lambdas, note, quartic

    @property
    def theorem(self) -> str:
        return _theorem(self.label)

    @cached_property
    def family(self) -> str:
        return _THEOREM_FAMILY[self.theorem]

    @cached_property
    def relations(self) -> tuple:
        """The compiled constraint text, in reading order, its quartic clause as the quartic text."""
        text = self.constraints.removesuffix(", " + _QUARTIC_CLAUSE)
        quartic = f"{self.quartic}, qa*alpha^4 + qb*alpha^2 + qc = 0"
        return _compile_clauses(text) + (_compile_clauses(quartic, None) if text != self.constraints else ())

    @cached_property
    def plan(self) -> tuple:
        """The sampler's plan (`liealg._plan`): its draws, the branch's relations, then its family's."""
        return _plan(self.relations + _family_relations(self.family), self.free)

    @cached_property
    def membership(self) -> tuple:
        """The membership test's plan: every relation a check, but the quartic's set steps."""
        return _plan(self.relations, bound=_PARAM_NAMES)

    @cached_property
    def mode(self) -> Mode:
        """Approx if the sampler takes a square root, whose points are floats; exact otherwise."""
        return Mode.approx() if any(kind == "root" for kind, _, _ in self.plan) else _EXACT

    def draw(self, rng: random.Random) -> FamilyParams | None:
        """One run of the sampler's plan (`_sample`): a point of the branch, or None."""
        return _sample(self.family, self.plan, rng)

    def expected(self, params: FamilyParams, mode: Mode) -> ExpectedLambdas:
        return _lambdas((self.lambdas,), params, mode)

    @property
    def _recomputed(self) -> bool:
        # A stated point (a formula naming lambda1 binds it) is recomputed
        # from the case identities of its family, if it has them.
        return self.family in _CASES and "lambda1" in self.lambdas

    def recompute(self, params: FamilyParams, mode: Mode) -> ExpectedLambdas | None:
        """The family's case identities at `params`; None if none applies or lambda1 is free."""
        return _lambdas(_CASE_TEXTS[self.family], params, mode) if self._recomputed else None

    @property
    def correction_note(self) -> str:
        if not self._recomputed:
            return ""
        formulas = (formula for _, formula in _CASES[self.family])
        return self.note + _ERRATA_NOTES[self.family].format(*formulas)


class BranchFailure:
    """One sample whose stated lambdas are not in the solution set."""

    def __init__(
        self, params: FamilyParams, expected: ExpectedLambdas, solution_kind: str,
        residual_at_expected: Scalar | None, recomputed: ExpectedLambdas | None = None,
        recomputed_ok: bool = False,
    ):
        self.params, self.expected, self.solution_kind = params, expected, solution_kind
        self.residual_at_expected = residual_at_expected
        self.recomputed, self.recomputed_ok = recomputed, recomputed_ok


CONVENTION_DIVERGENCE = "convention_divergence"


class BranchReport:
    """Outcome of replaying one branch at sampled parameter points."""

    def __init__(self, label: str, family: str, constraints: str, attempted: int, passed: int):
        self.label, self.family, self.constraints = label, family, constraints
        self.attempted, self.passed = attempted, passed
        self.failures: list[BranchFailure] = []
        self.verdict = "verified"  # verified | errata | convention_divergence | inconclusive
        self.correction = ""

    @property
    def ok(self) -> bool:
        return self.verdict in ("verified", "errata", CONVENTION_DIVERGENCE)


# ---------------------------------------------------------------------------
# Seeded rational sampling
# ---------------------------------------------------------------------------

_DENOMINATORS = (1, 2, 3)


def _rng_for(seed: int, label: str) -> random.Random:
    # str seeding hashes deterministically (sha512), independent of any
    # per-process hash randomization.
    return random.Random(f"{seed}|{label}")


def _draw(rng: random.Random, name: str, nonzero: bool) -> tuple[int, int]:
    """A grid value n/d as its int pair (n, d); eta's is a random sign."""
    if name == "eta":
        return _sign(rng), 1
    while True:
        n, d = rng.randrange(-6, 7), rng.choice(_DENOMINATORS)
        if n or not nonzero:
            return n, d


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _positive_quadratic_roots(qa, qb, qc) -> list[float]:
    """Real positive roots of qa*x^2 + qb*x + qc = 0 (exact coefficients)."""
    if qa == 0:
        if qb == 0:
            return []
        root = -qc / qb
        return [float(root)] if root > 0 else []
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    sqrt_disc = math.sqrt(disc)
    roots = [(-float(qb) + sqrt_disc) / (2 * float(qa)), (-float(qb) - sqrt_disc) / (2 * float(qa))]
    return [r for r in roots if r > 0]


def _first_draw(draw, empty: str, accept=None) -> FamilyParams:
    """The first of MAX_DRAWS draws that is not None and, if given, `accept`s; else EmptyBranch."""
    for _ in range(MAX_DRAWS):
        params = draw()
        if params is not None and (accept is None or accept(params)):
            return params
    raise EmptyBranch(f"{empty} in {MAX_DRAWS} draws")


def sample_branch(spec: BranchSpec, count: int, seed: int = DEFAULT_SEED) -> list[FamilyParams]:
    """Deterministic parameter samples satisfying the branch constraints.

    Free parameters come from a fixed rational grid; equality
    constraints hold by substitution; quartic-constrained branches solve
    their quadratic-in-alpha^2 and keep only real roots with
    alpha^2 > 0.  Raises EmptyBranch when MAX_DRAWS draws produce no
    valid sample, which signals an infeasible branch description.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _rng_for(seed, spec.label)
    empty = f"branch {spec.label}: no valid sample"
    return [_first_draw(lambda: spec.draw(rng), empty) for _ in range(count)]


# ---------------------------------------------------------------------------
# Compiled constraints: membership tests and samplers
# ---------------------------------------------------------------------------

_QUARTIC_CLAUSE = "alpha^2 a root of the branch quartic"

_THEOREM_FAMILY = {
    "2.3": "G1", "2.5": "G2", "2.7": "G3", "2.9": "G4", "3.2": "G5", "3.4": "G6", "3.6": "G7"
}


def _root(rng: random.Random, relation: _Relation, name: str, values) -> float | None:
    """The value a root step of `relation` binds to `name`: a random sign times the square root
    of the other side, or of a random positive root of its bound quadratic; None if it has none."""
    if relation.coefficients is None:
        return _sign(rng) * math.sqrt(float(relation.sides[1 - relation.squared.index(name)](values)))
    roots = _positive_quadratic_roots(*(values[coefficient] for coefficient in relation.coefficients))
    return _sign(rng) * math.sqrt(rng.choice(roots)) if roots else None


def _sample(family: str, plan: tuple, rng: random.Random) -> FamilyParams | None:
    """One run of a sampler plan, with grid draws (`_draw`) and random roots (`_root`):
    its point, or None once a check rejects it or a root step finds no root."""
    values = _execute(plan, {}, True, None, _draw, _root, rng)
    if values is None:
        return None
    # A quartic's plan binds its coefficients too; only the parameters make the point.
    return FamilyParams(family, **_numbers({name: values[name] for name in _PARAM_NAMES if name in values}))


def _members(specs, params: FamilyParams, mode: Mode):
    """The specs whose membership plans pass at `params` in `mode`, lazily, on one
    conversion (`liealg._point`): each plan sets a name before it reads it."""
    values, exact = _point(vars(params), mode)
    return (spec for spec in specs if _execute(spec.membership, values, exact, mode) is not None)


# ---------------------------------------------------------------------------
# Stated lambdas and case identities, compiled from formula text
# ---------------------------------------------------------------------------

#: Each family's case identities in order, as (checks, formula) texts; the
#: recomputations run only when a stated formula fails.  The last case is
#: the family's generic one, the stated formula of its float branch.
_CASES = {
    "G3": (
        (
            "alpha = beta != 0, gamma != 0",
            "lambda1 = gamma*((2*alpha - gamma)^2 + gamma^2)/(4*alpha), "
            "lambda2 = gamma^4/4 - gamma^2/2*lambda1",
        ),
        (
            "alpha != beta",
            "lambda1 = gamma*(alpha + beta - gamma), "
            "lambda2 = (alpha^2 - (beta - gamma)^2)*(beta^2 - (alpha - gamma)^2)/4",
        ),
    ),
    "G5": (
        (
            "alpha^2 + beta^2 - delta^2 - gamma^2 = 0, Q + R != 0",
            "Q = alpha*delta + delta^2 - (beta^2 - gamma^2)/2, "
            "R = alpha^2 + delta^2 + (beta + gamma)^2/2, "
            "lambda1 = -(Q^2 + R^2)/(Q + R), lambda2 = R*Q*(R - Q)/(Q + R)",
        ),
        (
            "alpha^2 + beta^2 - delta^2 - gamma^2 != 0",
            "lambda1 = -(alpha + delta)^2, "
            "lambda2 = alpha*delta*(alpha + delta)^2 + (beta^2 - gamma^2)*(delta^2 - alpha^2)/2 "
            "- (beta^2 - gamma^2)^2/4",
        ),
    ),
    "G6": (
        (
            "delta^2 - alpha*delta + beta*gamma - gamma^2 = 0",
            "lambda1 = (V^2 + W^2) / (alpha + delta)^2, "
            "lambda2 = V*W*(delta^2 - alpha^2 + beta^2 - gamma^2) / (alpha + delta)^2, "
            "V = alpha^2 + alpha*delta - (beta^2 - gamma^2)/2, "
            "W = delta^2 + alpha*delta + (beta^2 - gamma^2)/2",
        ),
        (
            "delta^2 - alpha*delta + beta*gamma - gamma^2 != 0",
            "lambda1 = 2*alpha^2 + delta^2 + alpha*delta + beta*gamma - beta^2, "
            "T = alpha^2 + delta^2 - (beta - gamma)^2/2, lambda2 = lambda1*T - T^2",
        ),
    ),
}

#: The errata note of each family's recomputation; "{i}" is the formula of case i.
_ERRATA_NOTES = {
    "G3": "recomputed from the G3 case identities: {1}, with a separate identity at alpha = beta",
    "G5": (
        "recomputed from the G5 case identities: {1}, "
        "with a separate identity on alpha^2 + beta^2 = gamma^2 + delta^2"
    ),
    "G6": "recomputed by eliminating lambda2 between the two trailing diagonal equations: {0}",
}

_CASE_TEXTS = {
    family: tuple(", ".join(case) for case in cases) for family, cases in _CASES.items()
}


def _lambdas(texts, params: FamilyParams, mode: Mode) -> ExpectedLambdas | None:
    """The lambdas of the first formula text whose checks pass at `params`; None if none does.

    Checks run in `mode`.  A formula that leaves lambda1 unbound states
    lambda1 free.
    """
    for text in texts:
        values = _evaluate(text, vars(params), mode)
        if values is None:
            continue
        if "lambda1" not in values:
            return ExpectedLambdas.free_lambda1()
        return ExpectedLambdas.point(values["lambda1"], values["lambda2"])
    return None


# ---------------------------------------------------------------------------
# Branch catalog
# ---------------------------------------------------------------------------

BRANCHES: tuple[BranchSpec, ...] = (
    # --- G1 ---------------------------------------------------------------
    BranchSpec("2.3", "beta = 0, alpha != 0", "alpha*", "lambda1 = 0, lambda2 = 0"),
    # --- G2 ---------------------------------------------------------------
    BranchSpec(
        "2.5",
        "alpha = 2*beta, gamma != 0",
        "beta gamma*",
        "lambda1 = alpha^2/2 + 2*gamma^2, lambda2 = 0",
    ),
    # --- G3 ---------------------------------------------------------------
    BranchSpec("2.7(i)", "alpha = beta, gamma = 0", "alpha", "lambda2 = 0"),
    BranchSpec(
        "2.7(ii)",
        "alpha = beta != 0, gamma != 0",
        "alpha* gamma*",
        "lambda1 = gamma*((2*alpha - gamma)^2 + gamma^2)/(4*alpha), "
        "lambda2 = gamma^3*(-2*alpha^2 + 3*alpha*gamma - gamma^2)/(4*alpha)",
    ),
    BranchSpec("2.7(iii)", "alpha = 0, beta = gamma != 0", "beta*", "lambda2 = 0"),
    BranchSpec("2.7(iv)", "beta = 0, alpha = gamma != 0", "alpha*", "lambda2 = 0"),
    BranchSpec(
        "2.7(v)",
        "alpha != beta, alpha*beta != 0, gamma = alpha + beta",
        "alpha* beta*",
        "lambda1 = 2*alpha*beta, lambda2 = 0",
    ),
    BranchSpec(
        "2.7(vi)",
        "alpha != beta, alpha + beta - gamma != 0, gamma = alpha - beta",
        "alpha beta*",
        "lambda1 = 2*beta*(alpha - beta), lambda2 = 0",
    ),
    BranchSpec(
        "2.7(vii)",
        "alpha != beta, alpha + beta - gamma != 0, gamma = beta - alpha",
        "alpha* beta",
        "lambda1 = 2*alpha*(beta - alpha), lambda2 = 0",
    ),
    BranchSpec(
        "2.7(viii)",
        "alpha != beta, alpha + beta - gamma != 0, gamma^2 = alpha^2 + beta^2",
        "alpha* beta*",
        _CASE_TEXTS["G3"][-1],
    ),
    # --- G4 ---------------------------------------------------------------
    BranchSpec("2.9(i)", "alpha = 0, beta = eta", "eta", "lambda2 = 0"),
    BranchSpec(
        "2.9(ii)",
        "alpha != 0, beta = alpha/2 + eta",
        "alpha* eta",
        "lambda1 = alpha^2/2, lambda2 = 0",
    ),
    BranchSpec("2.9(iii)", "alpha = 0, beta != eta", "eta beta", "lambda1 = 0, lambda2 = 0"),
    # --- G5 ---------------------------------------------------------------
    BranchSpec(
        "3.2(i)",
        "gamma = -beta, alpha = delta != 0",
        "delta* beta",
        "lambda1 = -2*alpha^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.2(ii)",
        "alpha = beta = gamma = 0, delta != 0",
        "delta*",
        "lambda1 = -delta^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.2(iii)",
        "alpha != 0, beta = gamma = delta = 0",
        "alpha*",
        "lambda1 = -alpha^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.2(iv)",
        "beta != 0, delta = -alpha*gamma/beta, beta^2 != gamma^2, "
        "alpha^2 a root of the branch quartic",
        "beta* gamma*",
        _CASE_TEXTS["G5"][-1],
        quartic="k = (beta^2 - gamma^2)^2 + (beta + gamma)^4, "
        "qa = gamma*(3*beta^2 + 3*gamma^2 - 2*gamma*beta), qb = beta*k/2, qc = beta^3*k/4",
    ),
    # --- G6 ---------------------------------------------------------------
    BranchSpec(
        "3.4(i)",
        "beta = gamma != 0, alpha = delta != 0",
        "alpha* beta*",
        "lambda1 = 2*alpha^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(ii)",
        "beta = gamma = delta = 0, alpha != 0",
        "alpha*",
        "lambda1 = alpha^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(iii)",
        "beta = gamma = 0, alpha = delta != 0",
        "alpha*",
        "lambda1 = 2*alpha^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(iv)",
        "beta != gamma, delta = gamma != 0, alpha = beta, alpha + delta != 0",
        "gamma* beta",
        "lambda1 = (alpha + delta)^2/2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(v)",
        "beta != gamma, delta = gamma = 0, alpha != 0",
        "alpha* beta*",
        # Stated as tabulated; the lambda1 numerator's trailing beta^4 term
        # fails recomputation (see the errata machinery).
        "lambda1 = (alpha^4 - alpha^2*beta^2 + beta^4) / alpha^2, "
        "lambda2 = beta^2*(alpha^2 - beta^2/2)*(beta^2 - alpha^2) / (2*alpha^2)",
        note=(
            "lambda1 = (alpha^4 - alpha^2*beta^2 + beta^4/2) / alpha^2 "
            "(the tabulated numerator ends in beta^4 where the case identity gives beta^4/2); "
            "lambda2 as tabulated. "
        ),
    ),
    BranchSpec(
        "3.4(vi)",
        "beta != gamma, delta = -gamma != 0, alpha = -beta, alpha + delta != 0",
        "gamma* beta",
        "lambda1 = (alpha + delta)^2/2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(vii)",
        "beta != 0, delta = alpha*gamma/beta, delta^2 - alpha*delta + beta*gamma - gamma^2 != 0, "
        "alpha^2 a root of the branch quartic",
        "beta* gamma",
        _CASE_TEXTS["G6"][-1],
        quartic="qa = beta + gamma, qb = gamma*beta*(gamma - beta), "
        "qc = -beta^3*(beta - gamma)^2/2",
    ),
    BranchSpec(
        "3.4(viii)",
        "alpha = beta = gamma = 0, delta != 0",
        "delta*",
        "lambda1 = delta^2, lambda2 = 0",
    ),
    BranchSpec(
        "3.4(viiii)",
        "alpha = beta = 0, gamma != 0, delta^2 = gamma^2/2",
        "gamma*",
        "lambda1 = delta^2, lambda2 = 0",
    ),
    # --- G7 ---------------------------------------------------------------
    BranchSpec("3.6(i)", "alpha = beta = gamma = 0, delta != 0", "delta*", "lambda2 = 0"),
    BranchSpec("3.6(ii)", "alpha = gamma = 0, beta != 0, delta != 0", "beta* delta*", "lambda2 = 0"),
    BranchSpec("3.6(iii)", "alpha != 0, gamma = 0, alpha = delta", "alpha* beta", "lambda2 = 0"),
    BranchSpec(
        "3.6(iv)",
        "alpha != 0, gamma = 0, alpha != delta, alpha != -delta",
        "alpha* delta beta",
        "lambda1 = 0, lambda2 = 0",
    ),
)
BRANCHES_BY_LABEL = {spec.label: spec for spec in BRANCHES}


def branches_for(family: str) -> tuple[BranchSpec, ...]:
    return tuple(spec for spec in BRANCHES if spec.family == family)


# ---------------------------------------------------------------------------
# Branch verification
# ---------------------------------------------------------------------------

def _expected_holds(solution: Ein2Solution, expected: ExpectedLambdas) -> bool:
    if expected.kind == LAMBDA1_FREE:
        # lambda1 is treated as free exactly when the solver returns a
        # line; a point solution under a free-lambda1 statement is a
        # mismatch worth reporting.
        return solution.lambda2_zero_line()
    return solution.contains(expected.lambda1, expected.lambda2)


def verify_branch(
    spec: BranchSpec,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    convention: str = DELTA,
) -> BranchReport:
    """Replay one branch: sample, solve, check the stated lambdas.

    Failures are data, not errors.  When every sample fails the same way
    and the case-identity recomputation passes on all of them, the
    verdict is "errata" and the corrected formula is attached.  Under a
    convention other than delta, which the stated lambdas assume, a
    branch whose replay under delta is ok is a "convention_divergence";
    partial or unexplained failures are "inconclusive".
    """
    report = BranchReport(
        label=spec.label,
        family=spec.family,
        constraints=spec.constraints,
        attempted=count,
        passed=0,
    )
    samples = sample_branch(spec, count, seed)
    mode = spec.mode
    for params in samples:
        # sample_branch has validated the point
        solution = is_ein2(family_table(params), convention, mode)
        expected = spec.expected(params, mode)
        if solution.kind != NONE and _expected_holds(solution, expected):
            report.passed += 1
            continue
        failure = BranchFailure(
            params=params,
            expected=expected,
            solution_kind=solution.kind,
            residual_at_expected=(
                solution.residual_of(expected.lambda1, expected.lambda2)
                if expected.kind == POINT_SPEC
                else None
            ),
        )
        if solution.kind != NONE and (recomputed := spec.recompute(params, mode)) is not None:
            failure.recomputed = recomputed
            failure.recomputed_ok = _expected_holds(solution, recomputed)
        report.failures.append(failure)

    if not report.failures:
        report.verdict = "verified"
    elif report.passed == 0 and all(f.recomputed_ok for f in report.failures):
        report.verdict = "errata"
        report.correction = spec.correction_note
    elif convention != DELTA and (delta_report := verify_branch(spec, count, seed)).ok:
        report.verdict = CONVENTION_DIVERGENCE
        report.correction = (
            "stated lambdas hold under the delta convention "
            f"(delta verdict: {delta_report.verdict}); the metric convention "
            "flips the constant coefficient of row (3,3), which matters "
            "exactly when lambda2 != 0"
        )
    else:
        report.verdict = "inconclusive"
    return report


# ---------------------------------------------------------------------------
# Classification of a single parameter point
# ---------------------------------------------------------------------------

EIN2 = "ein2"
NOT_EIN2 = "not_ein2"
INCONSISTENT = "inconsistent"


class ClassificationResult:
    """Branch matches plus solver verdict for one parameter point.

    status is "ein2" when at least one branch matches and the solver
    agrees, "not_ein2" when neither side finds anything, and
    "inconsistent" when they disagree -- an errata signal that is
    reported, never silently resolved.
    """

    def __init__(self, params: FamilyParams, branches: tuple, solution: Ein2Solution, status: str):
        self.params, self.branches, self.solution, self.status = params, branches, solution, status


def classify(params: FamilyParams, convention: str, mode: Mode) -> ClassificationResult:
    """Match a parameter point against every branch of its family.

    Overlapping branches all appear in the result (overlaps exist).
    """
    sc = build_family(params, mode)
    matched = tuple(spec.label for spec in _members(branches_for(params.family), params, mode))
    solution = is_ein2(sc, convention, mode)
    if matched and solution.kind != NONE:
        status = EIN2
    elif not matched and solution.kind == NONE:
        status = NOT_EIN2
    else:
        status = INCONSISTENT
    return ClassificationResult(params=params, branches=matched, solution=solution, status=status)


# ---------------------------------------------------------------------------
# Generic valid-point sampling (fidelity and negative sampling)
# ---------------------------------------------------------------------------

@cache
def _piece_plans(family: str) -> tuple:
    """The sampler plans of the family's pieces (`FAMILY_PIECES`), which
    check the family constraints first; compiled on the family's first use."""
    return tuple(
        _plan(_family_relations(family) + (_compile_clauses(text) if text else ()), free)
        for free, text in FAMILY_PIECES[family]
    )


def sample_family_point(family: str, rng: random.Random) -> FamilyParams:
    """One random valid parameter point of the family (rational grid).

    Each try picks a piece with equal weight (no draw for a family of
    one piece); the first try whose family constraints hold is the point.
    """
    if family not in FAMILY_PIECES:
        raise ValueError(f"unknown family {family!r}")
    plans = _piece_plans(family)

    def draw() -> FamilyParams | None:
        return _sample(family, plans[rng.randrange(len(plans))] if len(plans) > 1 else plans[0], rng)

    return _first_draw(draw, f"{family}: no valid point")


def sample_valid_points(family: str, count: int, seed: int = DEFAULT_SEED) -> list[FamilyParams]:
    rng = _rng_for(seed, f"valid|{family}")
    return [sample_family_point(family, rng) for _ in range(count)]


def sample_off_branch(family: str, count: int, seed: int = DEFAULT_SEED) -> list[FamilyParams]:
    """Valid parameter points of the family matching no branch constraints."""
    draw = partial(sample_family_point, family, _rng_for(seed, f"offbranch|{family}"))
    specs = branches_for(family)

    def off_branch(params: FamilyParams) -> bool:
        return not any(_members(specs, params, _EXACT))

    return [_first_draw(draw, f"{family}: no off-branch sample", off_branch) for _ in range(count)]


# ---------------------------------------------------------------------------
# Irrational spot-check anchors (explicit closed forms with square roots)
# ---------------------------------------------------------------------------

class AnchorSpec(_Value):
    """A fully worked irrational branch point with closed-form lambdas."""

    _fields = ("label", "params", "lambda1", "lambda2", "tolerance")

    def __init__(self, label: str, params: FamilyParams, lambda1, lambda2, tolerance=1e-12):
        self.label, self.params, self.tolerance = label, params, tolerance
        self.lambda1, self.lambda2 = lambda1, lambda2

    @property
    def theorem(self) -> str:
        return _theorem(self.label)


def _anchor_g5() -> AnchorSpec:
    # Branch 3.2(iv) at beta = -1, gamma = 2: delta = 2*alpha and the
    # quartic becomes 76*alpha^4 - 10*alpha^2 - 5 = 0.
    alpha_sq = (5 + math.sqrt(405)) / 76
    alpha = math.sqrt(alpha_sq)
    params = FamilyParams("G5", alpha=alpha, beta=Fraction(-1), gamma=Fraction(2), delta=2 * alpha)
    lam1 = -(45 + 9 * math.sqrt(405)) / 76
    lam2 = 18 * alpha_sq**2 - 4.5 * alpha_sq - 2.25
    return AnchorSpec("3.2(iv) @ beta=-1, gamma=2", params, lam1, lam2)


def _anchor_g6() -> AnchorSpec:
    # Branch 3.4(vii) at beta = 1, gamma = 2: delta = 2*alpha and
    # alpha^2 = (-2 + sqrt(10))/6.
    alpha_sq = (-2 + math.sqrt(10)) / 6
    alpha = math.sqrt(alpha_sq)
    params = FamilyParams("G6", alpha=alpha, beta=Fraction(1), gamma=Fraction(2), delta=2 * alpha)
    lam1 = (4 * math.sqrt(10) - 5) / 3
    lam2 = (37 - 8 * math.sqrt(10)) / 12
    return AnchorSpec("3.4(vii) @ beta=1, gamma=2", params, lam1, lam2)


ANCHORS: tuple[AnchorSpec, ...] = (_anchor_g5(), _anchor_g6())


class AnchorResult:
    def __init__(self, anchor: AnchorSpec, solution: Ein2Solution, lambda1_error, lambda2_error):
        self.anchor, self.solution = anchor, solution
        self.lambda1_error, self.lambda2_error = lambda1_error, lambda2_error

    @property
    def ok(self) -> bool:
        return (
            self.solution.kind == "point"
            and self.lambda1_error <= self.anchor.tolerance
            and self.lambda2_error <= self.anchor.tolerance
        )


def verify_anchor(anchor: AnchorSpec) -> AnchorResult:
    """Solve the anchor in approx mode: its parameters are irrational by construction, floats."""
    mode = Mode.approx()
    solution = is_ein2(build_family(anchor.params, mode), DELTA, mode)
    if solution.kind == "point":
        err1 = abs(float(solution.point[0]) - anchor.lambda1)
        err2 = abs(float(solution.point[1]) - anchor.lambda2)
    else:
        err1 = err2 = math.inf
    return AnchorResult(anchor=anchor, solution=solution, lambda1_error=err1, lambda2_error=err2)
