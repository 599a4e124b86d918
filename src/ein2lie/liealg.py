"""Three-dimensional metric Lie algebras in a fixed pseudo-orthonormal frame.

The frame {e1, e2, e3} is orthonormal for a Lorentzian metric of
signature (+, +, -): g(e_i, e_j) = eps_i * delta_ij with
eps = (1, 1, -1), so e3 is timelike.  The frame is frozen; no basis
change is supported anywhere in the package, and an algebra is fully
described by its structure constants c^k_ij where
[e_i, e_j] = sum_k c^k_ij e_k, stored as the three brackets
[e1,e2], [e1,e3], [e2,e3] (`StructureConstants`).

Seven parameterized families G1..G7 cover the classification this
package verifies.  G1-G4 are the unimodular ones, G5-G7 the
non-unimodular ones.  Each family carries the parameter constraints
listed in `FAMILY_CONSTRAINTS`, which `validate_params` compiles and
checks, and the pieces of its parameter variety listed in
`FAMILY_PIECES`, from which its points are sampled.  The same clause
compiler reads the package's formula texts, which bind names in turn:
one walk of each side checks it and compiles its scalar and exact forms
(`_side`).  One builder makes the plan of a text or a sampler (`_plan`)
and one runner executes every plan (`_execute`) on the point `_point`
gives: in exact mode int pairs, a float's dyadic too, with no Fraction arithmetic.
Arbitrary tables enter through `from_raw`, which enforces antisymmetry
but deliberately not the Jacobi identity: `jacobi_ok` decides it, and
`geometry.ricci` raises NotLieAlgebra where it fails.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from .scalars import Mode, Scalar, _Value, as_scalar, is_exact

FAMILIES = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")


class LieAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(LieAlgebraError):
    """A family parameter constraint fails; carries the constraint text."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        message = f"constraint violated: {constraint}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class UnknownFamily(LieAlgebraError):
    def __init__(self, family):
        self.family = family
        super().__init__(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")


class AntisymmetryViolation(LieAlgebraError):
    """Raw structure constants with c^k_ij != -c^k_ji; indices are 1-based."""

    def __init__(self, i: int, j: int, k: int):
        self.indices = (i, j, k)
        super().__init__(f"antisymmetry violated at c^{k}_{{{i}{j}}} != -c^{k}_{{{j}{i}}}")


class NotLieAlgebra(LieAlgebraError):
    """The Jacobi identity fails beyond tolerance."""


#: The fixed frame metric g(e_i, e_j) = eps_i * delta_ij, e3 timelike.
EPS = (1, 1, -1)

Vector = tuple[Scalar, Scalar, Scalar]


class StructureConstants(_Value):
    """The brackets ([e1,e2], [e1,e3], [e2,e3]) of an algebra, each as its e_k coefficients.

    brackets[p][k] = c^k_ij for the p-th pair (i, j) of (0, 1), (0, 2),
    (1, 2); indices are 0-based internally, and reports translate to the
    1-based labels e1, e2, e3.  The full table c[i][j][k] = c^k_ij
    follows from the nine, with a zero diagonal and c^k_ji = -c^k_ij;
    `c` builds it on first read.
    """

    _fields = ("brackets",)

    def __init__(self, brackets: tuple[Vector, Vector, Vector]):
        self.brackets = brackets

    @functools.cached_property
    def c(self) -> tuple[tuple[Vector, Vector, Vector], ...]:
        b12, b13, b23 = self.brackets
        z = (0, 0, 0)
        neg = lambda v: tuple(-x for x in v)
        return ((z, b12, b13), (neg(b12), z, b23), (neg(b13), neg(b23), z))

    def values(self) -> tuple:
        """The nine bracket entries, in the order of `brackets`."""
        return sum(self.brackets, ())

    def is_exact(self) -> bool:
        return all(map(is_exact, self.values()))


class FamilyParams(_Value):
    """A point in the parameter space of one family.

    Fields not listed in PARAMS_USED[family] are ignored; eta is only
    meaningful for G4 and must be +1 or -1 there.
    """

    _fields = ("family", "alpha", "beta", "gamma", "delta", "eta")

    def __init__(self, family: str, alpha=0, beta=0, gamma=0, delta=0, eta: int | None = None):
        if family not in FAMILIES:
            raise UnknownFamily(family)
        self.family, self.alpha, self.beta = family, as_scalar(alpha), as_scalar(beta)
        self.gamma, self.delta = as_scalar(gamma), as_scalar(delta)
        if eta is not None and type(eta) is not int:
            raise TypeError(f"eta must be an int, got {eta!r}")
        if eta is not None and eta not in (1, -1):
            raise ConstraintViolation(FAMILY_CONSTRAINTS["G4"], f"got eta = {eta}")
        self.eta = eta


# ---------------------------------------------------------------------------
# Constraint clauses
# ---------------------------------------------------------------------------

_PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "eta")


def _pair_form(op, left, right):
    """The exact form of `left op right`: values are unnormalised int pairs (n, d) for n/d."""
    if op is operator.add:
        def term(values):
            (a, b), (c, d) = left(values), right(values)
            return a * d + c * b, b * d
    elif op is operator.sub:
        def term(values):
            (a, b), (c, d) = left(values), right(values)
            return a * d - c * b, b * d
    elif op is operator.mul:
        def term(values):
            (a, b), (c, d) = left(values), right(values)
            return a * c, b * d
    elif op is operator.truediv:
        def term(values):
            (a, b), (c, d) = left(values), right(values)
            if not c:
                raise ZeroDivisionError(f"{a}/{b} divided by zero")
            return a * d, b * c
    else:
        k = right(None)[0]  # a power's constant exponent, as the grammar requires

        def term(values):
            a, b = left(values)
            return a**k, b**k
    return term


@functools.cache
def _operators() -> dict:
    """The binary operators by syntax node type, built on first compile."""
    import ast
    return {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.Div: operator.truediv, ast.Pow: operator.pow}


def _binary(op, left, right) -> tuple:
    """The (names, scalar form, exact form) of `left op right`, from those of its sides."""
    (left_names, scalar_left, exact_left), (right_names, scalar_right, exact_right) = left, right
    return (left_names | right_names, lambda values: op(scalar_left(values), scalar_right(values)),
            _pair_form(op, exact_left, exact_right))


def _side(node) -> tuple[frozenset, Callable, Callable]:
    """Check a side against the grammar and compile it, in one walk: the names it reads and its
    scalar and exact forms, functions of the parameter values; else ValueError.

    The grammar is names, integer constants, unary minus and + - * / ^,
    where a quotient's numerator reads a name (`1/2` would be a float)
    and `^` takes a non-negative integer constant only.  The scalar form
    computes on the numbers it reads, its integer constants staying ints.
    The exact form runs on int pairs (`_pair_form`), a quotient by zero
    raising ZeroDivisionError as Fraction does.
    """
    import ast
    if isinstance(node, ast.Name):
        read = operator.itemgetter(node.id)
        return frozenset((node.id,)), read, read
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value, pair = node.value, (node.value, 1)
        return frozenset(), lambda values: value, lambda values: pair
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        names, operand, exact = _side(node.operand)
        return names, lambda values: -operand(values), _pair_form(operator.sub, lambda values: (0, 1), exact)
    if isinstance(node, ast.BinOp) and type(node.op) in _operators():
        exponent = getattr(node.right, "value", None)
        if isinstance(node.op, ast.Pow) and not (type(exponent) is int and exponent >= 0):
            raise ValueError(f"{ast.unparse(node)!r} has no non-negative integer constant exponent")
        left = _side(node.left)
        if left[0] or not isinstance(node.op, ast.Div):
            return _binary(_operators()[type(node.op)], left, _side(node.right))
    raise ValueError(f"unsupported term {ast.unparse(node)!r}")


def _factors(node) -> list:
    import ast
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _pairs(values: Mapping) -> dict:
    """The numbers among `values` as int pairs (n, d), a float as its dyadic rational."""
    pairs = {}
    for name, x in values.items():
        kind = type(x)
        if kind is Fraction or kind is int or kind is float:
            pairs[name] = x.as_integer_ratio()
    return pairs


def _numbers(pairs: dict) -> dict:
    """The values with each int pair (n, d) as the Fraction n/d, and eta's as the int n."""
    return {
        name: x if type(x) is not tuple else x[0] if name == "eta" else Fraction(*x)
        for name, x in pairs.items()
    }


def _point(values: Mapping[str, Scalar], mode: Mode) -> tuple[dict, bool]:
    """The values a plan runs on in `mode`, and whether they are int pairs: in exact
    mode the numbers as int pairs (`_pairs`), in approx mode a copy of them."""
    return (_pairs(values), True) if mode.is_exact else (dict(values), False)


def _first_failure(relations, values: Mapping[str, Scalar], mode: Mode):
    """The first relation that fails at `values` in `mode`, on the point `_point` gives."""
    values, exact = _point(values, mode)
    for relation in relations:
        if not relation.check(values, exact, mode):
            return relation
    return None


class _Relation:
    """One link `left = right` or `left != right` of a constraint clause.

    Sides read the parameters from a mapping of names to values, such as
    vars(params).  `bare[i]` is side i's name if it is a bare parameter,
    `squared[i]` its name if it is a bare parameter squared (`gamma^2`),
    `names[i]` the parameters it reads.  The clause `a*x^4 + b*x^2 + c = 0`
    reads as x^2 = a root of a*y^2 + b*y + c, a side that reads its
    `coefficients` (a, b, c), else None.  `scalar` and `exact` are its
    (sides, terms) in either form (`_side`), built with it; the terms'
    zero tests decide it (`check`).
    """

    def __init__(self, clause: str, equal: bool, left, right):
        import ast
        self.clause, self.equal = clause, equal
        self.bare = tuple(getattr(side, "id", None) for side in (left, right))
        self.squared = tuple(
            getattr(side.left, "id", None)
            if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Pow)
            and getattr(side.right, "value", None) == 2 else None
            for side in (left, right)
        )
        sides = _side(left), _side(right)
        if not (isinstance(right, ast.Constant) and right.value == 0):
            terms = (_binary(operator.sub, *sides),)
        elif equal or len(_factors(left)) == 1:
            terms = sides[:1]
        else:
            # A product compared != 0 reads factor by factor: the same test in
            # exact mode, while in approx mode each factor must clear the
            # tolerance, not their far smaller product.
            terms = tuple(map(_side, _factors(left)))
        self.names = sides[0][0], sides[1][0]
        self.scalar = (sides[0][1], sides[1][1]), tuple(term[1] for term in terms)
        self.exact = (sides[0][2], sides[1][2]), tuple(term[2] for term in terms)
        quadratic = re.fullmatch(r"(\w+)\*(\w+)\^4 \+ (\w+)\*\2\^2 \+ (\w+) = 0", clause)
        self.coefficients = quadratic and quadratic.group(1, 3, 4)
        if quadratic:
            self.squared = quadratic[2], None
            self.names = frozenset((quadratic[2],)), frozenset(self.coefficients)

    sides = property(lambda self: self.scalar[0])

    def check(self, values: Mapping, exact: bool, mode: Mode | None) -> bool:
        """Whether the relation holds at `values`: int pairs if `exact`, each term's numerator
        zero for =, nonzero for !=; else numbers, each term zero or nonzero in `mode`."""
        if exact:
            terms = self.exact[1]
            if self.equal:
                return not terms[0](values)[0]
            for term in terms:
                if not term(values)[0]:
                    return False
            return True
        test = mode.is_zero if self.equal else mode.is_nonzero
        for term in self.scalar[1]:
            if not test(term(values)):
                return False
        return True


def _compile_clauses(
    text: str, names: Sequence[str] | None = _PARAM_NAMES
) -> tuple[_Relation, ...]:
    """Compile a constraint text into its relations, in reading order.

    Clauses are separated by ", " and read as Python comparisons, with
    `^` for a power and `=` for equality, so `alpha = beta != 0` yields
    `alpha = beta` and `beta != 0`.  Terms may use the `names` (any name
    if None), integer constants, + - * / ^ and unary minus; anything else
    raises ValueError (SyntaxError for a clause that is no expression).
    """
    relations = tuple(
        relation for clause in text.split(", ") for relation in _compile_clause(clause)
    )
    read = frozenset().union(*(relation.names[0] | relation.names[1] for relation in relations))
    if names is not None and not read <= set(names):
        raise ValueError(f"unsupported term {min(read.difference(names))!r}")
    return relations


# The catalog repeats many clauses; relations are never mutated, so
# branches share them and each clause is parsed and compiled once.
@functools.lru_cache(maxsize=None)
def _compile_clause(clause: str) -> tuple[_Relation, ...]:
    import ast
    tree = ast.parse(clause.replace("^", "**").replace(" = ", " == "), mode="eval").body
    if not isinstance(tree, ast.Compare) or not all(
        isinstance(op, (ast.Eq, ast.NotEq)) for op in tree.ops
    ):
        raise ValueError(f"constraint {clause!r} is not a chain of = and !=")
    sides = [tree.left, *tree.comparators]
    return tuple(
        _Relation(clause, isinstance(op, ast.Eq), left, right)
        for op, left, right in zip(tree.ops, sides, sides[1:])
    )


def _next_step(pending, bound, free):
    """Take the first pending relation that the `bound` names decide; return its step.

    An equality binds a bare name, or the square root of a squared one,
    only if that name is neither bound nor free: ("set", name, (relation,
    the side that gives its value)) or ("root", name, relation).  Any
    other decided relation is a check, ("check", None, relation).
    """
    for relation in pending:
        for side in (0, 1) if relation.equal else ():
            name = relation.bare[side] or relation.squared[side]
            if name not in bound | free | {None} and relation.names[1 - side] <= bound:
                pending.remove(relation)
                bound.add(name)
                return ("set", name, (relation, 1 - side)) if relation.bare[side] else ("root", name, relation)
        if relation.names[0] | relation.names[1] <= bound:
            pending.remove(relation)
            return "check", None, relation
    return None


def _plan(relations, free: str = "", bound=()) -> tuple:
    """The steps, as data, that draw the `free` names and bind or check each relation.

    `free` lists names in draw order, "*" marking a nonzero draw: a step
    ("draw", name, nonzero) each.  After each draw, or once if there is
    none, every relation the bound names decide is a step (`_next_step`).
    """
    plan, bound, pending = [], set(bound), list(relations)
    free_names = {token.rstrip("*") for token in free.split()}
    for token in free.split() or [""]:
        if name := token.rstrip("*"):
            plan.append(("draw", name, token.endswith("*")))
            bound.add(name)
        while (step := _next_step(pending, bound, free_names)) is not None:
            plan.append(step)
    if pending:
        raise ValueError(f"{pending[0].clause!r} reads a name that no draw and no equality binds")
    return tuple(plan)


# Compiled on first use, once, so that importing the package compiles no formula.
@functools.lru_cache(maxsize=None)
def _formula(text: str) -> tuple:
    """The plan of a formula text (`_plan`) with every parameter bound: its "set" and "check" steps."""
    plan = _plan(_compile_clauses(text, names=None), bound=_PARAM_NAMES)
    if any(kind == "root" for kind, _, _ in plan):
        raise ValueError(f"formula {text!r} does not bind each name it reads by a bare equality")
    return plan


def _execute(
    plan, values: dict, exact: bool, mode: Mode | None = None, draw=None, root=None, rng=None
) -> dict | None:
    """Run a plan's steps on `values`, which gain every name the plan binds; None once a check fails.

    `exact` values are int pairs, on which the steps run in exact forms
    until a root step turns them into numbers (`_numbers`); the steps
    then run in scalar forms, their checks in approx mode.  Checks on
    numbers from the start run in `mode`.  A draw step binds
    `draw(rng, name, nonzero)`, an int pair, and a root step `root(rng,
    relation, name, values)`, a number, or rejects them if that is None.
    """
    for kind, name, arg in plan:
        if kind == "set":
            relation, side = arg
            values[name] = (relation.exact if exact else relation.scalar)[0][side](values)
        elif kind == "check":
            if not arg.check(values, exact, mode):
                return None
        elif kind == "draw":
            values[name] = draw(rng, name, arg)
        else:
            values, exact, mode = _numbers(values), False, Mode.approx()
            if (value := root(rng, arg, name, values)) is None:
                return None
            values[name] = value
    return values


def _evaluate(text: str, values: Mapping[str, Scalar], mode: Mode) -> dict | None:
    """The `values` and every name the formula text binds; None once one of its checks fails.

    The checks run in `mode`.  The text runs on the point `_point` gives,
    and on int pairs only the names the text binds become Fractions.
    """
    point, exact = _point(values, mode)
    point = _execute(_formula(text), point, exact, mode)
    if point is None or not exact:
        return point
    return {**values, **_numbers({n: x for n, x in point.items() if n not in values})}


FAMILY_CONSTRAINTS = {
    "G1": "alpha != 0",
    "G2": "gamma != 0",
    "G3": "none",
    "G4": "eta = 1 or -1",
    "G5": "alpha + delta != 0, alpha*gamma + beta*delta = 0",
    "G6": "alpha + delta != 0, alpha*gamma - beta*delta = 0",
    "G7": "alpha + delta != 0, alpha*gamma = 0",
}

#: Each family's parameter variety as a union of pieces.  A piece lists
#: its free parameters in draw order ("*" marks a nonzero draw) and the
#: relations that fix the rest, in the clause grammar of
#: `_compile_clauses`; `branches.sample_family_point` draws from it under
#: the family constraints.  G5 and G6 split their bilinear constraint at
#: beta = 0, G7 its product into alpha = 0 and gamma = 0.
FAMILY_PIECES = {
    "G1": (("alpha* beta", ""),),
    "G2": (("alpha beta gamma*", ""),),
    "G3": (("alpha beta gamma", ""),),
    "G4": (("alpha beta eta", ""),),
    "G5": (
        ("beta* alpha gamma", "beta != 0, delta = -alpha*gamma/beta"),
        ("gamma delta", "alpha = beta = 0"),
        ("alpha delta", "beta = gamma = 0"),
    ),
    "G6": (
        ("beta* alpha gamma", "beta != 0, delta = alpha*gamma/beta"),
        ("gamma delta", "alpha = beta = 0"),
        ("alpha delta", "beta = gamma = 0"),
    ),
    "G7": (
        ("gamma beta delta", "alpha = 0"),
        ("alpha beta delta", "gamma = 0"),
    ),
}

#: Which parameter fields each family actually reads: the free
#: parameters of its pieces, in the order of `_PARAM_NAMES`.
PARAMS_USED = {
    family: tuple(
        name
        for name in _PARAM_NAMES
        if any(name in free.replace("*", "").split() for free, _ in pieces)
    )
    for family, pieces in FAMILY_PIECES.items()
}


# G3 is unconstrained and G4's eta is an integer sign, checked in code.
@functools.lru_cache(maxsize=None)
def _family_relations(family: str) -> tuple[_Relation, ...]:
    """The family's constraint relations, compiled on the family's first use."""
    return () if family in ("G3", "G4") else _compile_clauses(FAMILY_CONSTRAINTS[family])


def validate_params(params: FamilyParams, mode: Mode) -> None:
    """Check the family's parameter (in)equalities; raise ConstraintViolation.

    Equalities test exactly in exact mode and within tolerance in approx
    mode; strict inequalities read |expr| > tolerance in approx mode.
    """
    if params.family == "G4" and params.eta not in (1, -1):
        raise ConstraintViolation(FAMILY_CONSTRAINTS["G4"], f"got eta = {params.eta}")
    relations = _family_relations(params.family)
    if not relations:
        return
    values = vars(params)
    relation = _first_failure(relations, values, mode)
    if relation is not None:
        # Family clauses are single relations; an equality shows its left side as the test read it.
        left = relation.clause.partition(" = ")[0]
        detail = f"{left} = {relation.sides[0](_numbers(_point(values, mode)[0]))}" if relation.equal else ""
        raise ConstraintViolation(relation.clause, detail)


def build_family(params: FamilyParams, mode: Mode) -> StructureConstants:
    """Validate a parameter point, then construct its brackets (`family_table`); in exact mode
    from the parameters as Fractions, a float as its dyadic rational, so no bracket rounds."""
    validate_params(params, mode)
    if mode.is_exact and float in map(type, vars(params).values()):
        params = FamilyParams(params.family, **_numbers(_pairs(vars(params))))
    return family_table(params)


def family_table(params: FamilyParams) -> StructureConstants:
    """The brackets of a parameter point, which the caller has validated.

    Brackets not listed below are zero:

      G1: [e1,e2] = a e1 - b e3, [e1,e3] = -a e1 - b e2, [e2,e3] = b e1 + a e2 + a e3
      G2: [e1,e2] = g e2 - b e3, [e1,e3] = -b e2 - g e3, [e2,e3] = a e1
      G3: [e1,e2] = -g e3,       [e1,e3] = -b e2,        [e2,e3] = a e1
      G4: [e1,e2] = -e2 + (2*eta - b) e3, [e1,e3] = -b e2 + e3, [e2,e3] = a e1
      G5: [e1,e3] = a e1 + b e2, [e2,e3] = g e1 + d e2
      G6: [e1,e2] = a e2 + b e3, [e1,e3] = g e2 + d e3
      G7: [e1,e2] = -a e1 - b e2 - b e3, [e1,e3] = a e1 + b e2 + b e3,
          [e2,e3] = g e1 + d e2 + d e3
    """
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    family = params.family
    if family == "G1":
        return StructureConstants(((a, 0, _minus(b)), (_minus(a), _minus(b), 0), (b, a, a)))
    if family == "G2":
        return StructureConstants(((0, g, _minus(b)), (0, _minus(b), _minus(g)), (a, 0, 0)))
    if family == "G3":
        return StructureConstants(((0, 0, _minus(g)), (0, _minus(b), 0), (a, 0, 0)))
    if family == "G4":
        return StructureConstants(((0, -1, _minus(b, 2 * params.eta)), (0, _minus(b), 1), (a, 0, 0)))
    if family == "G5":
        return StructureConstants(((0, 0, 0), (a, b, 0), (g, d, 0)))
    if family == "G6":
        return StructureConstants(((0, a, b), (0, g, d), (0, 0, 0)))
    if family == "G7":
        return StructureConstants(((_minus(a), _minus(b), _minus(b)), (a, b, b), (g, d, d)))
    raise UnknownFamily(family)  # pragma: no cover


def _minus(x, y: int = 0):
    """y - x; a Fraction x is built from its int pair, so no Fraction arithmetic runs."""
    if type(x) is Fraction:
        return Fraction(y * x.denominator - x.numerator, x.denominator)
    return y - x if y else -x


def from_raw(c, mode: Mode) -> StructureConstants:
    """Build structure constants from a raw 3x3x3 array c[i][j][k] = c^k_ij.

    Rejects entries with c^k_ij != -c^k_ji beyond tolerance, then stores
    the brackets of the antisymmetrized table, (c^k_ij - c^k_ji) / 2 for
    i < j: Fractions in exact mode, a float entry read as its dyadic
    rational, and floats in approx mode.  The Jacobi identity is
    deliberately not enforced here.
    """
    number = Fraction if mode.is_exact else float
    table = [[[number(as_scalar(c[i][j][k])) for k in range(3)] for j in range(3)]
             for i in range(3)]
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                if not mode.is_zero(table[i][j][k] + table[j][i][k]):
                    raise AntisymmetryViolation(i + 1, j + 1, k + 1)
    return StructureConstants(tuple(
        tuple((table[i][j][k] - table[j][i][k]) / 2 for k in range(3))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ))


def _jacobi_base(c) -> Vector:
    """Coefficients of [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] in the table c."""
    out = [0, 0, 0]
    for first, second, third in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pair = c[first][second]
        for m in range(3):
            coeff = pair[m]
            if coeff:
                inner = c[m][third]
                for l in range(3):
                    if inner[l]:
                        out[l] = out[l] + coeff * inner[l]
    return tuple(out)


def jacobi_ok(sc: StructureConstants, mode: Mode) -> bool:
    """Whether the Jacobi vector vanishes in `mode`; exact mode reads the table as Fractions."""
    if mode.is_exact:
        sc = StructureConstants(tuple(tuple(map(Fraction, bracket)) for bracket in sc.brackets))
    return all(mode.is_zero(x) for x in _jacobi_base(sc.c))


def unimodular(sc: StructureConstants, mode: Mode) -> bool:
    """True iff trace(ad_{e_i}) = 0 for i = 1, 2, 3, summed left to right."""
    return all(mode.is_zero(plane[0][0] + plane[1][1] + plane[2][2]) for plane in sc.c)
