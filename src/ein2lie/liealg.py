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
compiler reads the package's formula texts, which bind names in turn
(`_formula`); `_evaluate` runs them.  A text that only binds
polynomials also compiles, on first use, to a homogenized integer plan,
which `_evaluate_integer` runs on ints.  Arbitrary tables enter through
`from_raw`, which enforces antisymmetry but deliberately not the Jacobi
identity: `jacobi_ok` decides it, and `geometry.ricci` raises
NotLieAlgebra where it fails.
"""

from __future__ import annotations

import ast
import functools
import operator
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Tuple

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

Vector = Tuple[Scalar, Scalar, Scalar]


class StructureConstants(_Value):
    """The brackets ([e1,e2], [e1,e3], [e2,e3]) of an algebra, each as its e_k coefficients.

    brackets[p][k] = c^k_ij for the p-th pair (i, j) of (0, 1), (0, 2),
    (1, 2); indices are 0-based internally, and reports translate to the
    1-based labels e1, e2, e3.  The full table c[i][j][k] = c^k_ij
    follows from the nine, with a zero diagonal and c^k_ji = -c^k_ij;
    `c` builds it on first read.
    """

    _fields = ("brackets",)

    def __init__(self, brackets: Tuple[Vector, Vector, Vector]):
        self.brackets = brackets

    @functools.cached_property
    def c(self) -> Tuple[Tuple[Vector, Vector, Vector], ...]:
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

    def __init__(self, family: str, alpha=0, beta=0, gamma=0, delta=0, eta: Optional[int] = None):
        if family not in FAMILIES:
            raise UnknownFamily(family)
        self.family, self.alpha, self.beta = family, as_scalar(alpha), as_scalar(beta)
        self.gamma, self.delta = as_scalar(gamma), as_scalar(delta)
        if eta is not None and type(eta) is not int:
            raise TypeError(f"eta must be an int, got {eta!r}")
        if eta is not None and eta not in (1, -1):
            raise ConstraintViolation("eta = 1 or -1", f"got eta = {eta}")
        self.eta = eta

    def mode(self) -> Mode:
        """Exact unless a parameter the family reads is a float."""
        return Mode.for_values(
            getattr(self, name) for name in PARAMS_USED[self.family] if name != "eta"
        )


# ---------------------------------------------------------------------------
# Constraint clauses
# ---------------------------------------------------------------------------

_PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "eta")
_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


#: The degree of each parameter in a homogenized integer plan (`_term`).
_DEGREES = {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "eta": 0}
#: The key of the unit s in the values a homogenized plan reads: s stands
#: for the constant 1 of the text, and no name of a text can be "1".
_UNIT = "1"


def _term(
    node: ast.expr, degrees: Optional[Mapping[str, int]] = None
) -> Tuple[Callable[[Mapping[str, Scalar]], Scalar], frozenset, int]:
    """Compile one side of a relation to a function of the parameter values.

    Returns the function, the names it reads and its degree.  Integer
    constants stay ints, so a quotient's numerator must read a name:
    `alpha/2` is exact, `1/2` would be a float.

    Given the `degrees` of the names it may read, the function is the
    side's homogenized integer form instead, of the returned degree d:
    it reads each name as an int and the unit s as values[_UNIT], a sum
    lifts its lower-degree side by a power of s, a power takes an integer
    constant exponent, and a quotient divides by an integer constant
    only and exactly (`_exact_quotient`).  At the values X = s*p of the
    parameters p (eta as itself) it returns s^d times the side at p.
    Without `degrees` every degree reads 0.
    """
    homogeneous = degrees is not None
    if isinstance(node, ast.Name):
        degree = degrees[node.id] if homogeneous else 0
        return operator.itemgetter(node.id), frozenset((node.id,)), degree
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = node.value
        return (lambda values: value), frozenset(), 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand, names, degree = _term(node.operand, degrees)
        return (lambda values: -operand(values)), names, degree
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op = _OPERATORS[type(node.op)]
        left, left_names, left_degree = _term(node.left, degrees)
        right, right_names, right_degree = _term(node.right, degrees)
        degree = left_degree + right_degree
        if isinstance(node.op, (ast.Add, ast.Sub)):
            degree = max(left_degree, right_degree)
            left, right = _lift(left, degree - left_degree), _lift(right, degree - right_degree)
        elif isinstance(node.op, ast.Pow) and homogeneous:
            if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int):
                raise ValueError(f"{ast.unparse(node)!r} has no integer constant exponent")
            degree = left_degree * node.right.value
        elif isinstance(node.op, ast.Div) and homogeneous and right_names:
            raise ValueError(f"{ast.unparse(node)!r} divides by a name")
        elif isinstance(node.op, ast.Div) and homogeneous:
            op = _exact_quotient
        if left_names or not isinstance(node.op, ast.Div):
            names = left_names | right_names
            return (lambda values: op(left(values), right(values))), names, degree
    raise ValueError(f"unsupported term {ast.unparse(node)!r}")


def _lift(term, power: int):
    """The term times s^power, s the unit of a homogenized plan; the term itself for power 0."""
    if not power:
        return term
    return lambda values: term(values) * values[_UNIT] ** power


def _exact_quotient(numerator: int, denominator: int) -> int:
    """numerator / denominator, which must be an int: a remainder raises and never floors."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} / {denominator} is not an integer")
    return quotient


def _factors(node: ast.expr) -> list:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


class _Relation:
    """One link `left = right` or `left != right` of a constraint clause.

    Sides read the parameters from a mapping of names to values, such as
    vars(params).  `bare[i]` is side i's name if it is a bare parameter,
    `squared[i]` its name if it is a bare parameter squared (`gamma^2`),
    `names[i]` the parameters it reads.  The relation is link `index` of
    its clause.
    """

    def __init__(self, clause: str, index: int, equal: bool, left: ast.expr, right: ast.expr):
        self.clause, self.index, self.equal = clause, index, equal
        self.bare = tuple(getattr(side, "id", None) for side in (left, right))
        self.squared = tuple(
            getattr(side.left, "id", None)
            if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Pow)
            and getattr(side.right, "value", None) == 2 else None
            for side in (left, right)
        )
        (first, left_names, _), (second, right_names, _) = _term(left), _term(right)
        self.sides, self.names = (first, second), (left_names, right_names)
        if not (isinstance(right, ast.Constant) and right.value == 0):
            self.terms = (lambda values: first(values) - second(values),)
        elif equal or len(_factors(left)) == 1:
            self.terms = (first,)
        else:
            # A product compared != 0 reads factor by factor: the same test
            # in exact mode, while in approx mode each factor must clear
            # the tolerance, not their far smaller product.
            self.terms = tuple(_term(factor)[0] for factor in _factors(left))

    def holds(self, values: Mapping[str, Scalar], mode: Mode) -> bool:
        test = mode.is_zero if self.equal else mode.is_nonzero
        for term in self.terms:
            if not test(term(values)):
                return False
        return True


def _compile_clauses(
    text: str, names: Optional[Sequence[str]] = _PARAM_NAMES
) -> Tuple[_Relation, ...]:
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
# branches share them and each clause is compiled once.
@functools.lru_cache(maxsize=None)
def _compile_clause(clause: str) -> Tuple[_Relation, ...]:
    ops, sides = _parse_clause(clause)
    return tuple(
        _Relation(clause, index, isinstance(op, ast.Eq), left, right)
        for index, (op, left, right) in enumerate(zip(ops, sides, sides[1:]))
    )


def _parse_clause(clause: str) -> Tuple[list, list]:
    """The comparison operators of a clause and the syntax trees of its sides."""
    tree = ast.parse(clause.replace("^", "**").replace(" = ", " == "), mode="eval").body
    if not isinstance(tree, ast.Compare) or not all(
        isinstance(op, (ast.Eq, ast.NotEq)) for op in tree.ops
    ):
        raise ValueError(f"constraint {clause!r} is not a chain of = and !=")
    return tree.ops, [tree.left, *tree.comparators]


def _next_step(pending, bound, free, mode: Optional[Mode], degrees=None):
    """Take the first pending relation that the `bound` names decide; return its step.

    An equality binds a bare name, or the square root of a squared one,
    only if that name is neither bound nor free: ("set", name, the other
    side) or ("root", name, the relation).  Any other decided relation is
    a check, ("check", mode, relation).  Given the `degrees` of the bound
    names, a "set" step carries the other side's homogenized integer form
    (`_term`) and enters the name's degree into `degrees`.
    """
    for relation in pending:
        for side in (0, 1) if relation.equal else ():
            name = relation.bare[side] or relation.squared[side]
            if name not in bound | free | {None} and relation.names[1 - side] <= bound:
                pending.remove(relation)
                bound.add(name)
                if relation.bare[side] and degrees is not None:
                    # parsed again: the cached relations keep no syntax tree
                    node = _parse_clause(relation.clause)[1][relation.index + 1 - side]
                    term, _, degrees[name] = _term(node, degrees)
                    return "set", name, term
                if relation.bare[side]:
                    return "set", name, relation.sides[1 - side]
                return "root", name, relation
        if relation.names[0] | relation.names[1] <= bound:
            pending.remove(relation)
            return "check", mode, relation
    return None


# Compiled on first use, once, so that importing the package compiles no formula.
@functools.lru_cache(maxsize=None)
def _formula(text: str, homogeneous: bool = False) -> tuple:
    """Compile a formula text to its plan of "set" and "check" steps (`_next_step`).

    The homogeneous plan, which `_evaluate_integer` runs, is of
    (name, term, degree) steps instead: each term is the homogenized
    integer form of the name's definition, whose degree the name takes.
    A text with a check has none.
    """
    degrees = dict(_DEGREES) if homogeneous else None
    # A homogeneous plan keeps only its integer terms, so the relations it
    # is read from stay out of the clause cache.
    compile_clause = _compile_clause.__wrapped__ if homogeneous else _compile_clause
    pending = [relation for clause in text.split(", ") for relation in compile_clause(clause)]
    plan, bound = [], set(_PARAM_NAMES)
    while (step := _next_step(pending, bound, set(), None, degrees)) is not None:
        plan.append(step)
    if pending or any(kind == "root" for kind, _, _ in plan):
        raise ValueError(f"formula {text!r} does not bind each name it reads by a bare equality")
    if not homogeneous:
        return tuple(plan)
    if any(kind == "check" for kind, _, _ in plan):
        raise ValueError(f"formula {text!r} has a check; a homogenized plan only binds")
    return tuple((name, term, degrees[name]) for _, name, term in plan)


def _evaluate(text: str, values: Mapping[str, Scalar], mode: Optional[Mode]) -> Optional[dict]:
    """The `values` and every name the formula text binds; None once one of its checks fails.

    The checks run in `mode`; a text without checks needs none.
    """
    values = dict(values)
    for kind, name, arg in _formula(text):
        if kind == "set":
            values[name] = arg(values)
        elif not arg.holds(values, mode):
            return None
    return values


def _evaluate_integer(text: str, values: Mapping[str, int], degree: int) -> dict:
    """Every name the formula text binds, as the int s^degree times its value at p.

    `values` holds the unit s under _UNIT and each parameter p the text
    reads as the int s*p, eta as itself.  The text runs as its
    homogenized plan (`_formula`), so a name of degree d comes out as
    s^d times its value at p; it is lifted by s^(degree - d), so no name
    may have a degree above `degree`.
    """
    values, lifted, unit = dict(values), {}, values[_UNIT]
    for name, term, own in _formula(text, homogeneous=True):
        values[name] = term(values)
        lifted[name] = values[name] * unit ** (degree - own)
    return lifted


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
def _family_relations(family: str) -> Tuple[_Relation, ...]:
    """The family's constraint relations, compiled on the family's first use."""
    return () if family in ("G3", "G4") else _compile_clauses(FAMILY_CONSTRAINTS[family])


def validate_params(params: FamilyParams, mode: Optional[Mode] = None) -> None:
    """Check the family's parameter (in)equalities; raise ConstraintViolation.

    Equalities test exactly in exact mode and within tolerance in approx
    mode; strict inequalities read |expr| > tolerance in approx mode.
    """
    if params.family == "G4" and params.eta not in (1, -1):
        raise ConstraintViolation("eta = 1 or -1", f"got eta = {params.eta}")
    if mode is None:
        mode = params.mode()
    values = vars(params)
    for relation in _family_relations(params.family):
        if not relation.holds(values, mode):
            # Family clauses are single relations; an equality shows its left side.
            left = relation.clause.partition(" = ")[0]
            detail = f"{left} = {relation.sides[0](values)}" if relation.equal else ""
            raise ConstraintViolation(relation.clause, detail)


def build_family(params: FamilyParams, mode: Optional[Mode] = None) -> StructureConstants:
    """Validate a parameter point, then construct its brackets (`family_table`)."""
    validate_params(params, mode)
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
        return StructureConstants(((a, 0, -b), (-a, -b, 0), (b, a, a)))
    if family == "G2":
        return StructureConstants(((0, g, -b), (0, -b, -g), (a, 0, 0)))
    if family == "G3":
        return StructureConstants(((0, 0, -g), (0, -b, 0), (a, 0, 0)))
    if family == "G4":
        eta = params.eta
        return StructureConstants(((0, -1, 2 * eta - b), (0, -b, 1), (a, 0, 0)))
    if family == "G5":
        return StructureConstants(((0, 0, 0), (a, b, 0), (g, d, 0)))
    if family == "G6":
        return StructureConstants(((0, a, b), (0, g, d), (0, 0, 0)))
    if family == "G7":
        return StructureConstants(((-a, -b, -b), (a, b, b), (g, d, d)))
    raise UnknownFamily(family)  # pragma: no cover


def from_raw(c, mode: Optional[Mode] = None) -> StructureConstants:
    """Build structure constants from a raw 3x3x3 array c[i][j][k] = c^k_ij.

    Rejects entries with c^k_ij != -c^k_ji beyond tolerance, then stores
    the brackets of the antisymmetrized table, (c^k_ij - c^k_ji) / 2 for
    i < j (exact inputs as given).  The Jacobi identity is deliberately
    not enforced here.
    """
    table = [[[as_scalar(c[i][j][k]) for k in range(3)] for j in range(3)] for i in range(3)]
    if mode is None:
        mode = Mode.for_values(x for plane in table for row in plane for x in row)
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                if not mode.is_zero(table[i][j][k] + table[j][i][k]):
                    raise AntisymmetryViolation(i + 1, j + 1, k + 1)
    half = Fraction(1, 2)
    return StructureConstants(tuple(
        tuple((table[i][j][k] - table[j][i][k]) * half for k in range(3))
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


def jacobi_ok(sc: StructureConstants, mode: Optional[Mode] = None) -> bool:
    if mode is None:
        mode = Mode.for_values(sc.values())
    return all(mode.is_zero(x) for x in _jacobi_base(sc.c))


def unimodular(sc: StructureConstants, mode: Optional[Mode] = None) -> bool:
    """True iff trace(ad_{e_i}) = 0 for i = 1, 2, 3, summed left to right."""
    if mode is None:
        mode = Mode.for_values(sc.values())
    return all(mode.is_zero(plane[0][0] + plane[1][1] + plane[2][2]) for plane in sc.c)
