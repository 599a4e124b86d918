"""Three-dimensional metric Lie algebras in a fixed pseudo-orthonormal frame.

The frame {e1, e2, e3} is orthonormal for a Lorentzian metric of
signature (+, +, -): g(e_i, e_j) = eps_i * delta_ij with
eps = (1, 1, -1), so e3 is timelike.  The frame is frozen; no basis
change is supported anywhere in the package, and an algebra is fully
described by its structure constants c^k_ij where
[e_i, e_j] = sum_k c^k_ij e_k.

Seven parameterized families G1..G7 cover the classification this
package verifies.  G1-G4 are the unimodular ones, G5-G7 the
non-unimodular ones.  Each family carries the parameter constraints
listed in `FAMILY_CONSTRAINTS`; arbitrary tables enter through
`from_raw`, which enforces antisymmetry but deliberately not the
Jacobi identity, so that `jacobi_residual` stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .scalars import Mode, Scalar, as_scalar, is_exact

FAMILIES = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")
UNIMODULAR_FAMILIES = ("G1", "G2", "G3", "G4")

#: Which parameter fields each family actually reads.
PARAMS_USED = {
    "G1": ("alpha", "beta"),
    "G2": ("alpha", "beta", "gamma"),
    "G3": ("alpha", "beta", "gamma"),
    "G4": ("alpha", "beta", "eta"),
    "G5": ("alpha", "beta", "gamma", "delta"),
    "G6": ("alpha", "beta", "gamma", "delta"),
    "G7": ("alpha", "beta", "gamma", "delta"),
}


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


@dataclass(frozen=True)
class FrameMetric:
    """The fixed frame metric g(e_i, e_j) = eps_i * delta_ij, e3 timelike."""

    diagonal: Tuple[int, int, int] = (1, 1, -1)


FRAME = FrameMetric()
EPS = FRAME.diagonal

Vector = Tuple[Scalar, Scalar, Scalar]
ZERO_VECTOR: Vector = (Fraction(0), Fraction(0), Fraction(0))


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants c[i][j][k] = c^k_ij (e_k coefficient of [e_i, e_j]).

    Indices are 0-based internally; reports translate to the 1-based
    labels e1, e2, e3.  Antisymmetry in (i, j) is guaranteed by the
    constructors.
    """

    c: Tuple[Tuple[Vector, Vector, Vector], ...]

    def bracket(self, i: int, j: int) -> Vector:
        return self.c[i][j]

    def values(self):
        for plane in self.c:
            for row in plane:
                yield from row

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.values())


def _freeze(table) -> Tuple[Tuple[Vector, Vector, Vector], ...]:
    return tuple(tuple(tuple(as_scalar(x) for x in row) for row in plane) for plane in table)


def _from_brackets(b12: Sequence, b13: Sequence, b23: Sequence) -> StructureConstants:
    z = (0, 0, 0)
    neg = lambda v: tuple(-x for x in v)
    table = [
        [z, tuple(b12), tuple(b13)],
        [neg(b12), z, tuple(b23)],
        [neg(b13), neg(b23), z],
    ]
    return StructureConstants(_freeze(table))


@dataclass(frozen=True)
class FamilyParams:
    """A point in the parameter space of one family.

    Fields not listed in PARAMS_USED[family] are ignored; eta is only
    meaningful for G4 and must be +1 or -1 there.
    """

    family: str
    alpha: Scalar = Fraction(0)
    beta: Scalar = Fraction(0)
    gamma: Scalar = Fraction(0)
    delta: Scalar = Fraction(0)
    eta: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownFamily(self.family)
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if self.eta is not None and self.eta not in (1, -1):
            raise ConstraintViolation("eta = 1 or -1", f"got eta = {self.eta}")

    def used_values(self) -> Tuple[Scalar, ...]:
        return tuple(
            getattr(self, name) for name in PARAMS_USED[self.family] if name != "eta"
        )

    def mode(self, tolerance: float = 1e-9) -> Mode:
        return Mode.for_values(self.used_values(), tolerance)


FAMILY_CONSTRAINTS = {
    "G1": "alpha != 0",
    "G2": "gamma != 0",
    "G3": "none",
    "G4": "eta = 1 or -1",
    "G5": "alpha + delta != 0 and alpha*gamma + beta*delta = 0",
    "G6": "alpha + delta != 0 and alpha*gamma - beta*delta = 0",
    "G7": "alpha + delta != 0 and alpha*gamma = 0",
}


def validate_params(params: FamilyParams, mode: Optional[Mode] = None) -> None:
    """Check the family's parameter (in)equalities; raise ConstraintViolation.

    Equalities test exactly in exact mode and within tolerance in approx
    mode; strict inequalities read |expr| > tolerance in approx mode.
    """
    if mode is None:
        mode = params.mode()
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    family = params.family
    if family == "G1":
        if not mode.is_nonzero(a):
            raise ConstraintViolation("alpha != 0")
    elif family == "G2":
        if not mode.is_nonzero(g):
            raise ConstraintViolation("gamma != 0")
    elif family == "G3":
        pass
    elif family == "G4":
        if params.eta not in (1, -1):
            raise ConstraintViolation("eta = 1 or -1", f"got eta = {params.eta}")
    elif family == "G5":
        if not mode.is_nonzero(a + d):
            raise ConstraintViolation("alpha + delta != 0")
        if not mode.is_zero(a * g + b * d):
            raise ConstraintViolation(
                "alpha*gamma + beta*delta = 0",
                f"alpha*gamma + beta*delta = {a * g + b * d}",
            )
    elif family == "G6":
        if not mode.is_nonzero(a + d):
            raise ConstraintViolation("alpha + delta != 0")
        if not mode.is_zero(a * g - b * d):
            raise ConstraintViolation(
                "alpha*gamma - beta*delta = 0",
                f"alpha*gamma - beta*delta = {a * g - b * d}",
            )
    elif family == "G7":
        if not mode.is_nonzero(a + d):
            raise ConstraintViolation("alpha + delta != 0")
        if not mode.is_zero(a * g):
            raise ConstraintViolation("alpha*gamma = 0", f"alpha*gamma = {a * g}")
    else:  # pragma: no cover - guarded by FamilyParams
        raise UnknownFamily(family)


def build_family(params: FamilyParams, mode: Optional[Mode] = None) -> StructureConstants:
    """Construct the bracket table of the given family at a parameter point.

    All brackets not listed below are zero up to antisymmetry:

      G1: [e1,e2] = a e1 - b e3, [e1,e3] = -a e1 - b e2, [e2,e3] = b e1 + a e2 + a e3
      G2: [e1,e2] = g e2 - b e3, [e1,e3] = -b e2 - g e3, [e2,e3] = a e1
      G3: [e1,e2] = -g e3,       [e1,e3] = -b e2,        [e2,e3] = a e1
      G4: [e1,e2] = -e2 + (2*eta - b) e3, [e1,e3] = -b e2 + e3, [e2,e3] = a e1
      G5: [e1,e3] = a e1 + b e2, [e2,e3] = g e1 + d e2
      G6: [e1,e2] = a e2 + b e3, [e1,e3] = g e2 + d e3
      G7: [e1,e2] = -a e1 - b e2 - b e3, [e1,e3] = a e1 + b e2 + b e3,
          [e2,e3] = g e1 + d e2 + d e3
    """
    validate_params(params, mode)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    family = params.family
    if family == "G1":
        return _from_brackets((a, 0, -b), (-a, -b, 0), (b, a, a))
    if family == "G2":
        return _from_brackets((0, g, -b), (0, -b, -g), (a, 0, 0))
    if family == "G3":
        return _from_brackets((0, 0, -g), (0, -b, 0), (a, 0, 0))
    if family == "G4":
        eta = params.eta
        return _from_brackets((0, -1, 2 * eta - b), (0, -b, 1), (a, 0, 0))
    if family == "G5":
        return _from_brackets((0, 0, 0), (a, b, 0), (g, d, 0))
    if family == "G6":
        return _from_brackets((0, a, b), (0, g, d), (0, 0, 0))
    if family == "G7":
        return _from_brackets((-a, -b, -b), (a, b, b), (g, d, d))
    raise UnknownFamily(family)  # pragma: no cover


def from_raw(c, mode: Optional[Mode] = None) -> StructureConstants:
    """Build structure constants from a raw 3x3x3 array c[i][j][k] = c^k_ij.

    Rejects entries with c^k_ij != -c^k_ji beyond tolerance, then stores
    the antisymmetrized table (exact inputs are stored as given).  The
    Jacobi identity is deliberately not enforced here.
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
    sym = [
        [[(table[i][j][k] - table[j][i][k]) * half for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    return StructureConstants(_freeze(sym))


def _jacobi_base(sc: StructureConstants) -> Vector:
    """Coefficients of [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]."""
    c = sc.c
    out = [Fraction(0), Fraction(0), Fraction(0)]
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


_PERM_SIGN = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


def jacobi_residual(sc: StructureConstants):
    """Full cyclic-sum residual J[i][j][k] as coefficient triples.

    J(i,j,k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].
    The sum is alternating in (i,j,k), so in dimension three only the
    permutations of (1,2,3) can be nonzero; sc is a Lie algebra iff all
    entries vanish.
    """
    base = _jacobi_base(sc)
    neg = tuple(-x for x in base)
    residual = []
    for i in range(3):
        plane = []
        for j in range(3):
            row = []
            for k in range(3):
                sign = _PERM_SIGN.get((i, j, k), 0)
                row.append(base if sign == 1 else neg if sign == -1 else ZERO_VECTOR)
            plane.append(tuple(row))
        residual.append(tuple(plane))
    return tuple(residual)


def jacobi_ok(sc: StructureConstants, mode: Optional[Mode] = None) -> bool:
    if mode is None:
        mode = Mode.for_values(sc.values())
    return all(mode.is_zero(x) for x in _jacobi_base(sc))


def require_lie_algebra(sc: StructureConstants, mode: Optional[Mode] = None) -> None:
    if not jacobi_ok(sc, mode):
        raise NotLieAlgebra("Jacobi identity fails; residual is nonzero")


def unimodular(sc: StructureConstants, mode: Optional[Mode] = None) -> bool:
    """True iff trace(ad_{e_i}) = 0 for i = 1, 2, 3."""
    if mode is None:
        mode = Mode.for_values(sc.values())
    for i in range(3):
        trace = sum(sc.c[i][j][j] for j in range(3))
        if not mode.is_zero(trace):
            return False
    return True
