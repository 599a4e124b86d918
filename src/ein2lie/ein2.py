"""The Ein(2) condition as a linear system in (lambda1, lambda2).

A metric Lie algebra is Ein(2) when rho^2 + lambda1*rho + lambda2*g = 0
for scalars lambda1, lambda2.  Componentwise on the frame that is one
equation per index pair 1 <= i <= j <= 3:

    g(rho0 e_i, rho0 e_j) + lambda1 * g(rho0 e_i, e_j) + lambda2 * C_ij = 0

with two readings of the constant coefficient C_ij:

  * "delta"  convention: C_ij = delta_ij (so +1 on every diagonal row) —
    the form the tabulated per-family systems use;
  * "metric" convention: C_ij = g(e_i, e_j) = eps_i delta_ij (so -1 on
    the (3,3) row) — the operator identity
    (rho0)^2 + lambda1 rho0 + lambda2 Id = 0.

The two differ only in row (3,3).  "delta" is the default; matching the
tabulated systems fixes that choice, and whenever lambda2 = 0 the two
conventions agree.

`solve_lambdas` computes the affine solution set exactly (rational
elimination) or with tolerance-based pivoting for float inputs.  For
unsolvable systems the reported residual is the minimal achievable
sup-norm over all (lambda1, lambda2).  It is read off the dual of that
Chebyshev problem in closed form: the largest |sum w_r a_r| / sum |w_r|
over the references of at most three rows (cofactor triples, parallel
pairs, rows with b = c = 0), on integers after scaling exact rows by
the lcm of their denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .geometry import RicciData, ricci
from .liealg import EPS, FamilyParams, StructureConstants, build_family
from .scalars import Mode, Scalar

DELTA = "delta"
METRIC = "metric"
CONVENTIONS = (DELTA, METRIC)

NONE = "none"
POINT = "point"
LINE = "line"
PLANE = "plane"

PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class Ein2Row:
    """One component equation a + lambda1*b + lambda2*c = 0 at pair (i, j)."""

    i: int
    j: int
    a: Scalar
    b: Scalar
    c: Scalar


@dataclass(frozen=True)
class Ein2System:
    rows: Tuple[Ein2Row, ...]
    convention: str

    def residual_at(self, lam1: Scalar, lam2: Scalar) -> Scalar:
        """Sup-norm of the six component equations at a candidate pair."""
        return _sup_residual(tuple((r.a, r.b, r.c) for r in self.rows), lam1, lam2)

    def values(self):
        for row in self.rows:
            yield row.a
            yield row.b
            yield row.c


def build_system(rd: RicciData, convention: str = DELTA) -> Ein2System:
    """Assemble the six component equations from Ricci data."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    rows = []
    for i, j in PAIRS:
        if i == j:
            c = Fraction(EPS[i]) if convention == METRIC else Fraction(1)
        else:
            c = Fraction(0)
        rows.append(Ein2Row(i=i, j=j, a=rd.rho_sq[i][j], b=rd.rho[i][j], c=c))
    return Ein2System(rows=tuple(rows), convention=convention)


class Ein2Solution:
    """Affine solution set of the component system.

    kind is one of "none", "point", "line", "plane".  A point carries
    (lambda1, lambda2); a line carries a base point and a direction with
    the direction scaled so its first nonzero entry is +1.  `residual`
    is the sup-norm of the system at the solution (zero/tolerance-small
    when solvable) or, for kind "none", the minimal achievable sup-norm,
    computed lazily by `_min_sup_residual` from the dual formula over row
    references (on integers for exact rows, see its docstring).
    """

    def __init__(self, kind, rows, mode, point=None, line_base=None, line_direction=None):
        self.kind = kind
        self.mode = mode
        self.point = point
        self.line_base = line_base
        self.line_direction = line_direction
        self._rows = rows
        self._residual = None

    @property
    def residual(self) -> Scalar:
        if self._residual is None:
            if self.kind == POINT:
                self._residual = _sup_residual(self._rows, *self.point)
            elif self.kind == LINE:
                self._residual = _sup_residual(self._rows, *self.line_base)
            elif self.kind == PLANE:
                self._residual = max(abs(r[0]) for r in self._rows)
            else:
                self._residual = _min_sup_residual(self._rows, self.mode)
        return self._residual

    def is_ein2(self) -> bool:
        return self.kind != NONE

    def residual_of(self, lam1: Scalar, lam2: Scalar) -> Scalar:
        """Sup-norm of the underlying system at an arbitrary candidate pair."""
        return _sup_residual(self._rows, lam1, lam2)

    def contains(self, lam1: Scalar, lam2: Scalar) -> bool:
        """Membership of a candidate pair in the solution set."""
        if self.kind == NONE:
            return False
        return self.mode.is_zero(_sup_residual(self._rows, lam1, lam2))

    def lambda2_zero_line(self) -> bool:
        """True when the solution set is exactly {lambda2 = 0, lambda1 free}."""
        if self.kind != LINE:
            return False
        d1, d2 = self.line_direction
        return (
            self.mode.is_zero(d2)
            and self.mode.is_nonzero(d1)
            and self.mode.is_zero(self.line_base[1])
        )

    def __repr__(self):
        if self.kind == POINT:
            return f"Ein2Solution(point, lambda1={self.point[0]}, lambda2={self.point[1]})"
        if self.kind == LINE:
            return f"Ein2Solution(line, base={self.line_base}, direction={self.line_direction})"
        return f"Ein2Solution({self.kind})"


def _sup_residual(rows, lam1, lam2):
    return max(abs(a + lam1 * b + lam2 * c) for a, b, c in rows)


def _min_sup_residual(rows, mode):
    """Minimal achievable sup-norm min_{lambda} max_r |a + lambda1 b + lambda2 c|.

    By Chebyshev duality this equals the largest |sum w_r a_r| / sum |w_r|
    over the nonzero w with sum w_r (b_r, c_r) = 0, and that maximum is
    reached on a reference of at most three rows: a triple with w its cofactors, a
    pair with parallel (b, c), or a row with b = c = 0.  Exact rows are
    first scaled to integers by the lcm L of their denominators, so
    candidates compare by cross-multiplication and one Fraction is built
    at the end; float rows run the same enumeration with L = 1 and
    tolerance-based degeneracy tests.
    """
    zero = mode.is_zero
    scale = 1
    if mode.is_exact:
        scale = lcm(*(x.denominator for row in rows for x in row))
        rows = [tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows]
    a = [row[0] for row in rows]
    cross = {
        (i, j): rows[i][1] * rows[j][2] - rows[j][1] * rows[i][2]
        for i, j in combinations(range(len(rows)), 2)
    }
    # Each candidate is (|sum w_r a_r|, sum |w_r|) for one reference w.
    candidates = [(abs(a[r]), 1) for r, (_, b, c) in enumerate(rows) if zero(b) and zero(c)]
    for (i, j), det in cross.items():
        if zero(det):
            (_, bi, ci), (_, bj, cj) = rows[i], rows[j]
            wi, wj = (cj, -ci) if zero(bi) and zero(bj) else (bj, -bi)
            if not (zero(wi) and zero(wj)):
                candidates.append((abs(wi * a[i] + wj * a[j]), abs(wi) + abs(wj)))
    for i, j, k in combinations(range(len(rows)), 3):
        wi, wj, wk = cross[j, k], -cross[i, k], cross[i, j]
        if not (zero(wi) and zero(wj) and zero(wk)):
            candidates.append(
                (abs(wi * a[i] + wj * a[j] + wk * a[k]), abs(wi) + abs(wj) + abs(wk))
            )
    best_num, best_den = 0, 1
    for num, den in candidates:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    if mode.is_exact:
        return Fraction(best_num, best_den * scale)
    return best_num / best_den


def _canonical_direction(d1, d2, mode):
    for lead in (d1, d2):
        if not mode.is_zero(lead):
            return (d1 / abs(lead), d2 / abs(lead))
    return (d1, d2)


def solve_lambdas(sys: Ein2System, mode: Optional[Mode] = None) -> Ein2Solution:
    """Affine solution set of {b*lambda1 + c*lambda2 = -a} over six rows.

    Exact mode uses rational elimination with exact rank decisions;
    approx mode pivots on the largest entries, thresholds at the mode
    tolerance, and refines point solutions by least squares over all
    rows.  kind reflects the solution-set dimension.
    """
    if mode is None:
        mode = Mode.for_values(sys.values())
    rows = tuple((row.a, row.b, row.c) for row in sys.rows)

    def zero(x):
        return mode.is_zero(x)

    # Pivot 1: the coefficient with the largest magnitude.
    pivot = None
    pivot_size = None
    for r, (a, b, c) in enumerate(rows):
        for col, coef in ((0, b), (1, c)):
            if not zero(coef) and (pivot_size is None or abs(coef) > pivot_size):
                pivot = (r, col)
                pivot_size = abs(coef)
    if pivot is None:
        if all(zero(a) for a, _, _ in rows):
            return Ein2Solution(PLANE, rows, mode)
        return Ein2Solution(NONE, rows, mode)

    pr, pc = pivot
    pa, pb, pcoef = rows[pr]
    pvec = (pb, pcoef)
    other_col = 1 - pc

    # Eliminate the pivot column from the other rows.
    reduced = []
    for r, (a, b, c) in enumerate(rows):
        if r == pr:
            continue
        vec = (b, c)
        factor = vec[pc] / pvec[pc]
        reduced.append((a - factor * pa, vec[other_col] - factor * pvec[other_col]))

    pivot2 = None
    pivot2_size = None
    for idx, (_, coef) in enumerate(reduced):
        if not zero(coef) and (pivot2_size is None or abs(coef) > pivot2_size):
            pivot2 = idx
            pivot2_size = abs(coef)

    if pivot2 is not None:
        a2, k2 = reduced[pivot2]
        other_value = -a2 / k2
        pivot_value = (-pa - pvec[other_col] * other_value) / pvec[pc]
        lam = [None, None]
        lam[pc] = pivot_value
        lam[other_col] = other_value
        lam1, lam2 = lam
        if not mode.is_exact:
            refined = _least_squares(rows)
            if refined is not None:
                lam1, lam2 = refined
        if zero(_sup_residual(rows, lam1, lam2)):
            return Ein2Solution(POINT, rows, mode, point=(lam1, lam2))
        return Ein2Solution(NONE, rows, mode)

    # Rank one: consistent iff every reduced row vanished.
    if any(not zero(a) for a, _ in reduced):
        return Ein2Solution(NONE, rows, mode)
    base = [Fraction(0), Fraction(0)]
    base[pc] = -pa / pvec[pc]
    direction = _canonical_direction(-pvec[1], pvec[0], mode)
    if direction[0] < 0 or (zero(direction[0]) and direction[1] < 0):
        direction = (-direction[0], -direction[1])
    return Ein2Solution(LINE, rows, mode, line_base=tuple(base), line_direction=direction)


def _least_squares(rows):
    """Normal-equation least squares for the float path."""
    s11 = sum(b * b for _, b, _ in rows)
    s12 = sum(b * c for _, b, c in rows)
    s22 = sum(c * c for _, _, c in rows)
    t1 = -sum(b * a for a, b, _ in rows)
    t2 = -sum(c * a for a, _, c in rows)
    det = s11 * s22 - s12 * s12
    if det == 0:
        return None
    return ((t1 * s22 - t2 * s12) / det, (s11 * t2 - s12 * t1) / det)


def is_ein2(
    sc: StructureConstants, convention: str = DELTA, mode: Optional[Mode] = None
) -> Ein2Solution:
    """Decide the Ein(2) condition: compose ricci, build_system, solve_lambdas."""
    if mode is None:
        mode = Mode.for_values(sc.values())
    rd = ricci(sc, mode)
    system = build_system(rd, convention)
    return solve_lambdas(system, mode)


# ---------------------------------------------------------------------------
# Tabulated per-family component systems (delta convention)
# ---------------------------------------------------------------------------
#
# Each entry lists the nonzero component equations of the family's
# Ein(2) system exactly as tabulated, as (A, B, C) triples for
# A + lambda1*B + lambda2*C = 0.  Rows may differ from build_system
# output by an overall sign and by ordering; never by more.

_H = Fraction(1, 2)
_Q = Fraction(1, 4)


def _printed_g1(p: FamilyParams):
    a, b = p.alpha, p.beta
    return [
        (_Q * b**4, -_H * b**2, 1),
        (3 * a**2 * b**2 + _Q * b**4, -(2 * a**2 + _H * b**2), 1),
        (3 * a**2 * b**2 - _Q * b**4, -2 * a**2 + _H * b**2, 1),
        (a * b * b**2, -a * b, 0),
        (3 * a**2 * b**2, -2 * a**2, 0),
    ]


def _printed_g2(p: FamilyParams):
    a, b, g = p.alpha, p.beta, p.gamma
    m1 = _H * a**2 + 2 * g**2
    return [
        (m1**2, -m1, 1),
        ((_Q * a**2 - g**2) * (a - 2 * b) ** 2, _H * a**2 - a * b, 1),
        ((g**2 - _Q * a**2) * (a - 2 * b) ** 2, a * b - _H * a**2, 1),
        ((a**2 - 2 * a * b) * (2 * b * g - a * g), 2 * b * g - a * g, 0),
    ]


def _printed_g3(p: FamilyParams):
    a, b, g = p.alpha, p.beta, p.gamma
    q1 = _H * a**2 - _H * (b - g) ** 2
    q2 = _H * b**2 - _H * (a - g) ** 2
    q3 = _H * g**2 - _H * (a - b) ** 2
    return [
        (q1**2, -q1, 1),
        (q2**2, -q2, 1),
        (q3**2, -q3, -1),
    ]


def _printed_g4(p: FamilyParams):
    a, b, eta = p.alpha, p.beta, p.eta
    m2 = _H * a**2 + 2 * eta * (a - b) - a * b + 2
    m3 = _H * a**2 - a * b - 2 + 2 * eta * b
    dd = a - 2 * b + 2 * eta
    return [
        (_Q * a**4, -_H * a**2, 1),
        (m2**2 - dd**2, m2, 1),
        (m3**2 - dd**2, m3, -1),
        (a * dd**2, dd, 0),
    ]


def _printed_g5(p: FamilyParams):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    p1 = a**2 + a * d + _H * (b**2 - g**2)
    p2 = a * d + d**2 - _H * (b**2 - g**2)
    p3 = a**2 + d**2 + _H * (b + g) ** 2
    return [
        (p1**2, p1, 1),
        (p2**2, p2, 1),
        (p3**2, p3, -1),
    ]


def _printed_g6(p: FamilyParams):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    u = a**2 + d**2 - _H * (b - g) ** 2
    v = a**2 + a * d - _H * (b**2 - g**2)
    w = d**2 + a * d + _H * (b**2 - g**2)
    return [
        (u**2, -u, 1),
        (v**2, -v, 1),
        (-(w**2), w, 1),
    ]


def _printed_g7(p: FamilyParams):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    s = a**2 - a * d + b * g
    return [
        (_Q * g**4, -_H * g**2, 1),
        ((_H * g**2 - s) ** 2 - s**2, _H * g**2 - s, 1),
        ((s + _H * g**2) ** 2 - s**2, s + _H * g**2, -1),
        (s * g**2, s, 0),
    ]


PRINTED_SYSTEMS: Dict[str, Callable[[FamilyParams], List[Tuple[Scalar, Scalar, Scalar]]]] = {
    "G1": _printed_g1,
    "G2": _printed_g2,
    "G3": _printed_g3,
    "G4": _printed_g4,
    "G5": _printed_g5,
    "G6": _printed_g6,
    "G7": _printed_g7,
}


def _canonical_rows(triples: Sequence[Tuple[Scalar, Scalar, Scalar]], mode: Mode):
    """Drop zero rows and fix each row's sign by its leading nonzero entry."""
    canonical = []
    for triple in triples:
        lead = next((x for x in triple if not mode.is_zero(x)), None)
        if lead is None:
            continue
        if lead < 0:
            triple = tuple(-x for x in triple)
        canonical.append(tuple(triple))
    return canonical


def _rows_match(left, right, mode: Mode) -> bool:
    if mode.is_exact:
        return set(left) == set(right)
    # Tolerance-based comparison of deduplicated row sets.
    def close(u, v):
        return all(mode.is_zero(x - y) for x, y in zip(u, v))

    def dedup(rows):
        unique = []
        for row in rows:
            if not any(close(row, seen) for seen in unique):
                unique.append(row)
        return unique

    left, right = dedup(left), dedup(right)
    if len(left) != len(right):
        return False
    remaining = list(right)
    for row in left:
        for idx, other in enumerate(remaining):
            if close(row, other):
                del remaining[idx]
                break
        else:
            return False
    return True


def match_printed_system(params: FamilyParams, mode: Optional[Mode] = None) -> bool:
    """Compare the computed component system against the tabulated one.

    The computed system (delta convention, zero rows dropped) must equal
    the family's tabulated equations up to row sign and ordering.
    """
    if mode is None:
        mode = params.mode()
    sc = build_family(params, mode)
    rd = ricci(sc, mode)
    system = build_system(rd, DELTA)
    computed = _canonical_rows([(r.a, r.b, r.c) for r in system.rows], mode)
    printed = _canonical_rows(PRINTED_SYSTEMS[params.family](params), mode)
    return _rows_match(computed, printed, mode)
