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

`_rows` states the six rows once, as ints straight from the integer
Ricci contraction for exact data.  `solve` solves them for one
`RicciData` and keeps them as `Ein2Solution.rows`, which derive prints;
`is_ein2` is `solve` on the Ricci data of a table, and
`match_printed_system` compares the same rows with the tabulated
systems, so the fidelity check reads the rows every verdict is decided
on.  The tabulated systems are formula texts (`PRINTED_SYSTEMS`),
compiled by the compiler of every other formula of the package and run
by its one plan runner (`liealg._execute`).  Fidelity is exact: each
text's plan runs once per point on int pairs, a float parameter read as
its dyadic rational, and an exact int division puts its entries on the
scale of `_rows`; the two sides compare as sets of sign-canonical int
rows (`_canonical`).  `_solve`
computes the affine solution set from 2x2 minors, in plain int loops for
exact rows and with tolerance tests for float ones.  For unsolvable systems
the reported residual is the minimal achievable sup-norm over all
(lambda1, lambda2).  It is read off the dual of that Chebyshev problem
in closed form: the largest |sum w_r a_r| / sum |w_r| over the
references of at most three rows (cofactor triples, parallel pairs,
rows with b = c = 0), on integers for exact rows.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .geometry import RicciData, ricci
from .liealg import EPS, FamilyParams, StructureConstants, _execute, _formula, _pairs, build_family
from .scalars import Mode, Scalar

DELTA = "delta"
METRIC = "metric"
CONVENTIONS = (DELTA, METRIC)

NONE = "none"
POINT = "point"
LINE = "line"
PLANE = "plane"

PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

_EXACT = Mode.exact()


def _constants(convention: str) -> tuple[int, ...]:
    """The constant column c on PAIRS, as plain ints."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    return (1, 0, 0, 1, 0, EPS[2] if convention == METRIC else 1)


class Ein2Solution:
    """Affine solution set of the component system.

    kind is one of "none", "point", "line", "plane".  A point carries
    (lambda1, lambda2); a line carries a base point and a direction with
    the direction scaled so its first nonzero entry is +1.  `residual`
    is the sup-norm of the system at the solution (zero/tolerance-small
    when solvable) or, for kind "none", the minimal achievable sup-norm,
    computed lazily by `_min_sup_residual` from the dual formula over row
    references (on integers for exact rows, see its docstring).  `rows`
    are the six (a, b, c) on PAIRS it was solved from; it keeps them as
    scale * (a, b, c), ints in exact mode, and builds their Fractions
    only when a report reads them: exact residuals and membership read
    the ints by cross-multiplication and build one Fraction at the end.
    """

    def __init__(self, kind, rows, mode, scale=1, point=None, line_base=None, line_direction=None):
        self.kind = kind
        self.mode = mode
        self.point = point
        self.line_base = line_base
        self.line_direction = line_direction
        self._rows = rows
        self._scale = scale

    @cached_property
    def rows(self) -> tuple[tuple[Scalar, Scalar, Scalar], ...]:
        if not self.mode.is_exact:
            return self._rows
        return tuple(tuple(Fraction(x, self._scale) for x in row) for row in self._rows)

    @cached_property
    def residual(self) -> Scalar:
        if self.kind == POINT:
            return self.residual_of(*self.point)
        if self.kind == LINE:
            return self.residual_of(*self.line_base)
        if self.kind == PLANE:
            return self.residual_of(0, 0)
        return _min_sup_residual(self._rows, self._scale, self.mode)

    def is_ein2(self) -> bool:
        return self.kind != NONE

    def residual_of(self, lam1: Scalar, lam2: Scalar) -> Scalar:
        """Sup-norm of the system at a candidate pair; in exact mode, of the ints
        a q1 q2 + p1 q2 b + p2 q1 c at lambda_i = p_i/q_i, a float as its dyadic rational."""
        if not self.mode.is_exact:
            return _sup_residual(self.rows, lam1, lam2)
        (p1, q1), (p2, q2) = lam1.as_integer_ratio(), lam2.as_integer_ratio()
        q, u, v = q1 * q2, p1 * q2, p2 * q1
        return Fraction(max(abs(a * q + u * b + v * c) for a, b, c in self._rows), q * self._scale)

    def contains(self, lam1: Scalar, lam2: Scalar) -> bool:
        """Membership of a candidate pair in the solution set."""
        if self.kind == NONE:
            return False
        if self.kind == POINT and self.mode.is_exact:
            return (lam1, lam2) == self.point
        return self.mode.is_zero(self.residual_of(lam1, lam2))

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


def _min_sup_residual(rows, scale, mode):
    """Minimal achievable sup-norm min_{lambda} max_r |a + lambda1 b + lambda2 c|.

    By Chebyshev duality this equals the largest |sum w_r a_r| / sum |w_r|
    over the nonzero w with sum w_r (b_r, c_r) = 0, and that maximum is
    reached on a reference of at most three rows: a triple with w its
    cofactors, a pair with parallel (b, c), or a row with b = c = 0.
    Exact rows arrive as the ints scale * (a, b, c), so candidates
    compare by cross-multiplication and one Fraction is built at the
    end; float rows run the same enumeration with scale 1 and
    tolerance-based degeneracy tests.
    """
    zero = mode.is_zero
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


def _solve(rows, scale, mode: Mode) -> Ein2Solution:
    """Affine solution set of the rows scale * (a, b, c), decided by 2x2 minors.

    The pivot is the largest |b| or |c|, and the second row the one whose
    minor b_p c - b c_p against the pivot row is largest, each the first on
    ties.  Exact rows have int minors, tested in plain loops; float ones
    read as minor / pivot against the tolerance, and a point is refined by
    least squares.
    """
    exact, zero = mode.is_exact, mode.is_zero
    entries = [abs(x) for _, b, c in rows for x in (b, c)]
    entry = max(range(len(entries)), key=entries.__getitem__, default=None)
    if entry is None or entries[entry] <= mode.tolerance:
        kind = PLANE if all(zero(row[0]) for row in rows) else NONE
        return Ein2Solution(kind, rows, mode, scale)
    p, col = entry // 2, entry % 2 + 1
    prow = pa, pb, pc = rows[p]
    pivot = prow[col]
    minors = [pb * c - b * pc for _, b, c in rows]
    sizes = [abs(u) for u in minors] if exact else [0 if zero(u / pivot) else abs(u) for u in minors]
    q = max(range(len(rows)), key=sizes.__getitem__)
    if sizes[q]:
        qa, qb, qc = rows[q]
        det, num1, num2 = minors[q], qa * pc - pa * qc, pa * qb - qa * pb
        if exact:
            if any(a * det + num1 * b + num2 * c for a, b, c in rows):
                return Ein2Solution(NONE, rows, mode, scale)
            point = (Fraction(num1, det), Fraction(num2, det))
        else:
            point = _unsigned(_least_squares(rows) or (num1 / det, num2 / det))
            if not zero(_sup_residual(rows, *point)):
                return Ein2Solution(NONE, rows, mode, scale)
        return Ein2Solution(POINT, rows, mode, scale, point=point)

    # Rank one: consistent iff every row's constant reduces to zero.
    reduced = [pivot * row[0] - row[col] * pa for row in rows]
    if any(reduced) if exact else not all(zero(u / pivot) for u in reduced):
        return Ein2Solution(NONE, rows, mode, scale)
    divide = Fraction if exact else operator.truediv
    base = [divide(0, 1), divide(0, 1)]
    base[col - 1] = divide(-pa, pivot)
    # the direction (-c, b) with first nonzero entry +1, the sign folded into its divisor
    lead = abs(pb if zero(pc) else pc)
    d1, d2 = divide(-pc, lead), divide(pb, lead)
    if d1 < 0 or (zero(d1) and d2 < 0):
        lead = -lead
    direction = (divide(-pc, lead), divide(pb, lead))
    if not exact:
        base, direction = _unsigned(base), _unsigned(direction)
    return Ein2Solution(LINE, rows, mode, scale, line_base=tuple(base), line_direction=direction)


def _unsigned(values) -> tuple:
    """The values with a float -0.0 read as 0.0; adding int 0 moves no other value."""
    return tuple(x + 0 for x in values)


def _least_squares(rows):
    """Normal-equation least squares, summed left to right.

    Builtin `sum` compensates float rounding from Python 3.12 on; the
    plain order gives the same bits on every supported version.
    """
    s11 = s12 = s22 = t1 = t2 = 0
    for a, b, c in rows:
        s11, s12, s22, t1, t2 = s11 + b * b, s12 + b * c, s22 + c * c, t1 + b * a, t2 + c * a
    t1, t2 = -t1, -t2
    det = s11 * s22 - s12 * s12
    if det == 0:
        return None
    return ((t1 * s22 - t2 * s12) / det, (s11 * t2 - s12 * t1) / det)


def _rows(rd: RicciData, convention: str, mode: Mode):
    """The six rows scale * (a, b, c) on PAIRS, and their scale.

    Exact rows are the ints (S_ij, 4 L^2 N_ij, 16 L^4 c_ij) at scale
    16 L^4, S = `RicciData.squares()`, so no Ricci Fraction is built;
    float rows are (S_ij / (16 L^4), N_ij / (4 L^2), c_ij) at scale 1.
    A float table has L = 1, so its rows are the bits of (rho_sq, rho,
    c), both divisors being powers of two.
    """
    a, b = rd.squares(), rd.n
    pairs = zip(PAIRS, _constants(convention))
    unit = 4 * rd.scale**2
    scale = unit * unit
    if not mode.is_exact:
        return tuple((a[i][j] / scale, b[i][j] / unit, c) for (i, j), c in pairs), 1
    return tuple((a[i][j], unit * b[i][j], scale * c) for (i, j), c in pairs), scale


def solve(rd: RicciData, convention: str, mode: Mode) -> Ein2Solution:
    """The solution set of the six rows of `rd`: its `_rows`, `_solve`."""
    return _solve(*_rows(rd, convention, mode), mode)


def is_ein2(
    sc: StructureConstants, convention: str = DELTA, mode: Mode | None = None
) -> Ein2Solution:
    """Decide the Ein(2) condition: one `ricci` call, then `solve`."""
    if mode is None:
        mode = Mode.for_values(sc.values())
    return solve(ricci(sc, mode), convention, mode)


# ---------------------------------------------------------------------------
# Tabulated per-family component systems (delta convention)
# ---------------------------------------------------------------------------

#: Each family's Ein(2) component system as tabulated, one formula text
#: per family (`liealg._formula`): it binds helper names and, for each
#: nonzero equation A + lambda1*B + lambda2*C = 0, row i's (Ai, Bi, Ci).
#: The rows may differ from the nonzero rows of `_rows` by an overall
#: sign, by ordering and by repetition; never by more, which `_canonical`
#: alone decides.  Every entry is a polynomial of degree at most 4 that
#: divides by integer constants only, so 16 L^4 times it is an int.
PRINTED_SYSTEMS: dict[str, str] = {
    "G1": (
        "A1 = beta^4/4, B1 = -beta^2/2, C1 = 1, "
        "A2 = 3*alpha^2*beta^2 + beta^4/4, B2 = -(2*alpha^2 + beta^2/2), C2 = 1, "
        "A3 = 3*alpha^2*beta^2 - beta^4/4, B3 = -2*alpha^2 + beta^2/2, C3 = 1, "
        "A4 = alpha*beta^3, B4 = -alpha*beta, C4 = 0, "
        "A5 = 3*alpha^2*beta^2, B5 = -2*alpha^2, C5 = 0"
    ),
    "G2": (
        "m1 = alpha^2/2 + 2*gamma^2, "
        "A1 = m1^2, B1 = -m1, C1 = 1, "
        "A2 = (alpha^2/4 - gamma^2)*(alpha - 2*beta)^2, B2 = alpha^2/2 - alpha*beta, C2 = 1, "
        "A3 = (gamma^2 - alpha^2/4)*(alpha - 2*beta)^2, B3 = alpha*beta - alpha^2/2, C3 = 1, "
        "A4 = (alpha^2 - 2*alpha*beta)*(2*beta*gamma - alpha*gamma), "
        "B4 = 2*beta*gamma - alpha*gamma, C4 = 0"
    ),
    "G3": (
        "q1 = alpha^2/2 - (beta - gamma)^2/2, "
        "q2 = beta^2/2 - (alpha - gamma)^2/2, "
        "q3 = gamma^2/2 - (alpha - beta)^2/2, "
        "A1 = q1^2, B1 = -q1, C1 = 1, A2 = q2^2, B2 = -q2, C2 = 1, A3 = q3^2, B3 = -q3, C3 = -1"
    ),
    "G4": (
        "m2 = alpha^2/2 + 2*eta*(alpha - beta) - alpha*beta + 2, "
        "m3 = alpha^2/2 - alpha*beta - 2 + 2*eta*beta, "
        "dd = alpha - 2*beta + 2*eta, "
        "A1 = alpha^4/4, B1 = -alpha^2/2, C1 = 1, A2 = m2^2 - dd^2, B2 = m2, C2 = 1, "
        "A3 = m3^2 - dd^2, B3 = m3, C3 = -1, A4 = alpha*dd^2, B4 = dd, C4 = 0"
    ),
    "G5": (
        "p1 = alpha^2 + alpha*delta + (beta^2 - gamma^2)/2, "
        "p2 = alpha*delta + delta^2 - (beta^2 - gamma^2)/2, "
        "p3 = alpha^2 + delta^2 + (beta + gamma)^2/2, "
        "A1 = p1^2, B1 = p1, C1 = 1, A2 = p2^2, B2 = p2, C2 = 1, A3 = p3^2, B3 = p3, C3 = -1"
    ),
    "G6": (
        "u = alpha^2 + delta^2 - (beta - gamma)^2/2, "
        "v = alpha^2 + alpha*delta - (beta^2 - gamma^2)/2, "
        "w = delta^2 + alpha*delta + (beta^2 - gamma^2)/2, "
        "A1 = u^2, B1 = -u, C1 = 1, A2 = v^2, B2 = -v, C2 = 1, A3 = -w^2, B3 = w, C3 = 1"
    ),
    "G7": (
        "s = alpha^2 - alpha*delta + beta*gamma, "
        "A1 = gamma^4/4, B1 = -gamma^2/2, C1 = 1, "
        "A2 = (gamma^2/2 - s)^2 - s^2, B2 = gamma^2/2 - s, C2 = 1, "
        "A3 = (s + gamma^2/2)^2 - s^2, B3 = s + gamma^2/2, C3 = -1, "
        "A4 = s*gamma^2, B4 = s, C4 = 0"
    ),
}


def _printed_rows(params: FamilyParams, scale: int) -> list[tuple[int, ...]]:
    """The family's tabulated rows (A_i, B_i, C_i) at `params`: the ints 16 L^4 (A_i, B_i, C_i).

    L = `scale` is the `RicciData.scale` of the point, so they lie on the
    scale of `_rows`.  The plan of the family's text runs on int pairs
    (`liealg._pairs`, a float as its dyadic rational; `_execute`), and each
    entry n/d becomes 16 L^4 n / d by an exact int division, whose
    remainder raises and never floors.  Every parameter the family reads
    is a bracket, so L*p is an int, and every entry is of degree at most 4.
    """
    text, unit = PRINTED_SYSTEMS[params.family], 16 * scale**4
    values = _execute(_formula(text), _pairs(vars(params)), True)

    def entry(name):
        quotient, remainder = divmod(unit * values[name][0], values[name][1])
        if remainder:
            raise ArithmeticError(f"{name} = {Fraction(*values[name])} is no int on the scale 16 L^4 = {unit}")
        return quotient

    return [tuple(map(entry, (f"A{i}", f"B{i}", f"C{i}"))) for i in range(1, 7) if f"A{i}" in values]


def _canonical(rows) -> set:
    """The nonzero int rows, each signed so its first nonzero entry is positive.

    Two row lists hold the same rows up to sign, ordering and repetition
    exactly when these sets are equal.
    """
    signed = set()
    for row in rows:
        for x in row:
            if x:
                signed.add(tuple(row) if x > 0 else tuple(-y for y in row))
                break
    return signed


def match_printed_system(params: FamilyParams) -> bool:
    """Compare the rows `is_ein2` solves against the tabulated system, exactly.

    The rows of `_rows` (delta convention, exact mode, zero rows dropped)
    must equal the family's tabulated equations on the same scale
    (`_printed_rows`), up to row sign, ordering and repetition: both
    sides are ints, compared as sets of sign-canonical rows
    (`_canonical`), so neither builds a Fraction.  A float parameter
    reads as its dyadic rational, as everywhere in exact mode, so a float
    point that misses a family relation exactly raises ConstraintViolation.
    """
    rd = ricci(build_family(params, _EXACT), _EXACT)
    rows, _ = _rows(rd, DELTA, _EXACT)
    return _canonical(rows) == _canonical(_printed_rows(params, rd.scale))
