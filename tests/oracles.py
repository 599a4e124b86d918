"""Independent oracles the production code is checked against.

Two kinds of oracle live here:

* Transcriptions: the classification's connection tables and Ricci
  operator matrices for G1..G7, entered directly as closed forms in the
  family parameters.  These are data, copied by hand, and deliberately
  share no code with the production Koszul/curvature path.

* Brute force: a from-first-principles Ricci computation built on
  explicit vector algebra (bilinear bracket extension, frame inner
  products, a Koszul right-hand side solved entry by entry), the full
  curvature tensor from a connection, in the index conventions of
  `ein2lie.geometry`, whose traced sum `geometry.ricci` follows, a
  minors-based affine solver for the component system, the pivoted
  row elimination the production solver used before its integer route,
  the minimal sup-norm residual by enumerating the vertices of the
  Chebyshev linear program, and the two-way row cover the fidelity check
  used before it compared sets of sign-canonical rows.  Same
  mathematics, different route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

F = Fraction
H = F(1, 2)

EPS = (1, 1, -1)
BASIS = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


# ---------------------------------------------------------------------------
# Connection tables: table[i][j] = coefficient triple of nabla_{e_{i+1}} e_{j+1}
# ---------------------------------------------------------------------------

def connection_g1(p):
    a, b = p.alpha, p.beta
    return (
        ((0, -a, -a), (a, 0, -H * b), (-a, -H * b, 0)),
        ((0, 0, H * b), (0, 0, a), (H * b, a, 0)),
        ((0, H * b, 0), (-H * b, 0, -a), (0, -a, 0)),
    )


def connection_g2(p):
    a, b, g = p.alpha, p.beta, p.gamma
    k = H * a - b
    return (
        ((0, 0, 0), (0, 0, k), (0, k, 0)),
        ((0, -g, H * a), (g, 0, 0), (H * a, 0, 0)),
        ((0, H * a, g), (-H * a, 0, 0), (g, 0, 0)),
    )


def connection_g3(p):
    a, b, g = p.alpha, p.beta, p.gamma
    a1 = H * (a - b - g)
    a2 = H * (a - b + g)
    a3 = H * (a + b - g)
    return (
        ((0, 0, 0), (0, 0, a1), (0, a1, 0)),
        ((0, 0, a2), (0, 0, 0), (a2, 0, 0)),
        ((0, a3, 0), (-a3, 0, 0), (0, 0, 0)),
    )


def connection_g4(p):
    a, b, eta = p.alpha, p.beta, p.eta
    b1 = H * a + eta - b
    b2 = H * a - eta
    b3 = H * a + eta
    return (
        ((0, 0, 0), (0, 0, b1), (0, b1, 0)),
        ((0, 1, b2), (-1, 0, 0), (b2, 0, 0)),
        ((0, b3, -1), (-b3, 0, 0), (-1, 0, 0)),
    )


def connection_g5(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    s = H * (b + g)
    t = H * (b - g)
    return (
        ((0, 0, a), (0, 0, s), (a, s, 0)),
        ((0, 0, s), (0, 0, d), (s, d, 0)),
        ((0, -t, 0), (t, 0, 0), (0, 0, 0)),
    )


def connection_g6(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    s = H * (b + g)
    t = H * (b - g)
    return (
        ((0, 0, 0), (0, 0, s), (0, s, 0)),
        ((0, -a, -t), (a, 0, 0), (-t, 0, 0)),
        ((0, t, -d), (-t, 0, 0), (-d, 0, 0)),
    )


def connection_g7(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    return (
        ((0, a, a), (-a, 0, H * g), (a, H * g, 0)),
        ((0, b, b + H * g), (-b, 0, d), (b + H * g, d, 0)),
        ((0, -(b - H * g), -b), (b - H * g, 0, -d), (-b, -d, 0)),
    )


CONNECTION_TABLES = {
    "G1": connection_g1,
    "G2": connection_g2,
    "G3": connection_g3,
    "G4": connection_g4,
    "G5": connection_g5,
    "G6": connection_g6,
    "G7": connection_g7,
}


# ---------------------------------------------------------------------------
# Ricci operator matrices (row convention)
# ---------------------------------------------------------------------------

def rho_op_g1(p):
    a, b = p.alpha, p.beta
    return (
        (-H * b**2, -a * b, -a * b),
        (-a * b, -(2 * a**2 + H * b**2), -2 * a**2),
        (a * b, 2 * a**2, 2 * a**2 - H * b**2),
    )


def rho_op_g2(p):
    a, b, g = p.alpha, p.beta, p.gamma
    return (
        (-(H * a**2 + 2 * g**2), 0, 0),
        (0, H * a**2 - a * b, a * g - 2 * b * g),
        (0, 2 * b * g - a * g, H * a**2 - a * b),
    )


def rho_op_g3(p):
    a, b, g = p.alpha, p.beta, p.gamma
    a1 = H * (a - b - g)
    a2 = H * (a - b + g)
    a3 = H * (a + b - g)
    return (
        (-a1 * a2 - a1 * a3 - b * a2 - g * a3, 0, 0),
        (0, a2 * a3 - a1 * a2 + a * a1 - g * a3, 0),
        (0, 0, -a1 * a3 + a2 * a3 + a * a1 - b * a2),
    )


def rho_op_g4(p):
    a, b, eta = p.alpha, p.beta, p.eta
    return (
        (-H * a**2, 0, 0),
        (0, H * a**2 + 2 * eta * (a - b) - a * b + 2, -a + 2 * b - 2 * eta),
        (0, a - 2 * b + 2 * eta, H * a**2 - a * b - 2 + 2 * eta * b),
    )


def rho_op_g5(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    return (
        (a**2 + a * d + H * (b**2 - g**2), 0, 0),
        (0, a * d + d**2 - H * (b**2 - g**2), 0),
        (0, 0, a**2 + d**2 + H * (b + g) ** 2),
    )


def rho_op_g6(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    return (
        (-(a**2) - d**2 + H * (b - g) ** 2, 0, 0),
        (0, -(a**2) - a * d + H * (b**2 - g**2), 0),
        (0, 0, -(d**2) - a * d - H * (b**2 - g**2)),
    )


def rho_op_g7(p):
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    s = a**2 - a * d + b * g
    return (
        (-H * g**2, 0, 0),
        (0, H * g**2 - s, -s),
        (0, s, s + H * g**2),
    )


RHO_OP_TABLES = {
    "G1": rho_op_g1,
    "G2": rho_op_g2,
    "G3": rho_op_g3,
    "G4": rho_op_g4,
    "G5": rho_op_g5,
    "G6": rho_op_g6,
    "G7": rho_op_g7,
}


# ---------------------------------------------------------------------------
# Brute-force route: vector algebra from first principles
# ---------------------------------------------------------------------------

def inner(u, v):
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def bracket_vec(sc, u, v):
    """Bilinear extension of the bracket table to coefficient vectors."""
    out = [F(0), F(0), F(0)]
    for i in range(3):
        if u[i] == 0:
            continue
        for j in range(3):
            coeff = u[i] * v[j]
            if coeff == 0:
                continue
            entry = sc.c[i][j]
            for k in range(3):
                out[k] += coeff * entry[k]
    return tuple(out)


def koszul_connection(sc):
    """Connection from the Koszul right-hand side, solved entry by entry.

    2 g(nabla_{e_i} e_j, e_k) =
        g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j).
    """
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            entry = []
            for k in range(3):
                rhs = (
                    inner(bracket_vec(sc, BASIS[i], BASIS[j]), BASIS[k])
                    - inner(bracket_vec(sc, BASIS[j], BASIS[k]), BASIS[i])
                    + inner(bracket_vec(sc, BASIS[k], BASIS[i]), BASIS[j])
                )
                entry.append(rhs / (2 * EPS[k]))
            row.append(tuple(entry))
        table.append(tuple(row))
    return tuple(table)


def _nabla_const(conn, i, w):
    """nabla_{e_i} w for a constant coefficient vector w."""
    out = [F(0), F(0), F(0)]
    for m in range(3):
        if w[m] == 0:
            continue
        for k in range(3):
            out[k] += w[m] * conn[i][m][k]
    return tuple(out)


def curvature_vec(sc, conn, i, j, k):
    """R(e_i, e_j) e_k as a coefficient vector, straight from the definition."""
    term1 = _nabla_const(conn, i, conn[j][k])
    term2 = _nabla_const(conn, j, conn[i][k])
    bracket = sc.c[i][j]
    term3 = [F(0), F(0), F(0)]
    for m in range(3):
        if bracket[m] == 0:
            continue
        for l in range(3):
            term3[l] += bracket[m] * conn[m][k][l]
    return tuple(term1[l] - term2[l] - term3[l] for l in range(3))


def ricci_brute(sc):
    """Ricci tensor via the signed sum of frame inner products."""
    conn = koszul_connection(sc)
    rho = []
    for i in range(3):
        row = []
        for j in range(3):
            value = (
                -inner(curvature_vec(sc, conn, i, 0, j), BASIS[0])
                - inner(curvature_vec(sc, conn, i, 1, j), BASIS[1])
                + inner(curvature_vec(sc, conn, i, 2, j), BASIS[2])
            )
            row.append(value)
        rho.append(tuple(row))
    return tuple(rho)


def jacobi_brute(sc, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] by expansion."""
    t1 = bracket_vec(sc, bracket_vec(sc, BASIS[i], BASIS[j]), BASIS[k])
    t2 = bracket_vec(sc, bracket_vec(sc, BASIS[j], BASIS[k]), BASIS[i])
    t3 = bracket_vec(sc, bracket_vec(sc, BASIS[k], BASIS[i]), BASIS[j])
    return tuple(t1[l] + t2[l] + t3[l] for l in range(3))


# ---------------------------------------------------------------------------
# Full curvature tensor: the sum the Ricci contraction traces, term by term
# ---------------------------------------------------------------------------

def curvature(sc, g):
    """Curvature tensor R from structure constants and the connection Gamma,
    R[i][j][k][l] the e_l coefficient of R(e_i, e_j) e_k.

    Frame fields have constant connection coefficients, so

      R^l_ijk = sum_m (Gamma^m_jk Gamma^l_im - Gamma^m_ik Gamma^l_jm)
                - sum_m c^m_ij Gamma^l_mk.
    """
    c = sc.c
    zero = Fraction(0)
    r = []
    for i in range(3):
        gi = g[i]
        plane_i = []
        for j in range(3):
            gj = g[j]
            cij = c[i][j]
            plane_j = []
            for k in range(3):
                acc = [zero, zero, zero]
                gjk = gj[k]
                gik = gi[k]
                for m in range(3):
                    # skip zero factors: the tables are sparse and exact
                    # rational multiplies dominate the cost
                    a = gjk[m]
                    if a:
                        gim = gi[m]
                        for l in range(3):
                            if gim[l]:
                                acc[l] = acc[l] + a * gim[l]
                    b = gik[m]
                    if b:
                        gjm = gj[m]
                        for l in range(3):
                            if gjm[l]:
                                acc[l] = acc[l] - b * gjm[l]
                    d = cij[m]
                    if d:
                        gmk = g[m][k]
                        for l in range(3):
                            if gmk[l]:
                                acc[l] = acc[l] - d * gmk[l]
                plane_j.append(tuple(acc))
            plane_i.append(tuple(plane_j))
        r.append(tuple(plane_i))
    return tuple(r)


# ---------------------------------------------------------------------------
# Minors-based affine solver (exact rationals only)
# ---------------------------------------------------------------------------

def solve_brute(rows):
    """Solution set of {b*l1 + c*l2 = -a} by rank-via-minors elimination.

    Returns ("none",), ("point", (l1, l2)), ("line", base, direction) or
    ("plane",).  Independent of the production elimination path.
    """
    coef = [(b, c) for _, b, c in rows]
    rhs = [-a for a, _, _ in rows]

    coef_rank = 0
    if any(b != 0 or c != 0 for b, c in coef):
        coef_rank = 1
    if any(b1 * c2 - b2 * c1 != 0 for (b1, c1), (b2, c2) in combinations(coef, 2)):
        coef_rank = 2

    if coef_rank == 0:
        return ("plane",) if all(r == 0 for r in rhs) else ("none",)

    if coef_rank == 2:
        for (r1, r2) in combinations(range(len(rows)), 2):
            det = coef[r1][0] * coef[r2][1] - coef[r2][0] * coef[r1][1]
            if det == 0:
                continue
            l1 = (rhs[r1] * coef[r2][1] - rhs[r2] * coef[r1][1]) / det
            l2 = (coef[r1][0] * rhs[r2] - coef[r2][0] * rhs[r1]) / det
            if all(b * l1 + c * l2 == r for (b, c), r in zip(coef, rhs)):
                return ("point", (l1, l2))
            return ("none",)

    pivot = next(idx for idx, (b, c) in enumerate(coef) if b != 0 or c != 0)
    b0, c0 = coef[pivot]
    base = (rhs[pivot] / b0, F(0)) if b0 != 0 else (F(0), rhs[pivot] / c0)
    direction = (-c0, b0)
    on_base = all(b * base[0] + c * base[1] == r for (b, c), r in zip(coef, rhs))
    along = all(b * direction[0] + c * direction[1] == 0 for b, c in coef)
    if on_base and along:
        return ("line", base, direction)
    return ("none",)


# ---------------------------------------------------------------------------
# Minimal sup-norm residual by Chebyshev LP vertex enumeration
# ---------------------------------------------------------------------------

def _sup_residual(rows, lam1, lam2):
    return max(abs(a + lam1 * b + lam2 * c) for a, b, c in rows)


def _solve3(m, rhs):
    """Solve a 3x3 linear system by Cramer's rule; None when singular."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = m
    det = (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )
    if det == 0:
        return None
    b1, b2, b3 = rhs
    x1 = (
        b1 * (a22 * a33 - a23 * a32)
        - a12 * (b2 * a33 - a23 * b3)
        + a13 * (b2 * a32 - a22 * b3)
    )
    x2 = (
        a11 * (b2 * a33 - a23 * b3)
        - b1 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * b3 - b2 * a31)
    )
    x3 = (
        a11 * (a22 * b3 - b2 * a32)
        - a12 * (a21 * b3 - b2 * a31)
        + b1 * (a21 * a32 - a22 * a31)
    )
    return (x1 / det, x2 / det, x3 / det)


def min_sup_residual_vertices(rows, mode):
    """Minimal achievable sup-norm min_{lambda} max_r |a + lambda1 b + lambda2 c|.

    Solved as a tiny Chebyshev program by candidate enumeration; exact
    over rationals, tolerance-guarded over floats.  Primal route (basic
    solutions of the LP, a one-parameter search at rank one), checked
    against the production dual formula.
    """
    coeffs = [(b, c) for _, b, c in rows]
    effective = [rc for rc in coeffs if not (mode.is_zero(rc[0]) and mode.is_zero(rc[1]))]
    if not effective:
        return max(abs(a) for a, _, _ in rows)

    rank_two = any(
        not mode.is_zero(b1 * c2 - b2 * c1) for (b1, c1), (b2, c2) in combinations(effective, 2)
    )
    if not rank_two:
        # One effective direction: residual depends on a single parameter s
        # along the common gradient (b0, c0).
        b0, c0 = max(effective, key=lambda rc: max(abs(rc[0]), abs(rc[1])))
        lines = [(a, b * b0 + c * c0) for a, b, c in rows]
        candidates = [Fraction(0) if mode.is_exact else 0.0]
        for (a1, k1), (a2, k2) in combinations(lines, 2):
            if not mode.is_zero(k1 - k2):
                candidates.append((a2 - a1) / (k1 - k2))
            if not mode.is_zero(k1 + k2):
                candidates.append(-(a1 + a2) / (k1 + k2))
        for a, k in lines:
            if not mode.is_zero(k):
                candidates.append(-a / k)
        best = None
        for s in candidates:
            value = max(abs(a + k * s) for a, k in lines)
            if best is None or value < best:
                best = value
        return best

    # Full-rank case: enumerate basic solutions of the LP
    #   minimize t  s.t.  sign*(a + lambda1 b + lambda2 c) <= t.
    # All eight sign patterns are distinct tight-constraint systems.
    best = None
    signs = tuple(product((1, -1), repeat=3))
    for triple in combinations(range(len(rows)), 3):
        for s in signs:
            m = []
            rhs = []
            for idx, sign in zip(triple, s):
                a, b, c = rows[idx]
                m.append((sign * b, sign * c, -1))
                rhs.append(-sign * a)
            sol = _solve3(m, rhs)
            if sol is None:
                continue
            lam1, lam2, t = sol
            if t < 0 and not mode.is_zero(t):
                continue
            value = _sup_residual(rows, lam1, lam2)
            if best is None or value < best:
                best = value
    if best is None:  # pragma: no cover - rank-two systems always yield vertices
        best = max(abs(a) for a, _, _ in rows)
    return best


# ---------------------------------------------------------------------------
# Pivoted elimination (the production solver before the integer route)
# ---------------------------------------------------------------------------

class EliminationResult:
    """What `solve_eliminate` decides, with the residual as Ein2Solution reads it."""

    def __init__(self, kind, rows, mode, point=None, line_base=None, line_direction=None):
        self.kind = kind
        self.point = point
        self.line_base = line_base
        self.line_direction = line_direction
        self._rows, self._mode = rows, mode

    @property
    def residual(self):
        if self.kind == "point":
            return _sup_residual(self._rows, *self.point)
        if self.kind == "line":
            return _sup_residual(self._rows, *self.line_base)
        if self.kind == "plane":
            return max(abs(r[0]) for r in self._rows)
        return min_sup_residual_vertices(self._rows, self._mode)


def _canonical_direction(d1, d2, mode):
    for lead in (d1, d2):
        if not mode.is_zero(lead):
            return (d1 / abs(lead), d2 / abs(lead))
    return (d1, d2)


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


def solve_eliminate(rows, mode):
    """Affine solution set of {b*lambda1 + c*lambda2 = -a} over the rows.

    Rational elimination with exact rank decisions in exact mode; approx
    mode pivots on the largest entries, thresholds at the mode
    tolerance, and refines point solutions by least squares over all
    rows.  The row reduction the integer solver replaced, kept verbatim
    as its reference.
    """
    rows = tuple(tuple(row) for row in rows)

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
            return EliminationResult("plane", rows, mode)
        return EliminationResult("none", rows, mode)

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
            return EliminationResult("point", rows, mode, point=(lam1, lam2))
        return EliminationResult("none", rows, mode)

    # Rank one: consistent iff every reduced row vanished.
    if any(not zero(a) for a, _ in reduced):
        return EliminationResult("none", rows, mode)
    base = [Fraction(0), Fraction(0)]
    base[pc] = -pa / pvec[pc]
    direction = _canonical_direction(-pvec[1], pvec[0], mode)
    if direction[0] < 0 or (zero(direction[0]) and direction[1] < 0):
        direction = (-direction[0], -direction[1])
    return EliminationResult("line", rows, mode, line_base=tuple(base), line_direction=direction)


# ---------------------------------------------------------------------------
# Row cover (the fidelity comparison before sign-canonical row sets)
# ---------------------------------------------------------------------------

def covers(rows, others) -> bool:
    """Every nonzero row of `rows` equals a row of `others` up to sign."""
    signed = [side for other in others for side in (other, tuple(-x for x in other))]
    return all(
        any(all(x == y for x, y in zip(row, other)) for other in signed)
        for row in rows
        if any(row)
    )
