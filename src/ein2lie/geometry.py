"""Connection and Ricci data of a left-invariant Lorentzian metric.

Everything is frame algebra: the metric is constant on the frame, so the
Levi-Civita connection comes from the Koszul formula specialized to
structure constants, and curvature needs no derivative terms.

Index conventions, fixed once for the whole package:

  Gamma[i][j][k]   : e_k coefficient of nabla_{e_i} e_j
  R[i][j][k][l]    : e_l coefficient of R(e_i, e_j) e_k, with
                     R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                               - nabla_{[X, Y]} Z
  rho[i][j]        : Ricci tensor rho(e_i, e_j), computed as
                     -g(R(e_i,e_1)e_j, e_1) - g(R(e_i,e_2)e_j, e_2)
                     + g(R(e_i,e_3)e_j, e_3)
  rho_op[i][j]     : Ricci operator in the row ("transport") convention,
                     rho0(e_i) = sum_j rho_op[i][j] e_j
  rho_sq[i][j]     : g(rho0 e_i, rho0 e_j)

`RicciData.connection` is Gamma, as plain nested tuples indexed this
way.

The Ricci sign convention above is taken verbatim from the tabulated
classification data this package verifies; it is anchored to those
tables, not to any textbook convention.

`ricci` is the one route from a table to its geometry: it checks the
Jacobi identity and contracts the connection straight into the 27
traced components that rho needs,

  rho[i][j] = -sum_a sum_m (Gamma[a][j][m] Gamma[i][m][a]
                            - Gamma[i][j][m] Gamma[a][m][a]
                            - c[i][a][m] Gamma[m][j][a]).

It does not build the curvature tensor R.
`_contract` is the one statement of this sum; approx mode runs it on a
float table.  Otherwise the sum is an integer quadratic form in the
nine brackets scaled to ints, derived from `_contract` by polarisation
on the first exact call (`_form`), so an exact decision multiplies only
ints and builds no Ricci Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import lcm

from .liealg import EPS, NotLieAlgebra, StructureConstants, _jacobi_base, jacobi_ok
from .scalars import Mode, Scalar, _Value

Matrix = tuple[tuple[Scalar, ...], ...]
Tensor3 = tuple[tuple[tuple[Scalar, ...], ...], ...]


class RicciData(_Value):
    """Connection, Ricci tensor, Ricci operator (row convention) and rho^2.

    Holds the nine brackets `ricci` read times L, the contraction
    n = 4 L^2 rho and its scale L (see `ricci`); the connection, rho,
    rho_op and rho_sq are built from them on first read.  On the exact
    route the scaled brackets are ints, so the connection is exact even
    for a float table read in exact mode; on the float route L = 1 and
    they are the table's own values.  rho is
    symmetric; rho_op satisfies rho[i][j] = eps_j * rho_op[i][j] and is
    g-self-adjoint (eps_j rho_op[i][j] = eps_i rho_op[j][i]); in
    Lorentzian signature it need not be diagonalizable.
    """

    _fields = ("scaled", "n", "scale")

    def __init__(self, scaled: tuple, n: Matrix, scale: int):
        self.scaled, self.n, self.scale = scaled, n, scale

    def squares(self) -> Matrix:
        """sum_k eps_k n[i][k] n[j][k], which is 16 L^4 rho_sq[i][j]; the upper triangle, mirrored."""
        (e0, e1, e2), (n0, n1, n2) = EPS, self.n
        # summed from 0 in the order of `sum`, so float bits do not move
        s00, s01, s02, s11, s12, s22 = (
            0 + e0 * u[0] * v[0] + e1 * u[1] * v[1] + e2 * u[2] * v[2]
            for u, v in ((n0, n0), (n0, n1), (n0, n2), (n1, n1), (n1, n2), (n2, n2))
        )
        return (s00, s01, s02), (s01, s11, s12), (s02, s12, s22)

    @cached_property
    def connection(self) -> Tensor3:
        """The Levi-Civita connection Gamma = `_koszul(c)` / 2, as H / (2 L) for H = `_koszul` of L c.

        Torsion-freeness (Gamma^k_ij - Gamma^k_ji = c^k_ij) and metric
        compatibility (eps_k Gamma^k_ij + eps_j Gamma^j_ik = 0) hold by construction.
        """
        x = self.scaled
        table = StructureConstants((x[:3], x[3:6], x[6:]))
        return tuple(_divide(plane, 2 * self.scale) for plane in _koszul(table.c))

    @cached_property
    def rho(self) -> Matrix:
        return _divide(self.n, 4 * self.scale**2)

    @cached_property
    def rho_op(self) -> Matrix:
        return tuple(tuple(-x if e < 0 else x for x, e in zip(row, EPS)) for row in self.rho)

    @cached_property
    def rho_sq(self) -> Matrix:
        return _divide(self.squares(), 16 * self.scale**4)


def _divide(matrix, unit: int) -> Matrix:
    """Exact entries become Fractions, float entries stay floats."""
    return tuple(
        tuple(x / unit if isinstance(x, float) else Fraction(x, unit) for x in row)
        for row in matrix
    )


def _koszul(c) -> list:
    """2 Gamma^k_ij = c^k_ij - eps_i eps_k c^i_jk + eps_j eps_k c^j_ki."""
    return [
        [
            [
                c[i][j][k] - EPS[i] * EPS[k] * c[j][k][i] + EPS[j] * EPS[k] * c[k][i][j]
                for k in range(3)
            ]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _contract(c) -> Matrix:
    """The contraction N of `ricci`, term by term, on H = `_koszul(c)`."""
    h = _koszul(c)
    n = []
    for i in range(3):
        hi, ci = h[i], c[i]
        row = []
        for j in range(3):
            hij = hi[j]
            total = 0
            for a in range(3):
                ha, cia = h[a], ci[a]
                haj = ha[j]
                acc = 0
                for m in range(3):
                    # skip zero factors: a term-free entry stays an int 0,
                    # which `RicciData` prints exactly
                    x, y = haj[m], hi[m][a]
                    if x and y:
                        acc = acc + x * y
                    x, y = hij[m], ha[m][a]
                    if x and y:
                        acc = acc - x * y
                    x, y = cia[m], h[m][j][a]
                    if x and y:
                        acc = acc - 2 * x * y
                total = total + acc
            row.append(-total)
        n.append(tuple(row))
    return tuple(n)


@cache
def _form() -> tuple:
    """form[p][q], p <= q: the (output, k) pairs of the terms k x_p x_q, k != 0.

    The twelve outputs, the nine entries of `_contract` and the three of
    `_jacobi_base`, are quadratic forms f in the nine brackets x.  By
    polarisation on integer unit brackets e_p, k is f(e_p) for p = q and
    f(e_p + e_q) - f(e_p) - f(e_q) otherwise.
    """

    def f(*units):
        x = [sum(column) for column in zip(*units)]
        c = StructureConstants((tuple(x[:3]), tuple(x[3:6]), tuple(x[6:]))).c
        return [v for row in _contract(c) for v in row] + list(_jacobi_base(c))

    e = [[int(p == q) for q in range(9)] for p in range(9)]
    square = [f(u) for u in e]

    def terms(p, q):
        k = square[p] if p == q else [a - b - d for a, b, d in zip(f(e[p], e[q]), square[p], square[q])]
        return tuple((o, v) for o, v in enumerate(k) if v)

    return tuple(tuple(terms(p, q) if p <= q else () for q in range(9)) for p in range(9))


def ricci(sc: StructureConstants, mode: Mode) -> RicciData:
    """Ricci tensor, operator and rho^2 of the table, with its Jacobi check.

    rho(e_i, e_j) = -sum_a R^a_{i a j} (the eps weights of the trace and
    of the frame inner product cancel), rho_op[i][j] = eps_j rho[i][j]
    and rho_sq[i][j] = sum_k eps_k rho_op[i][k] rho_op[j][k].  Only the
    27 traced components are formed, each as the curvature formula
    gives it, so the tensor R is never built:

      R^a_{i a j} = sum_m (Gamma^m_aj Gamma^a_im - Gamma^m_ij Gamma^a_am
                           - c^m_ia Gamma^a_mj).

    The sum runs in units of H = 2 L Gamma, L the lcm of the table's
    denominators, giving N = 4 L^2 rho; the result hands on N, L and the
    brackets times L, and each Fraction is built from them once, when it
    is read:

      rho[i][j] = N_ij / (4 L^2),
      rho_sq[i][j] = sum_k eps_k N_ik N_jk / (16 L^4).

    Exact route: the nine bracket entries x_p = c^k_ij (i < j) of
    `sc.values()`, the only ones read, become the ints X = L x, and for
    each pair p <= q of nonzero X the coefficients k of `_form` add
    k X_p X_q into the nine entries of N and the three of the Jacobi
    vector J(X) = L^2 J(c), which must vanish exactly, or NotLieAlgebra
    is raised; the full table `sc.c` is never built.  It serves every
    table in exact mode, a float one read as dyadic rationals, and an
    exact table in approx mode.  Float route (approx mode, float table):
    `jacobi_ok` tests `sc.c` within the tolerance, then `_contract` runs
    on it with L = 1, adding the terms in the order the full tensor R
    adds them, so floats come out bit for bit.
    """
    if not (mode.is_exact or sc.is_exact()):
        if not jacobi_ok(sc, mode):
            raise NotLieAlgebra("Jacobi identity fails; residual is nonzero")
        return RicciData(sc.values(), _contract(sc.c), 1)
    ratios = [x.as_integer_ratio() for x in sc.values()]
    scale = lcm(*[d for _, d in ratios])
    x = tuple([n * (scale // d) for n, d in ratios])
    live = [p for p in range(9) if x[p]]
    form, out = _form(), [0] * 12
    for i, p in enumerate(live):
        xp, terms = x[p], form[p]
        for q in live[i:]:
            xpq = xp * x[q]
            for o, k in terms[q]:
                out[o] += k * xpq
    if out[9] or out[10] or out[11]:
        raise NotLieAlgebra("Jacobi identity fails; residual is nonzero")
    return RicciData(x, (tuple(out[:3]), tuple(out[3:6]), tuple(out[6:9])), scale)
