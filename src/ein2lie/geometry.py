"""Connection, curvature and Ricci data of a left-invariant Lorentzian metric.

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

`RicciData.connection` is Gamma and `curvature` returns R, as plain
nested tuples indexed this way.

The Ricci sign convention above is taken verbatim from the tabulated
classification data this package verifies; it is anchored to those
tables, not to any textbook convention.

`ricci` is the one route from a table to its geometry: it checks the
Jacobi identity, builds the connection and contracts it.  It does not
build the curvature tensor: `curvature`, which does, is the reference
`ricci` is checked against, not a step on its path.  `ricci` contracts
the connection straight into the 27 traced components that rho needs,

  rho[i][j] = -sum_a sum_m (Gamma[a][j][m] Gamma[i][m][a]
                            - Gamma[i][j][m] Gamma[a][m][a]
                            - c[i][a][m] Gamma[m][j][a]),

and for an exact table it does so on integers: with L the lcm of the
denominators of c, both L c and H = 2 L Gamma are integer tables, and
rho = N / (4 L^2), where N is the same sum with Gamma replaced by H
and c by 2 L c.  The Jacobi check runs on L c too: J(L c) = L^2 J(c),
so it is exact.  `RicciData` carries H, N and L; `ein2.solve` solves on
N and L, so an exact decision builds no Ricci Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Tuple

from .liealg import EPS, NotLieAlgebra, StructureConstants, _jacobi_base, jacobi_ok
from .scalars import Mode, Scalar

Matrix = Tuple[Tuple[Scalar, ...], ...]
Tensor3 = Tuple[Tuple[Tuple[Scalar, ...], ...], ...]


@dataclass(frozen=True)
class RicciData:
    """Connection, Ricci tensor, Ricci operator (row convention) and rho^2.

    Holds what `ricci` computes, the Koszul table h = 2 L Gamma, the
    contraction n = 4 L^2 rho and their scale L (see `ricci`); the
    connection, rho, rho_op and rho_sq are built from them on first
    read.  rho is symmetric; rho_op satisfies rho[i][j] = eps_j *
    rho_op[i][j] and is g-self-adjoint (eps_j rho_op[i][j] = eps_i
    rho_op[j][i]); in Lorentzian signature it need not be diagonalizable.
    """

    h: list
    n: Matrix
    scale: int

    def squares(self) -> Matrix:
        """sum_k eps_k n[i][k] n[j][k], which is 16 L^4 rho_sq[i][j]."""
        (e0, e1, e2), n = EPS, self.n
        # summed from 0 in the order of `sum`, so float bits do not move
        return tuple(
            tuple(0 + e0 * u[0] * v[0] + e1 * u[1] * v[1] + e2 * u[2] * v[2] for v in n) for u in n
        )

    @cached_property
    def connection(self) -> Tensor3:
        """The Levi-Civita connection Gamma = h / (2 L), h by the Koszul formula (`_koszul`).

        Torsion-freeness (Gamma^k_ij - Gamma^k_ji = c^k_ij) and metric
        compatibility (eps_k Gamma^k_ij + eps_j Gamma^j_ik = 0) hold by construction.
        """
        return tuple(_divide(plane, 2 * self.scale) for plane in self.h)

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


def curvature(sc: StructureConstants, g: Tensor3) -> Tensor3:
    """Curvature tensor R from structure constants and the connection Gamma.

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


def ricci(sc: StructureConstants, mode: Optional[Mode] = None) -> RicciData:
    """Ricci tensor, operator and rho^2, contracted straight from the table.

    rho(e_i, e_j) = -sum_a R^a_{i a j} (the eps weights of the trace and
    of the frame inner product cancel), rho_op[i][j] = eps_j rho[i][j]
    and rho_sq[i][j] = sum_k eps_k rho_op[i][k] rho_op[j][k].  Only the
    27 traced components are formed, each as the curvature formula
    gives it, so `curvature` is not on this path:

      R^a_{i a j} = sum_m (Gamma^m_aj Gamma^a_im - Gamma^m_ij Gamma^a_am
                           - c^m_ia Gamma^a_mj).

    The contraction runs in units of H = 2 L Gamma, where L is the lcm of
    the table's denominators.  For an exact table L c and H are integer
    tables and all the work is on ints.  The result hands on the
    contraction N and L; each Fraction is built from them once, and only
    when it is read:

      rho[i][j] = N_ij / (4 L^2),
      rho_sq[i][j] = sum_k eps_k N_ik N_jk / (16 L^4).

    A float table runs the same contraction with L = 1.  Scaling by a
    power of two is exact and the terms are added in the order
    `curvature` adds them, so floats come out bit for bit as through the
    full tensor.

    Raises NotLieAlgebra when the Jacobi residual is nonzero: exactly
    zero for an exact table, which it tests on L c, and within the
    tolerance of `mode` for a float table.
    """
    c, scale = sc.c, 1
    if sc.is_exact():
        scale = lcm(*(x.denominator for x in sc.values()))
        c = [
            [[x.numerator * (scale // x.denominator) for x in row] for row in plane]
            for plane in c
        ]
        lie = not any(_jacobi_base(c))
    else:
        lie = jacobi_ok(sc, mode)
    if not lie:
        raise NotLieAlgebra("Jacobi identity fails; residual is nonzero")
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
                    # skip zero factors as `curvature` does: a term-free
                    # entry stays an int 0, which `RicciData` prints exactly
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
    return RicciData(h=h, n=tuple(n), scale=scale)
