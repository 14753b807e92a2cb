"""Scalar Lagrange reference elements on the unit triangle and unit square.

Triangles carry total-degree polynomials on the principal (equispaced)
lattice; quads carry tensor-product polynomials on the Gauss-Lobatto
lattice.  Node metadata (vertex / edge / interior) drives global numbering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import Legendre


class Family(str, Enum):
    TRIANGLE = "tri"
    QUAD = "quad"


class Continuity(str, Enum):
    C0 = "c0"
    DISCONTINUOUS = "dc"


class BoundaryCondition(str, Enum):
    ZERO_TRACE = "zero"
    NONE = "none"


@dataclass(frozen=True)
class ElementSpace:
    """One scalar piecewise-polynomial space choice.

    C0 requires degree >= 1; zero-trace boundary conditions require C0.
    """

    family: Family
    degree: int
    continuity: Continuity = Continuity.C0
    bc: BoundaryCondition = BoundaryCondition.NONE

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "continuity", Continuity(self.continuity))
        object.__setattr__(self, "bc", BoundaryCondition(self.bc))
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.continuity is Continuity.C0 and self.degree < 1:
            raise ValueError("C0 spaces need degree >= 1")
        if self.bc is BoundaryCondition.ZERO_TRACE and self.continuity is not Continuity.C0:
            raise ValueError("zero-trace requires a C0 space")

    def label(self) -> str:
        fam = "P" if self.family is Family.TRIANGLE else "Q"
        tail = "dc" if self.continuity is Continuity.DISCONTINUOUS else ""
        return f"{fam}{self.degree}{tail}"


def gauss_lobatto(degree: int) -> np.ndarray:
    """degree+1 Gauss-Lobatto points on [0, 1] (midpoint for degree 0)."""
    if degree == 0:
        return np.array([0.5])
    if degree == 1:
        return np.array([0.0, 1.0])
    interior = Legendre.basis(degree).deriv().roots()
    pts = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    return 0.5 * (pts + 1.0)


def _lagrange_factors(t: np.ndarray, x: np.ndarray):
    """(F, den) with den[i, j] = t_i - t_j and F[p, i, j] = (x_p - t_j) / den[i, j]
    off the diagonal; both hold 1 on the diagonal i = j."""
    den = t[:, None] - t[None, :]
    np.fill_diagonal(den, 1.0)
    F = (x[:, None, None] - t[None, None, :]) / den
    diag = np.arange(len(t))
    F[:, diag, diag] = 1.0
    return F, den


# The two tables below are products taken in the order j = 0, 1, ..., n-1
# and, for derivatives, sums in the order m = 0, 1, ..., n-1, one loop level
# per index vectorized.  Factors of exactly 1 and terms of exactly 0 stand in
# for the skipped indices, so each entry is bitwise the value of the plain
# nested loops (kept in the tests as the reference).


def _lagrange_values(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    F, _ = _lagrange_factors(t, x)
    out = np.ones((len(x), len(t)))
    for j in range(len(t)):
        out *= F[:, :, j]
    return out


def _lagrange_derivs(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = len(t)
    F, den = _lagrange_factors(t, x)
    scale = 1.0 / den
    np.fill_diagonal(scale, 0.0)
    # term[m, p, i]: derivative of the m-th factor of basis i, times the rest
    term = np.repeat(scale.T[:, None, :], len(x), axis=1)
    for j in range(n):
        term[:j] *= F[:, :, j]
        term[j + 1 :] *= F[:, :, j]
    out = np.zeros((len(x), n))
    for m in range(n):
        out += term[m]
    return out


def _per_coordinate(table, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """table(t, x) computed once per distinct coordinate: tensor rules
    repeat each 1D coordinate, and every row depends on its own x alone."""
    xu, inverse = np.unique(x, return_inverse=True)
    return table(t, xu)[inverse]


class ReferenceElement:
    """Nodal basis on the reference cell with entity classification.

    node_kind entries are ('v', vertex), ('e', edge, slot) with the slot
    counted from the edge's first local vertex, or ('i', index).
    """

    def __init__(self, family: Family, degree: int):
        self.family = Family(family)
        self.degree = degree
        if self.family is Family.TRIANGLE:
            self._init_triangle()
        else:
            self._init_quad()
        self.n_basis = len(self.nodes)

    # -- triangle: principal lattice + monomial Vandermonde ----------------
    def _init_triangle(self):
        k = self.degree
        if k == 0:
            self.nodes = np.array([[1.0 / 3.0, 1.0 / 3.0]])
            self.node_kind = [("i", 0)]
        else:
            nodes, kinds = [], []
            interior = 0
            for j in range(k + 1):
                for i in range(k + 1 - j):
                    lam = (k - i - j, i, j)
                    nodes.append((i / k, j / k))
                    zero = [c == 0 for c in lam]
                    if sum(zero) == 2:
                        kinds.append(("v", int(np.argmax([not z for z in zero]))))
                    elif zero[2]:
                        kinds.append(("e", 0, i - 1))
                    elif zero[0]:
                        kinds.append(("e", 1, j - 1))
                    elif zero[1]:
                        kinds.append(("e", 2, (k - j) - 1))
                    else:
                        kinds.append(("i", interior))
                        interior += 1
            self.nodes = np.array(nodes)
            self.node_kind = kinds
        self._exps = [
            (p, q) for total in range(self.degree + 1) for p in range(total + 1)
            for q in [total - p]
        ]
        V = self._monomials(self.nodes)
        self._coeff = np.linalg.inv(V)

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([x**p * y**q for p, q in self._exps], axis=1)

    def _monomial_grads(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        cols = []
        for p, q in self._exps:
            dx = p * x ** (p - 1) * y**q if p > 0 else np.zeros_like(x)
            dy = q * x**p * y ** (q - 1) if q > 0 else np.zeros_like(x)
            cols.append(np.stack([dx, dy], axis=1))
        return np.stack(cols, axis=1)  # (npts, nbasis, 2)

    # -- quad: Gauss-Lobatto tensor lattice --------------------------------
    def _init_quad(self):
        k = self.degree
        t = gauss_lobatto(k)
        self._t = t
        nodes, kinds = [], []
        interior = 0
        for j in range(k + 1):
            for i in range(k + 1):
                nodes.append((t[i], t[j]))
                on = (i == 0, i == k, j == 0, j == k)  # left right bottom top
                if k == 0:
                    kinds.append(("i", interior))
                    interior += 1
                elif on[2] and on[0]:
                    kinds.append(("v", 0))
                elif on[2] and on[1]:
                    kinds.append(("v", 1))
                elif on[3] and on[1]:
                    kinds.append(("v", 2))
                elif on[3] and on[0]:
                    kinds.append(("v", 3))
                elif on[2]:
                    kinds.append(("e", 0, i - 1))
                elif on[1]:
                    kinds.append(("e", 1, j - 1))
                elif on[3]:
                    kinds.append(("e", 2, (k - i) - 1))
                elif on[0]:
                    kinds.append(("e", 3, (k - j) - 1))
                else:
                    kinds.append(("i", interior))
                    interior += 1
        self.nodes = np.array(nodes)
        self.node_kind = kinds

    # -- evaluation ---------------------------------------------------------
    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape (npts, n_basis)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.family is Family.TRIANGLE:
            return self._monomials(pts) @ self._coeff
        lx = _per_coordinate(_lagrange_values, self._t, pts[:, 0])
        ly = _per_coordinate(_lagrange_values, self._t, pts[:, 1])
        k1 = self.degree + 1
        return (ly[:, :, None] * lx[:, None, :]).reshape(len(pts), k1 * k1)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Basis gradients, shape (npts, n_basis, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.family is Family.TRIANGLE:
            return np.einsum("pmd,mb->pbd", self._monomial_grads(pts), self._coeff)
        lx = _per_coordinate(_lagrange_values, self._t, pts[:, 0])
        ly = _per_coordinate(_lagrange_values, self._t, pts[:, 1])
        dx = _per_coordinate(_lagrange_derivs, self._t, pts[:, 0])
        dy = _per_coordinate(_lagrange_derivs, self._t, pts[:, 1])
        k1 = self.degree + 1
        gx = (ly[:, :, None] * dx[:, None, :]).reshape(len(pts), k1 * k1)
        gy = (dy[:, :, None] * lx[:, None, :]).reshape(len(pts), k1 * k1)
        return np.stack([gx, gy], axis=2)


@functools.lru_cache(maxsize=None)
def reference_element(family: Family, degree: int) -> ReferenceElement:
    return ReferenceElement(Family(family), degree)
