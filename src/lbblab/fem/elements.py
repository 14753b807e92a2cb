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

from ..geometry import _REFERENCE


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

    The nodes sit on the integer lattice (i, j) of the cell scaled by the
    degree k: i + j <= k on the triangle, i, j <= k on the square, j the outer
    loop.  Triangle nodes are lattice / k (the centroid for P0), quad nodes
    the Gauss-Lobatto points at the lattice indices.  Per node, kind is 'v'
    (on two sides), 'e' (on one side s, from corner s to s + 1) or 'i';
    entity is the corner, the side s or the interior index in node order;
    slot is an edge node's lattice steps from corner s, minus 1, and 0 for
    the other kinds.
    """

    def __init__(self, family: Family, degree: int):
        self.family = Family(family)
        self.degree = k = degree
        tri = self.family is Family.TRIANGLE
        corners = k * _REFERENCE[3 if tri else 4][0].astype(np.int64)
        lattice = np.array([(i, j) for j in range(k + 1) for i in range(k + 1)
                            if not tri or i + j <= k])
        rel = lattice[:, None, :] - corners[None]  # (node, corner, 2)
        side = np.roll(corners, -1, axis=0) - corners
        # on[n, s]: node n lies on the line of side s, so (the cell being
        # convex) on the side; for k = 0 the single node lies on every side
        # and is interior.  A lattice step along a side moves each coordinate
        # by at most 1, so the steps from corner s are the max-norm distance.
        on = side[:, 0] * rel[..., 1] - side[:, 1] * rel[..., 0] == 0
        count = on.sum(axis=1)
        s = on.argmax(axis=1)
        self.kind = np.where(count == 2, "v", np.where(count == 1, "e", "i"))
        self.entity = np.select(
            [count == 2, count == 1],
            [(rel == 0).all(axis=2).argmax(axis=1), s],
            np.cumsum(self.kind == "i") - 1,
        )
        self.slot = np.where(
            count == 1, np.abs(rel[np.arange(len(lattice)), s]).max(axis=1) - 1, 0
        )
        if tri:
            self.nodes = lattice / k if k else np.array([[1.0 / 3.0, 1.0 / 3.0]])
            self._exps = [
                (p, q) for total in range(k + 1) for p in range(total + 1)
                for q in [total - p]
            ]
            self._coeff = np.linalg.inv(self._monomials(self.nodes))
        else:
            self._t = gauss_lobatto(k)
            self.nodes = self._t[lattice]
        self.n_basis = len(self.nodes)
        # one cached instance serves every caller
        for a in (self.nodes, self.kind, self.entity, self.slot):
            a.setflags(write=False)

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
