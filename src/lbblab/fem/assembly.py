"""Assembly of the vector stiffness, divergence coupling, and pressure mass.

Velocity spaces are scalar dof maps used componentwise: the assembled
stiffness is block-diagonal with two identical scalar blocks, and the
divergence matrix has an x-derivative block followed by a y-derivative
block.  Element matrices are batched matrix products (BLAS), one per
element; the symmetric ones (stiffness, pressure mass) are made exactly
symmetric per element, since a product of two differently weighted
factors is symmetric only up to roundoff.  Assembly runs in fixed element
order so reruns agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry import Mesh, ParentMap, reference_map
from .dofmap import DofMap
from .elements import reference_element
from .quadrature import quad_rule


def _element_geometry(mesh: Mesh, ref_pts: np.ndarray):
    """(detJ, Jinv) at reference points, batched over elements."""
    _, J = reference_map(mesh.points[mesh.elements], ref_pts)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    if (det <= 0).any():
        raise ValueError("singular or inverted element Jacobian")
    Jinv = np.empty_like(J)
    Jinv[:, :, 0, 0] = J[:, :, 1, 1] / det
    Jinv[:, :, 0, 1] = -J[:, :, 0, 1] / det
    Jinv[:, :, 1, 0] = -J[:, :, 1, 0] / det
    Jinv[:, :, 1, 1] = J[:, :, 0, 0] / det
    return det, Jinv


def _physical_gradients(mesh: Mesh, ref_pts: np.ndarray, grad_hat: np.ndarray):
    """Physical basis gradients and detJ at the reference points.

    grad_hat is the reference gradient table (nq, nb, 2).  Returns
    (G, det) with G of shape (ne, nq, 2, nb), G[e, q, d, b] the d-th
    partial derivative of basis function b at point q of element e, and
    det of shape (ne, nq), unweighted.
    """
    det, Jinv = _element_geometry(mesh, ref_pts)
    G = np.matmul(Jinv.swapaxes(2, 3), grad_hat.transpose(0, 2, 1))
    return G, det


def _symmetrize(local: np.ndarray) -> np.ndarray:
    """Make each element block (ne, n, n) exactly symmetric."""
    return 0.5 * (local + local.transpose(0, 2, 1))


def _scatter(row_dofs, col_dofs, local, shape):
    """Sum element matrices local (ne, nr, nc) into a CSR matrix at
    (row_dofs[e, i], col_dofs[e, j]), dropping eliminated (-1) dofs."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    vals = local.ravel()
    mask = (rows >= 0) & (cols >= 0)
    return sparse.coo_matrix(
        (vals[mask], (rows[mask], cols[mask])), shape=shape
    ).tocsr()


def assemble_stiffness(dof_v: DofMap, exactness: int | None = None) -> sparse.csr_matrix:
    """Vector Laplacian: block diag of two scalar grad-grad blocks.

    dof_v is the scalar velocity dof map (typically C0 with zero trace);
    rows and columns of eliminated dofs are dropped.
    """
    space = dof_v.space
    ref = reference_element(space.family, space.degree)
    rule = quad_rule(space.family, exactness if exactness is not None else 2 * space.degree + 2)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref.grad(rule.points))
    ne, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    Gw = (G * wdet[:, :, None, None]).reshape(ne, 2 * nq, nb)
    K = _symmetrize(np.matmul(Gw.transpose(0, 2, 1), G.reshape(ne, 2 * nq, nb)))
    del G, Gw
    n = dof_v.n_global
    scalar = _scatter(dof_v.element_dofs, dof_v.element_dofs, K, (n, n))
    return sparse.block_diag([scalar, scalar], format="csr")


def _pressure_tables(
    dof_p: DofMap, v_mesh: Mesh, ref_pts: np.ndarray, parent_map: ParentMap | None
):
    """Pressure basis values at the velocity rule points, per velocity element.

    Returns (values (ne,nq,nbP), pressure_element (ne,)).  With a parent map
    the points are pushed through the child-to-parent affine reference maps
    (exact for the nested uniform refinements produced by the geometry
    module); identical affine maps share one evaluation.
    """
    ref_p = reference_element(dof_p.space.family, dof_p.space.degree)
    ne = v_mesh.n_elements
    if parent_map is None:
        if dof_p.mesh is not v_mesh and not (
            np.array_equal(dof_p.mesh.points, v_mesh.points)
            and np.array_equal(dof_p.mesh.elements, v_mesh.elements)
        ):
            raise ValueError("pressure mesh differs from velocity mesh: parent map required")
        psi = ref_p.eval(ref_pts)
        return np.broadcast_to(psi, (ne, *psi.shape)), np.arange(ne)
    if len(parent_map.parent) != ne:
        raise ValueError("parent map does not match the velocity mesh")
    stacked = np.concatenate(
        [parent_map.matrix.reshape(ne, 4), parent_map.offset], axis=1
    )
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    tables = np.empty((len(uniq), len(ref_pts), ref_p.n_basis))
    for u, row in enumerate(uniq):
        M = row[:4].reshape(2, 2)
        off = row[4:]
        tables[u] = ref_p.eval(ref_pts @ M.T + off)
    return tables[inverse], parent_map.parent


def assemble_divergence(
    dof_v: DofMap,
    dof_p: DofMap,
    parent_map: ParentMap | None = None,
    exactness: int | None = None,
) -> sparse.csr_matrix:
    """Coupling matrix B with B[p, v] = integral of div(phi_v) * psi_p.

    Columns are ordered (x-component block, y-component block) of the scalar
    velocity dofs.  Integration runs over the (finer) velocity mesh.
    """
    sv, sp = dof_v.space, dof_p.space
    rule = quad_rule(
        sv.family,
        exactness if exactness is not None else 2 * max(sv.degree, sp.degree) + 2,
    )
    ref_v = reference_element(sv.family, sv.degree)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref_v.grad(rule.points))
    ne, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    psi, p_elem = _pressure_tables(dof_p, dof_v.mesh, rule.points, parent_map)
    psiw = (psi * wdet[:, :, None]).transpose(0, 2, 1)
    del psi
    Bxy = np.matmul(psiw, G.reshape(ne, nq, 2 * nb))
    del G, psiw
    Bx, By = Bxy[:, :, :nb], Bxy[:, :, nb:]
    edv = dof_v.element_dofs
    edp = dof_p.element_dofs[p_elem]
    shape = (dof_p.n_global, dof_v.n_global)
    bx = _scatter(edp, edv, Bx, shape)
    by = _scatter(edp, edv, By, shape)
    return sparse.hstack([bx, by], format="csr")


def assemble_pressure_mass(
    dof_p: DofMap, exactness: int | None = None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Pressure mass matrix and the mean vector m with m_i = integral of psi_i."""
    sp_ = dof_p.space
    ref = reference_element(sp_.family, sp_.degree)
    rule = quad_rule(sp_.family, exactness if exactness is not None else 2 * sp_.degree + 2)
    det, _ = _element_geometry(dof_p.mesh, rule.points)
    wdet = rule.weights[None, :] * det
    psi = ref.eval(rule.points)
    Mloc = _symmetrize(np.matmul(psi.T[None] * wdet[:, None, :], psi))
    mloc = wdet @ psi
    ed = dof_p.element_dofs
    n = dof_p.n_global
    Mp = _scatter(ed, ed, Mloc, (n, n))
    m = np.zeros(n)
    np.add.at(m, ed.ravel(), mloc.ravel())
    return Mp, m


@dataclass(frozen=True)
class AssembledSystem:
    """The three bilinear forms of one velocity/pressure pairing."""

    A: sparse.csr_matrix
    B: sparse.csr_matrix
    Mp: sparse.csr_matrix
    m: np.ndarray

    @property
    def n_velocity(self) -> int:
        return self.A.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.Mp.shape[0]


def assemble_system(
    dof_v: DofMap, dof_p: DofMap, parent_map: ParentMap | None = None
) -> AssembledSystem:
    A = assemble_stiffness(dof_v)
    B = assemble_divergence(dof_v, dof_p, parent_map=parent_map)
    Mp, m = assemble_pressure_mass(dof_p)
    return AssembledSystem(A=A, B=B, Mp=Mp, m=m)


def export_matrix_coo(mat, path) -> None:
    """Write a matrix in the `matrixcoo` text format (0-based indices)."""
    coo = sparse.coo_matrix(mat)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", newline="\n") as f:
        f.write(f"matrixcoo {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            f.write(f"{i} {j} {v:.17g}\n")
