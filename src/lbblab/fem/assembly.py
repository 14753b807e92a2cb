"""Assembly of the vector stiffness, divergence coupling, and pressure mass.

Velocity spaces are scalar dof maps used componentwise: the assembled
stiffness is block-diagonal with two identical scalar blocks, and the
divergence matrix has an x-derivative block followed by a y-derivative
block.  Element matrices are batched matrix products (BLAS), one per
element; the symmetric ones (stiffness, pressure mass) are made exactly
symmetric per element, since a product of two differently weighted
factors is symmetric only up to roundoff.  Assembly runs in fixed element
order so reruns agree bitwise.  `assemble_system` also condenses the
interior velocity dofs out of the same element matrices (`AssembledSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry import Mesh, ParentMap, reference_map
from ..spectral import NotPositiveDefinite
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


def _stiffness_blocks(dof_v: DofMap, exactness: int | None = None) -> np.ndarray:
    """Scalar grad-grad element matrices (ne, nb, nb), exactly symmetric."""
    space = dof_v.space
    ref = reference_element(space.family, space.degree)
    rule = quad_rule(space.family, exactness if exactness is not None else 2 * space.degree + 2)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref.grad(rule.points))
    ne, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    Gw = (G * wdet[:, :, None, None]).reshape(ne, 2 * nq, nb)
    return _symmetrize(np.matmul(Gw.transpose(0, 2, 1), G.reshape(ne, 2 * nq, nb)))


def _vector_stiffness(element_dofs, K: np.ndarray, n: int) -> sparse.csr_matrix:
    """diag(K, K) from the scalar element matrices K over n scalar dofs."""
    scalar = _scatter(element_dofs, element_dofs, K, (n, n))
    return sparse.block_diag([scalar, scalar], format="csr")


def assemble_stiffness(dof_v: DofMap, exactness: int | None = None) -> sparse.csr_matrix:
    """Vector Laplacian: block diag of two scalar grad-grad blocks.

    dof_v is the scalar velocity dof map (typically C0 with zero trace);
    rows and columns of eliminated dofs are dropped.
    """
    K = _stiffness_blocks(dof_v, exactness)
    return _vector_stiffness(dof_v.element_dofs, K, dof_v.n_global)


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


def _divergence_blocks(
    dof_v: DofMap,
    dof_p: DofMap,
    parent_map: ParentMap | None = None,
    exactness: int | None = None,
):
    """Element matrices (Bx, By), each (ne, nbP, nb), of the velocity
    elements, and the pressure dofs (ne, nbP) each one couples to."""
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
    return Bxy[:, :, :nb], Bxy[:, :, nb:], dof_p.element_dofs[p_elem]


def _coupling(row_dofs, col_dofs, Bx, By, shape) -> sparse.csr_matrix:
    """[Bx By] scattered: x-component columns first, then y."""
    return sparse.hstack(
        [_scatter(row_dofs, col_dofs, Bx, shape), _scatter(row_dofs, col_dofs, By, shape)],
        format="csr",
    )


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
    Bx, By, edp = _divergence_blocks(dof_v, dof_p, parent_map, exactness)
    shape = (dof_p.n_global, dof_v.n_global)
    return _coupling(edp, dof_v.element_dofs, Bx, By, shape)


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
    """The three bilinear forms of one velocity/pressure pairing, and the
    same pressure Schur complement after static condensation.

    A, B, Mp and m are the full forms.  Eliminating the interior velocity
    dofs I (Lagrange nodes inside one element) leaves the skeleton dofs S
    and B A^{-1} B^T = D + C Ahat^{-1} C^T with

        Ahat = A_SS - A_SI A_II^{-1} A_IS,  C = B_S - B_I A_II^{-1} A_IS,
        D = B_I A_II^{-1} B_I^T.

    Ahat = diag(Khat, Khat) is SPD and couples the skeleton dofs of each
    element, and D has Mp's sparsity pattern.  D = E^T E with
    E = L^{-1} B_I^T for the element Cholesky factors A_II = L L^T: the
    dense and Woodbury routes take D assembled, while D q = E^T (E q) keeps
    q.Dq at the roundoff floor squared on near-null pressure modes.
    Without interior dofs Ahat = A, C = B, D = 0 and E has no rows.
    """

    A: sparse.csr_matrix
    B: sparse.csr_matrix
    Mp: sparse.csr_matrix
    m: np.ndarray
    Ahat: sparse.csr_matrix
    C: sparse.csr_matrix
    D: sparse.csr_matrix
    E: sparse.csr_matrix

    @property
    def n_velocity(self) -> int:
        return self.A.shape[0]

    @property
    def n_pressure(self) -> int:
        return self.Mp.shape[0]


def _condense(dof_v: DofMap, K: np.ndarray, Bx: np.ndarray, By: np.ndarray, edp, n_p: int):
    """(Ahat, C, D, E) of `AssembledSystem` from the element matrices.

    Interior dofs belong to one element each, so the condensation is
    element-local and per scalar component.  With K_II = L L^T (one batched
    Cholesky) and Y = L^{-1} [K_IS, Bx_I^T, By_I^T], an element adds
    K_SS - Y_S^T Y_S to Khat, Bx_S - Y_x^T Y_S and By_S - Y_y^T Y_S to the
    two component blocks of C, Y_x^T Y_x + Y_y^T Y_y to D, and its own rows
    Y_x and Y_y to E.  By Sylvester's law A is SPD iff every K_II and Ahat
    are: a failed Cholesky raises NotPositiveDefinite, and factorizing Ahat
    checks the rest.
    """
    ref = reference_element(dof_v.space.family, dof_v.space.degree)
    inner = np.array([kind[0] == "i" for kind in ref.node_kind])
    I, S = np.flatnonzero(inner), np.flatnonzero(~inner)
    ed = dof_v.element_dofs
    skeleton = np.ones(dof_v.n_global, dtype=bool)
    skeleton[ed[:, I]] = False
    number = np.cumsum(skeleton) - 1  # skeleton numbering in global dof order
    eds = np.where(ed[:, S] >= 0, number[ed[:, S]], -1)
    try:
        L = np.linalg.cholesky(K[:, I[:, None], I])
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"interior stiffness block: {exc}") from exc
    rhs = [K[:, I[:, None], S], Bx[:, :, I].transpose(0, 2, 1), By[:, :, I].transpose(0, 2, 1)]
    Y = np.linalg.solve(L, np.concatenate(rhs, axis=2))
    del L, rhs
    ns, npl = len(S), Bx.shape[1]
    YS, Yx, Yy = Y[:, :, :ns], Y[:, :, ns : ns + npl], Y[:, :, ns + npl :]
    Khat = _symmetrize(K[:, S[:, None], S] - YS.transpose(0, 2, 1) @ YS)
    Cx = Bx[:, :, S] - Yx.transpose(0, 2, 1) @ YS
    Cy = By[:, :, S] - Yy.transpose(0, 2, 1) @ YS
    Dloc = _symmetrize(Yx.transpose(0, 2, 1) @ Yx + Yy.transpose(0, 2, 1) @ Yy)
    n_s, n_i = int(skeleton.sum()), Y.shape[0] * Y.shape[1]
    rows = np.arange(n_i).reshape(Y.shape[:2])
    return (
        _vector_stiffness(eds, Khat, n_s),
        _coupling(edp, eds, Cx, Cy, (n_p, n_s)),
        _scatter(edp, edp, Dloc, (n_p, n_p)),
        sparse.vstack(
            [_scatter(rows, edp, Yx, (n_i, n_p)), _scatter(rows, edp, Yy, (n_i, n_p))],
            format="csr",
        ),
    )


def assemble_system(
    dof_v: DofMap, dof_p: DofMap, parent_map: ParentMap | None = None
) -> AssembledSystem:
    """A, B, Mp and m, and the condensed (Ahat, C, D, E), from one pass
    over the element matrices; those are dropped on return."""
    K = _stiffness_blocks(dof_v)
    Bx, By, edp = _divergence_blocks(dof_v, dof_p, parent_map)
    Mp, m = assemble_pressure_mass(dof_p)
    ed, n_v, n_p = dof_v.element_dofs, dof_v.n_global, dof_p.n_global
    A = _vector_stiffness(ed, K, n_v)
    B = _coupling(edp, ed, Bx, By, (n_p, n_v))
    Ahat, C, D, E = _condense(dof_v, K, Bx, By, edp, n_p)
    return AssembledSystem(A=A, B=B, Mp=Mp, m=m, Ahat=Ahat, C=C, D=D, E=E)


def export_matrix_coo(mat, path) -> None:
    """Write a matrix in the `matrixcoo` text format (0-based indices)."""
    coo = sparse.coo_matrix(mat)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", newline="\n") as f:
        f.write(f"matrixcoo {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            f.write(f"{i} {j} {v:.17g}\n")
