"""Assembly of the vector stiffness, divergence coupling, and pressure mass.

Velocity spaces are scalar dof maps used componentwise: the assembled
stiffness is block-diagonal with two identical scalar blocks, and the
divergence matrix has an x-derivative block followed by a y-derivative
block.  Element matrices are batched matrix products (BLAS); the symmetric
ones (stiffness, pressure mass) are made exactly symmetric per element,
since a product of two differently weighted factors is symmetric only up
to roundoff.

An element matrix depends on its element only through the edge vectors
its reference map is built from, and for nested pressures through its
child-to-parent map.  The kernels therefore run once per class of
congruent elements (`_element_classes`: 1 class for all 2048 quads of a
uniform grid), and the class matrices are expanded to every element just
before the scatter.  Equal inputs give bitwise-equal element matrices, so
the result is the one of a kernel call per element, bit for bit; assembly
runs in fixed element order, so reruns agree bitwise too.
`assemble_system` condenses the interior velocity dofs out of the same
class matrices and builds the uncondensed A and B only when they are read
(`AssembledSystem`).  `SystemFamily` reassembles a system on a moved mesh
of the same connectivity from the moved elements alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from ..geometry import Mesh, ParentMap, reference_map
from ..spectral import NotPositiveDefinite
from .dofmap import DofMap
from .elements import reference_element
from .quadrature import quad_rule


def _element_classes(mesh: Mesh, tag: np.ndarray | None = None):
    """(rep, inverse): one representative element per class of congruent
    elements, and the class of every element.

    Two elements share a class when the edge vectors `reference_map` builds
    J from are bitwise equal (p1-p0 and p2-p0 on triangles; p1-p0, p3-p0 and
    p0-p1+p2-p3 on quads) and so are their integer tags, if given.
    """
    p = mesh.points[mesh.elements]
    if mesh.is_quad:
        edges = (p[:, 1] - p[:, 0], p[:, 3] - p[:, 0], p[:, 0] - p[:, 1] + p[:, 2] - p[:, 3])
    else:
        edges = (p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    key = np.concatenate(edges, axis=1).view(np.int64)  # bits: 0.0 and -0.0 differ
    if tag is not None:
        key = np.column_stack([key, tag])
    _, rep, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return rep, inverse.ravel()


def _element_geometry(mesh: Mesh, ref_pts: np.ndarray, rep=slice(None)):
    """(detJ, Jinv) at reference points, batched over the elements rep."""
    _, J = reference_map(mesh.points[mesh.elements[rep]], ref_pts)
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    if (det <= 0).any():
        raise ValueError("singular or inverted element Jacobian")
    Jinv = np.empty_like(J)
    Jinv[:, :, 0, 0] = J[:, :, 1, 1] / det
    Jinv[:, :, 0, 1] = -J[:, :, 0, 1] / det
    Jinv[:, :, 1, 0] = -J[:, :, 1, 0] / det
    Jinv[:, :, 1, 1] = J[:, :, 0, 0] / det
    return det, Jinv


def _physical_gradients(mesh: Mesh, ref_pts: np.ndarray, grad_hat: np.ndarray, rep):
    """Physical basis gradients and detJ at the reference points.

    grad_hat is the reference gradient table (nq, nb, 2).  Returns
    (G, det) with G of shape (nc, nq, 2, nb), G[c, q, d, b] the d-th
    partial derivative of basis function b at point q of element rep[c],
    and det of shape (nc, nq), unweighted.
    """
    det, Jinv = _element_geometry(mesh, ref_pts, rep)
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


def _stiffness_blocks(dof_v: DofMap, rep, exactness: int | None = None) -> np.ndarray:
    """Scalar grad-grad element matrices (nc, nb, nb) of the elements rep,
    exactly symmetric."""
    space = dof_v.space
    ref = reference_element(space.family, space.degree)
    rule = quad_rule(space.family, exactness if exactness is not None else 2 * space.degree + 2)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref.grad(rule.points), rep)
    nc, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    Gw = (G * wdet[:, :, None, None]).reshape(nc, 2 * nq, nb)
    return _symmetrize(np.matmul(Gw.transpose(0, 2, 1), G.reshape(nc, 2 * nq, nb)))


def _vector_stiffness(element_dofs, K: np.ndarray, n: int) -> sparse.csr_matrix:
    """diag(K, K) from the scalar element matrices K over n scalar dofs."""
    scalar = _scatter(element_dofs, element_dofs, K, (n, n))
    return sparse.block_diag([scalar, scalar], format="csr")


def assemble_stiffness(dof_v: DofMap, exactness: int | None = None) -> sparse.csr_matrix:
    """Vector Laplacian: block diag of two scalar grad-grad blocks.

    dof_v is the scalar velocity dof map (typically C0 with zero trace);
    rows and columns of eliminated dofs are dropped.
    """
    rep, inverse = _element_classes(dof_v.mesh)
    K = _stiffness_blocks(dof_v, rep, exactness)
    return _vector_stiffness(dof_v.element_dofs, K[inverse], dof_v.n_global)


def _pressure_maps(dof_p: DofMap, v_mesh: Mesh, parent_map: ParentMap | None):
    """How each velocity element sees the pressure basis.

    Returns (maps, map_class, p_elem): the distinct child-to-parent affine
    reference maps as rows (matrix, offset), the map of every velocity
    element, and the pressure element it lies in.  On a shared mesh maps is
    None and every element has the identity map 0.
    """
    ne = v_mesh.n_elements
    if parent_map is None:
        if dof_p.mesh is not v_mesh and not (
            np.array_equal(dof_p.mesh.points, v_mesh.points)
            and np.array_equal(dof_p.mesh.elements, v_mesh.elements)
        ):
            raise ValueError("pressure mesh differs from velocity mesh: parent map required")
        return None, np.zeros(ne, dtype=np.intp), np.arange(ne)
    if len(parent_map.parent) != ne:
        raise ValueError("parent map does not match the velocity mesh")
    stacked = np.concatenate(
        [parent_map.matrix.reshape(ne, 4), parent_map.offset], axis=1
    )
    maps, map_class = np.unique(stacked, axis=0, return_inverse=True)
    return maps, map_class.ravel(), parent_map.parent


def _pressure_tables(dof_p: DofMap, maps, ref_pts: np.ndarray) -> np.ndarray:
    """Pressure basis values (nmaps, nq, nbP) at the velocity rule points
    pushed through each map of `_pressure_maps` (exact for the nested
    uniform refinements produced by the geometry module)."""
    ref_p = reference_element(dof_p.space.family, dof_p.space.degree)
    if maps is None:
        return ref_p.eval(ref_pts)[None]
    return np.stack([ref_p.eval(ref_pts @ row[:4].reshape(2, 2).T + row[4:]) for row in maps])


def _divergence_blocks(
    dof_v: DofMap,
    dof_p: DofMap,
    rep,
    maps,
    map_class: np.ndarray,
    exactness: int | None = None,
):
    """Element matrices (Bx, By), each (nc, nbP, nb), of the velocity
    elements rep, with the pressure maps of `_pressure_maps`."""
    sv, sp = dof_v.space, dof_p.space
    rule = quad_rule(
        sv.family,
        exactness if exactness is not None else 2 * max(sv.degree, sp.degree) + 2,
    )
    ref_v = reference_element(sv.family, sv.degree)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref_v.grad(rule.points), rep)
    nc, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    psi = _pressure_tables(dof_p, maps, rule.points)[map_class[rep]]
    psiw = (psi * wdet[:, :, None]).transpose(0, 2, 1)
    del psi
    Bxy = np.matmul(psiw, G.reshape(nc, nq, 2 * nb))
    return Bxy[:, :, :nb], Bxy[:, :, nb:]


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
    maps, map_class, p_elem = _pressure_maps(dof_p, dof_v.mesh, parent_map)
    rep, inverse = _element_classes(dof_v.mesh, map_class)
    Bx, By = _divergence_blocks(dof_v, dof_p, rep, maps, map_class, exactness)
    shape = (dof_p.n_global, dof_v.n_global)
    return _coupling(
        dof_p.element_dofs[p_elem], dof_v.element_dofs, Bx[inverse], By[inverse], shape
    )


def _pressure_mass_blocks(dof_p: DofMap, rep, exactness: int | None = None):
    """(Mloc, wdet, psi) of the pressure elements rep: the exactly symmetric
    mass matrices (nc, nb, nb), the weights times detJ at the rule points
    (nc, nq), and the basis table (nq, nb); an element's share of the mean
    vector is its row of wdet @ psi."""
    sp_ = dof_p.space
    ref = reference_element(sp_.family, sp_.degree)
    rule = quad_rule(sp_.family, exactness if exactness is not None else 2 * sp_.degree + 2)
    det, _ = _element_geometry(dof_p.mesh, rule.points, rep)
    wdet = rule.weights[None, :] * det
    psi = ref.eval(rule.points)
    return _symmetrize(np.matmul(psi.T[None] * wdet[:, None, :], psi)), wdet, psi


def assemble_pressure_mass(
    dof_p: DofMap, exactness: int | None = None
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Pressure mass matrix and the mean vector m with m_i = integral of psi_i."""
    rep, inverse = _element_classes(dof_p.mesh)
    Mloc, wdet, psi = _pressure_mass_blocks(dof_p, rep, exactness)
    ed = dof_p.element_dofs
    n = dof_p.n_global
    Mp = _scatter(ed, ed, Mloc[inverse], (n, n))
    m = np.zeros(n)
    # from the expanded weights: with one class, (1, nq) @ psi would take
    # numpy's matrix-vector route, whose sums round differently
    np.add.at(m, ed.ravel(), (wdet[inverse] @ psi).ravel())
    return Mp, m


@dataclass(frozen=True)
class _ClassBlocks:
    """Velocity element matrices per element class, and what scatters them:
    `inverse` gives every element's class, `ed` and `edp` its velocity and
    pressure dofs."""

    K: np.ndarray
    Bx: np.ndarray
    By: np.ndarray
    inverse: np.ndarray
    ed: np.ndarray
    edp: np.ndarray
    n_v: int
    n_p: int


def _uncondensed_stiffness(blocks: _ClassBlocks) -> sparse.csr_matrix:
    return _vector_stiffness(blocks.ed, blocks.K[blocks.inverse], blocks.n_v)


def _uncondensed_coupling(blocks: _ClassBlocks) -> sparse.csr_matrix:
    inv = blocks.inverse
    shape = (blocks.n_p, blocks.n_v)
    return _coupling(blocks.edp, blocks.ed, blocks.Bx[inv], blocks.By[inv], shape)


@dataclass(frozen=True)
class AssembledSystem:
    """The three bilinear forms of one velocity/pressure pairing, and the
    same pressure Schur complement after static condensation.

    Mp and m are the pressure mass and mean vector.  Eliminating the
    interior velocity dofs I (Lagrange nodes inside one element) from the
    stiffness A and coupling B leaves the skeleton dofs S and
    B A^{-1} B^T = D + C Ahat^{-1} C^T with

        Ahat = A_SS - A_SI A_II^{-1} A_IS,  C = B_S - B_I A_II^{-1} A_IS,
        D = B_I A_II^{-1} B_I^T.

    Ahat = diag(Khat, Khat) is SPD and couples the skeleton dofs of each
    element, and D has Mp's sparsity pattern.  D = E^T E with
    E = L^{-1} B_I^T for the element Cholesky factors A_II = L L^T: the
    dense and Woodbury routes take D assembled, while D q = E^T (E q) keeps
    q.Dq at the roundoff floor squared on near-null pressure modes.
    Without interior dofs Ahat = A, C = B, D = 0 and E has no rows.

    The solve path reads only the condensed forms.  The uncondensed A and B
    serve the oracles and the export: each is scattered from the retained
    class matrices on first access.  n_velocity and nnz_A, the size and
    nonzero count of A, are known without building it.
    """

    Mp: sparse.csr_matrix
    m: np.ndarray
    Ahat: sparse.csr_matrix
    C: sparse.csr_matrix
    D: sparse.csr_matrix
    E: sparse.csr_matrix
    n_velocity: int
    nnz_A: int
    blocks: _ClassBlocks = field(repr=False)

    @cached_property
    def A(self) -> sparse.csr_matrix:
        return _uncondensed_stiffness(self.blocks)

    @cached_property
    def B(self) -> sparse.csr_matrix:
        return _uncondensed_coupling(self.blocks)

    @property
    def n_pressure(self) -> int:
        return self.Mp.shape[0]


def _skeleton(dof_v: DofMap):
    """(I, S, eds, n_s): the local interior nodes (Lagrange nodes inside one
    element) and the other, skeleton nodes; every element's skeleton dofs in
    the skeleton numbering (global dof order, -1 where eliminated); and the
    number of skeleton dofs."""
    ref = reference_element(dof_v.space.family, dof_v.space.degree)
    inner = np.array([kind[0] == "i" for kind in ref.node_kind])
    I, S = np.flatnonzero(inner), np.flatnonzero(~inner)
    ed = dof_v.element_dofs
    skeleton = np.ones(dof_v.n_global, dtype=bool)
    skeleton[ed[:, I]] = False
    number = np.cumsum(skeleton) - 1  # skeleton numbering in global dof order
    eds = np.where(ed[:, S] >= 0, number[ed[:, S]], -1)
    return I, S, eds, int(skeleton.sum())


def _condensed_blocks(K, Bx, By, I: np.ndarray, S: np.ndarray):
    """(Khat, Cx, Cy, Dloc, Yx, Yy) per element or class, as in `_condense`,
    from the element matrices K, Bx, By and the interior and skeleton
    nodes I and S."""
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
    return Khat, Cx, Cy, Dloc, Yx, Yy


def _condense(dof_v: DofMap, K, Bx, By, inverse: np.ndarray, edp, n_p: int):
    """(Ahat, C, D, E) of `AssembledSystem` and nnz(A) from the class
    matrices K, Bx, By and the class `inverse` of every element.

    Interior dofs belong to one element each, so the condensation is
    element-local and per scalar component, and runs once per class.  With
    K_II = L L^T (one batched Cholesky) and Y = L^{-1} [K_IS, Bx_I^T, By_I^T],
    an element adds K_SS - Y_S^T Y_S to Khat, Bx_S - Y_x^T Y_S and
    By_S - Y_y^T Y_S to the two component blocks of C, Y_x^T Y_x + Y_y^T Y_y
    to D, and its own rows Y_x and Y_y to E.  By Sylvester's law A is SPD
    iff every K_II and Ahat are: a failed Cholesky raises
    NotPositiveDefinite, and factorizing Ahat checks the rest.  A has the
    entries of Ahat plus, per element and component, n_I^2 + 2 n_I n_S(e)
    in the rows and columns of its n_I interior dofs, n_S(e) being the
    element's skeleton dofs that are not eliminated.
    """
    I, S, eds, n_s = _skeleton(dof_v)
    Khat, Cx, Cy, Dloc, Yx, Yy = _condensed_blocks(K, Bx, By, I, S)
    ed, n_I = dof_v.element_dofs, len(I)
    rows = np.arange(len(ed) * n_I).reshape(len(ed), n_I)
    Ahat = _vector_stiffness(eds, Khat[inverse], n_s)
    C = _coupling(edp, eds, Cx[inverse], Cy[inverse], (n_p, n_s))
    D = _scatter(edp, edp, Dloc[inverse], (n_p, n_p))
    E = sparse.vstack(
        [
            _scatter(rows, edp, Yx[inverse], (rows.size, n_p)),
            _scatter(rows, edp, Yy[inverse], (rows.size, n_p)),
        ],
        format="csr",
    )
    nnz_A = Ahat.nnz + 2 * (rows.size * n_I + 2 * n_I * int((eds >= 0).sum()))
    return Ahat, C, D, E, nnz_A


def assemble_system(
    dof_v: DofMap, dof_p: DofMap, parent_map: ParentMap | None = None
) -> AssembledSystem:
    """Mp and m, and the condensed (Ahat, C, D, E), from one kernel pass per
    element class; A and B follow on access (`AssembledSystem`)."""
    maps, map_class, p_elem = _pressure_maps(dof_p, dof_v.mesh, parent_map)
    rep, inverse = _element_classes(dof_v.mesh, map_class)
    K = _stiffness_blocks(dof_v, rep)
    Bx, By = _divergence_blocks(dof_v, dof_p, rep, maps, map_class)
    Mp, m = assemble_pressure_mass(dof_p)
    edp, n_v, n_p = dof_p.element_dofs[p_elem], dof_v.n_global, dof_p.n_global
    Ahat, C, D, E, nnz_A = _condense(dof_v, K, Bx, By, inverse, edp, n_p)
    blocks = _ClassBlocks(K, Bx, By, inverse, dof_v.element_dofs, edp, n_v, n_p)
    return AssembledSystem(
        Mp=Mp, m=m, Ahat=Ahat, C=C, D=D, E=E, n_velocity=2 * n_v, nnz_A=nnz_A, blocks=blocks
    )


class _MovingEntries:
    """A CSR matrix `_scatter`ed from element matrices, whose entries from a
    few moved elements are rewritten in place.

    `row_dofs`, `col_dofs` and `local0` are the moved elements' dofs and
    their matrices in `matrix`.  What the other elements contribute to the
    entries the moved ones touch is kept (`matrix` minus theirs), and
    `update(local)` writes it plus the new matrices `local` into `matrix`'s
    data.  An entry of one element is then exactly its new value; an entry
    that moved and fixed elements share may round differently from a fresh
    `_scatter`.
    """

    def __init__(self, matrix: sparse.csr_matrix, row_dofs, col_dofs, local0: np.ndarray):
        matrix.sort_indices()
        nr, nc = row_dofs.shape[1], col_dofs.shape[1]
        rows = np.repeat(row_dofs, nc, axis=1).ravel()
        cols = np.tile(col_dofs, (1, nr)).ravel()
        self._keep = (rows >= 0) & (cols >= 0)
        n = matrix.shape[1]
        row_of = np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))
        slot = np.searchsorted(
            row_of * n + matrix.indices, rows[self._keep].astype(np.int64) * n + cols[self._keep]
        )
        self.matrix = matrix
        self._touched, self._slot = np.unique(slot, return_inverse=True)
        self._fixed = matrix.data[self._touched] - self._sums(local0)

    def _sums(self, local: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._slot, weights=local.ravel()[self._keep], minlength=len(self._touched)
        )

    def update(self, local: np.ndarray) -> sparse.csr_matrix:
        self.matrix.data[self._touched] = self._fixed + self._sums(local)
        return self.matrix


class SystemFamily:
    """Condensed systems of one pairing on meshes that share a first mesh's
    connectivity and differ from it only at the `moved` elements.

    Built from the first mesh's `system` and its dof maps, with velocities
    and pressures on the same mesh.  `system(mesh)` runs the kernels and the
    condensation of the moved elements only and writes their entries into
    the first system's matrices, in place (`_MovingEntries`): the matrices
    it returns are the same objects at every call.  With discontinuous
    pressures every entry of Mp, C, D and E belongs to one element, so
    these equal `assemble_system`'s bit for bit; entries of Ahat that moved
    and fixed elements share may round differently.
    """

    def __init__(self, system: AssembledSystem, dof_v: DofMap, dof_p: DofMap, moved: np.ndarray):
        _pressure_maps(dof_p, dof_v.mesh, None)  # same mesh, no parent map
        self.dof_v, self.dof_p, self.blocks = dof_v, dof_p, system.blocks
        mv = self.moved = np.flatnonzero(moved)
        self.I, self.S, eds, n_s = _skeleton(dof_v)
        ne, n_I = dof_v.mesh.n_elements, len(self.I)
        rows = np.arange(ne * n_I).reshape(ne, n_I)[mv]
        eds2 = np.concatenate([eds[mv], np.where(eds[mv] >= 0, eds[mv] + n_s, -1)])
        edp = dof_p.element_dofs[mv]
        edp2 = np.concatenate([edp, edp])
        (Khat2, C2, Dloc, E2, Mloc, mloc), _ = self._moved_blocks(dof_v, dof_p)
        self._Ahat = _MovingEntries(system.Ahat, eds2, eds2, Khat2)
        self._C = _MovingEntries(system.C, edp2, eds2, C2)
        self._D = _MovingEntries(system.D, edp, edp, Dloc)
        self._E = _MovingEntries(system.E, np.concatenate([rows, rows + ne * n_I]), edp2, E2)
        self._Mp = _MovingEntries(system.Mp, edp, edp, Mloc)
        self._m = system.m
        self._m_dofs, self._m_slot = np.unique(edp, return_inverse=True)
        self._m_fixed = self._m[self._m_dofs] - self._m_sums(mloc)
        self.n_velocity, self.nnz_A = system.n_velocity, system.nnz_A

    def _m_sums(self, mloc: np.ndarray) -> np.ndarray:
        return np.bincount(self._m_slot.ravel(), weights=mloc.ravel(), minlength=len(self._m_dofs))

    def _moved_blocks(self, dof_v: DofMap, dof_p: DofMap):
        """The moved elements' matrices: the two components of Khat, C and E
        stacked, D, the pressure mass and the mean vector shares."""
        mv = self.moved
        K = _stiffness_blocks(dof_v, mv)
        Bx, By = _divergence_blocks(dof_v, dof_p, mv, None, np.zeros(dof_v.mesh.n_elements, int))
        Khat, Cx, Cy, Dloc, Yx, Yy = _condensed_blocks(K, Bx, By, self.I, self.S)
        Mloc, wdet, psi = _pressure_mass_blocks(dof_p, mv)
        stacked = (np.concatenate([Khat, Khat]), np.concatenate([Cx, Cy]), Dloc,
                   np.concatenate([Yx, Yy]), Mloc, wdet @ psi)
        return stacked, (K, Bx, By)

    def system(self, mesh: Mesh) -> AssembledSystem:
        """The condensed system on `mesh`, a member of the family; the
        matrices are rewritten by the next call."""
        # the kernels read only the mesh and the space of a dof map
        dof_v, dof_p = replace(self.dof_v, mesh=mesh), replace(self.dof_p, mesh=mesh)
        (Khat2, C2, Dloc, E2, Mloc, mloc), (K, Bx, By) = self._moved_blocks(dof_v, dof_p)
        self._m[self._m_dofs] = self._m_fixed + self._m_sums(mloc)
        b = self.blocks
        inverse = b.inverse.copy()
        inverse[self.moved] = len(b.K) + np.arange(len(self.moved))
        blocks = replace(
            b, K=np.concatenate([b.K, K]), Bx=np.concatenate([b.Bx, Bx]),
            By=np.concatenate([b.By, By]), inverse=inverse,
        )
        return AssembledSystem(
            Mp=self._Mp.update(Mloc),
            m=self._m,
            Ahat=self._Ahat.update(Khat2),
            C=self._C.update(C2),
            D=self._D.update(Dloc),
            E=self._E.update(E2),
            n_velocity=self.n_velocity,
            nnz_A=self.nnz_A,
            blocks=blocks,
        )


def export_matrix_coo(mat, path) -> None:
    """Write a matrix in the `matrixcoo` text format (0-based indices)."""
    coo = sparse.coo_matrix(mat)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", newline="\n") as f:
        f.write(f"matrixcoo {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            f.write(f"{i} {j} {v:.17g}\n")
