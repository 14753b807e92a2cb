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
`assemble_system` condenses the velocity dofs inside one pressure element
out of the same class matrices and builds the uncondensed A and B only when
they are read (`AssembledSystem`).  The first pass (`_condense`) eliminates
the Lagrange nodes inside one velocity element; on nested pairs a second
pass (`_condense_macros`) eliminates the remaining dofs whose fine elements
all lie in one pressure element, one dense macro block per pressure element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _stiffness_blocks(dof_v: DofMap, rep) -> np.ndarray:
    """Scalar grad-grad element matrices (nc, nb, nb) of the elements rep,
    exactly symmetric."""
    space = dof_v.space
    ref = reference_element(space.family, space.degree)
    rule = quad_rule(space.family, 2 * space.degree + 2)
    G, det = _physical_gradients(dof_v.mesh, rule.points, ref.grad(rule.points), rep)
    nc, nq, _, nb = G.shape
    wdet = rule.weights[None, :] * det
    Gw = (G * wdet[:, :, None, None]).reshape(nc, 2 * nq, nb)
    return _symmetrize(np.matmul(Gw.transpose(0, 2, 1), G.reshape(nc, 2 * nq, nb)))


def _vector_stiffness(element_dofs, K: np.ndarray, n: int) -> sparse.csr_matrix:
    """diag(K, K) from the scalar element matrices K over n scalar dofs."""
    scalar = _scatter(element_dofs, element_dofs, K, (n, n))
    return sparse.block_diag([scalar, scalar], format="csr")


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


def _divergence_blocks(dof_v: DofMap, dof_p: DofMap, rep, maps, map_class: np.ndarray):
    """Element matrices (Bx, By), each (nc, nbP, nb), of the velocity
    elements rep, with the pressure maps of `_pressure_maps`."""
    sv, sp = dof_v.space, dof_p.space
    rule = quad_rule(sv.family, 2 * max(sv.degree, sp.degree) + 2)
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


def assemble_pressure_mass(dof_p: DofMap) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Pressure mass matrix and the mean vector m with m_i = integral of psi_i."""
    sp_ = dof_p.space
    ref = reference_element(sp_.family, sp_.degree)
    rule = quad_rule(sp_.family, 2 * sp_.degree + 2)
    rep, inverse = _element_classes(dof_p.mesh)
    det, _ = _element_geometry(dof_p.mesh, rule.points, rep)
    wdet = rule.weights[None, :] * det
    psi = ref.eval(rule.points)
    Mloc = _symmetrize(np.matmul(psi.T[None] * wdet[:, None, :], psi))
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
    interior velocity dofs I (velocity dofs inside one pressure element)
    from the stiffness A and coupling B leaves the skeleton dofs S and
    B A^{-1} B^T = D + C Ahat^{-1} C^T with

        Ahat = A_SS - A_SI A_II^{-1} A_IS,  C = B_S - B_I A_II^{-1} A_IS,
        D = B_I A_II^{-1} B_I^T.

    Ahat = diag(Khat, Khat) is SPD and couples the skeleton dofs of each
    pressure element, and D has Mp's sparsity pattern.  D = E^T E with
    E = L^{-1} B_I^T for the Cholesky factors A_II = L L^T of each
    elimination pass (the element interiors, then on nested pairs the rest
    of each pressure element's interior): the dense and Woodbury routes
    take D assembled, while D q = E^T (E q) keeps q.Dq at the roundoff
    floor squared on near-null pressure modes.  Without interior dofs
    Ahat = A, C = B, D = 0 and E has no rows.

    The solve path reads only the condensed forms.  The uncondensed A and B
    are read by the test oracles (``tests/conftest.py``) and the benchmark
    tracer: each is scattered from the retained class matrices on first
    access.  n_velocity, the size of A, is known without building it.
    """

    Mp: sparse.csr_matrix
    m: np.ndarray
    Ahat: sparse.csr_matrix
    C: sparse.csr_matrix
    D: sparse.csr_matrix
    E: sparse.csr_matrix
    n_velocity: int
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


@dataclass(frozen=True)
class _Patches:
    """The condensed matrices of one elimination pass, per patch: a velocity
    element, or a macro (the fine elements of one pressure element).

    Patch q has the matrices of index i = index[q] (its element class in
    the first pass).  It adds Khat[i] to the scalar skeleton stiffness on
    its skeleton dofs eds[q], and Cx[i] and Cy[i] to the two component
    blocks of C on its pressures edp[q].  Its eliminated dofs are the rows
    rows[q] of each component block of E, with entries Yx[i] and Yy[i], and
    add Dloc[i] to D.  A -1 in eds or rows marks a slot that holds no dof.
    The matrices are expanded to every patch only for the scatter.
    """

    eds: np.ndarray
    Khat: np.ndarray
    Cx: np.ndarray
    Cy: np.ndarray
    edp: np.ndarray
    rows: np.ndarray
    Yx: np.ndarray
    Yy: np.ndarray
    Dloc: np.ndarray
    index: np.ndarray
    n_s: int
    n_rows: int


def _skeleton_forms(p: _Patches, n_p: int):
    """(Ahat, C) scattered from the patches."""
    i = p.index
    C = _coupling(p.edp, p.eds, p.Cx[i], p.Cy[i], (n_p, p.n_s))
    return _vector_stiffness(p.eds, p.Khat[i], p.n_s), C


def _interior_forms(p: _Patches, n_p: int):
    """(D, E) scattered from the patches."""
    i, shape = p.index, (p.n_rows, n_p)
    D = _scatter(p.edp, p.edp, p.Dloc[i], (n_p, n_p))
    E = sparse.vstack(
        [_scatter(p.rows, p.edp, p.Yx[i], shape), _scatter(p.rows, p.edp, p.Yy[i], shape)],
        format="csr",
    )
    return D, E


def _eliminate(K, Bx, By, I: np.ndarray, S: np.ndarray):
    """(Khat, Cx, Cy, Dloc, Yx, Yy): the local dofs I eliminated from the
    batched patch matrices K (np, n, n) and Bx, By (np, nbP, n), leaving S.

    With K_II = L L^T (one batched Cholesky) and Y = L^{-1} [K_IS, Bx_I^T,
    By_I^T], a patch adds K_SS - Y_S^T Y_S to Khat, Bx_S - Y_x^T Y_S and
    By_S - Y_y^T Y_S to the two component blocks of C, Y_x^T Y_x + Y_y^T Y_y
    to D, and its own rows Y_x and Y_y to E.  A failed Cholesky raises
    NotPositiveDefinite.
    """
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


def _condense(dof_v: DofMap, K, Bx, By, inverse: np.ndarray, edp) -> _Patches:
    """The first pass: the interior Lagrange nodes of every element
    eliminated from the class matrices K, Bx, By; `inverse` gives every
    element's class.

    Interior nodes belong to one element each, so the elimination is
    element-local and per scalar component, and runs once per class.  By
    Sylvester's law A is SPD iff every K_II and Ahat are: a failed Cholesky
    raises NotPositiveDefinite, and factorizing Ahat checks the rest.
    """
    ref = reference_element(dof_v.space.family, dof_v.space.degree)
    inner = np.array([kind[0] == "i" for kind in ref.node_kind])
    I, S = np.flatnonzero(inner), np.flatnonzero(~inner)
    ed = dof_v.element_dofs
    skeleton = np.ones(dof_v.n_global, dtype=bool)
    skeleton[ed[:, I]] = False
    number = np.cumsum(skeleton) - 1  # skeleton numbering in global dof order
    eds = np.where(ed[:, S] >= 0, number[ed[:, S]], -1)
    Khat, Cx, Cy, Dloc, Yx, Yy = _eliminate(K, Bx, By, I, S)
    rows = np.arange(len(ed) * len(I)).reshape(len(ed), len(I))
    return _Patches(
        eds, Khat, Cx, Cy, edp, rows, Yx, Yy, Dloc, inverse, int(skeleton.sum()), rows.size
    )


_MACRO_BATCH = 1 << 20  # dense macro matrix entries per batched elimination (8 MB)


def _macro_blocks(first: _Patches, slot, p_elem, ms, n: int, n_m: int):
    """Dense (Khat, Cx, Cy) of the macros ms over their n local dofs, summed
    from their fine elements in element order; slot holds the macro-local
    dof of every element slot (-1: none)."""
    at = np.full(n_m, -1)
    at[ms] = np.arange(len(ms))
    els = np.flatnonzero(at[p_elem] >= 0)
    at, loc = at[p_elem[els]], slot[els]
    ok = loc >= 0
    g, npl = len(ms), first.Cx.shape[1]
    kk = ok[:, :, None] & ok[:, None, :]
    idx = (at[:, None, None] * n + loc[:, :, None]) * n + loc[:, None, :]
    cls = first.index[els]
    K = np.bincount(idx[kk], first.Khat[cls][kk], minlength=g * n * n).reshape(g, n, n)
    cc = np.broadcast_to(ok[:, None, :], (len(els), npl, loc.shape[1]))
    idx = (at[:, None, None] * npl + np.arange(npl)[:, None]) * n + loc[:, None, :]
    Bx, By = (
        np.bincount(idx[cc], B[cls][cc], minlength=g * npl * n).reshape(g, npl, n)
        for B in (first.Cx, first.Cy)
    )
    return K, Bx, By


def _condense_macros(first: _Patches, p_elem: np.ndarray, edp_macro: np.ndarray):
    """The second pass, for nested pairs: every skeleton dof of `first`
    whose fine elements all lie in one pressure element (its macro)
    eliminated; None when no dof does, as on a shared mesh.

    Such a dof couples only to dofs of its own macro, so the elimination is
    macro-local: `_eliminate` runs on dense macro blocks summed from the
    fine elements' Khat, Cx and Cy, batched over macros of equal local
    sizes.  The pressures of macro m are edp_macro[m], those of every one
    of its fine elements, so continuous pressures work too.
    """
    eds, n_s = first.eds, first.n_s
    n_m, npl = edp_macro.shape
    valid = eds >= 0
    pairs, pair_of = np.unique((p_elem[:, None] * n_s + eds)[valid], return_inverse=True)
    macro, dof = np.divmod(pairs, n_s)
    inside = np.bincount(dof, minlength=n_s) == 1
    if not inside.any():
        return None
    # macro-local numbering: the macro's inside dofs, then its boundary dofs
    is_in = inside[dof]
    order = np.argsort(2 * macro + ~is_in, kind="stable")
    local = np.empty_like(order)
    local[order] = np.arange(len(order))
    count = np.bincount(macro, minlength=n_m)
    local -= (np.cumsum(count) - count)[macro]
    n_in = np.bincount(macro[is_in], minlength=n_m)
    n_b = count - n_in
    slot = np.full(eds.shape, -1)
    slot[valid] = local[pair_of]
    # the outputs, padded to the largest macro
    eds2 = np.full((n_m, n_b.max()), -1)
    rows = np.full((n_m, n_in.max()), -1)
    number, row = np.cumsum(~inside) - 1, np.cumsum(inside) - 1  # Ahat's and E's numbering
    edge = ~is_in
    eds2[macro[edge], local[edge] - n_in[macro[edge]]] = number[dof[edge]]
    rows[macro[is_in], local[is_in]] = row[dof[is_in]]
    Khat = np.zeros((n_m, eds2.shape[1], eds2.shape[1]))
    Cx, Cy = np.zeros((n_m, npl, eds2.shape[1])), np.zeros((n_m, npl, eds2.shape[1]))
    Yx, Yy = np.zeros((n_m, rows.shape[1], npl)), np.zeros((n_m, rows.shape[1], npl))
    Dloc = np.zeros((n_m, npl, npl))
    sizes, group = np.unique(np.column_stack([n_in, n_b]), axis=0, return_inverse=True)
    for g, (ni, nb) in enumerate(sizes):
        n = ni + nb
        members = np.flatnonzero(group.ravel() == g)
        step = max(1, _MACRO_BATCH // (n * n))
        for c in range(0, len(members), step):
            ms = members[c : c + step]
            K, Bx, By = _macro_blocks(first, slot, p_elem, ms, n, n_m)
            (
                Khat[ms, :nb, :nb], Cx[ms, :, :nb], Cy[ms, :, :nb], Dloc[ms],
                Yx[ms, :ni], Yy[ms, :ni],
            ) = _eliminate(K, Bx, By, np.arange(ni), np.arange(ni, n))
    return _Patches(
        eds2, Khat, Cx, Cy, edp_macro, rows, Yx, Yy, Dloc, np.arange(n_m),
        int((~inside).sum()), int(inside.sum()),
    )


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
    first = _condense(dof_v, K, Bx, By, inverse, edp)
    second = None
    if parent_map is not None:
        second = _condense_macros(first, p_elem, dof_p.element_dofs)
    Ahat, C = _skeleton_forms(second or first, n_p)
    D, E = _interior_forms(first, n_p)
    if second is not None:
        D2, E2 = _interior_forms(second, n_p)
        D, E = (D + D2).tocsr(), sparse.vstack([E, E2], format="csr")
    blocks = _ClassBlocks(K, Bx, By, inverse, dof_v.element_dofs, edp, n_v, n_p)
    return AssembledSystem(
        Mp=Mp, m=m, Ahat=Ahat, C=C, D=D, E=E, n_velocity=2 * n_v, blocks=blocks
    )
