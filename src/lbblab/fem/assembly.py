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
they are read (`AssembledSystem`).  One routine, `_condense`, runs twice:
the element pass eliminates every element's interior Lagrange nodes, and on
nested pairs the nested pass every remaining dof whose fine elements all
lie in one pressure element.  Both levels eliminate once per class of
congruent patch groups (see `_condense` for the canonical numbering and the
empty-slot rule that make them congruent).
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
    return _unique_rows(key)


def _unique_rows(a: np.ndarray):
    """(first, inverse): the first of every set of equal rows of the integer
    array a, and every row's set.  The rows are compared as raw bytes, which
    sorts them faster than np.unique(axis=0) does."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


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

    Returns (maps, map_class, p_elem): the bitwise-distinct child-to-parent
    affine reference maps as rows (matrix, offset), the map of every velocity
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
    first, map_class = _unique_rows(stacked.view(np.int64))  # bits: 0.0 and -0.0 differ
    return stacked[first], map_class, parent_map.parent


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
    E = L^{-1} B_I^T for the Cholesky factors A_II = L L^T of both passes
    of the one elimination routine, `_condense`: the element interiors,
    then on nested pairs the rest of each pressure element's interior, each
    factored once per class of congruent groups.  The dense and Woodbury
    routes take D assembled, while D q = E^T (E q) keeps q.Dq at the
    roundoff floor squared on near-null pressure modes.  Without interior
    dofs Ahat = A, C = B, D = 0 and E has no rows.

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
    """One pass of `_condense`: its D and E, and per group what scatters
    Ahat and C (`assemble_system`, from the last pass).  Group g has the
    matrices of its class index[g], zero-padded to the largest class: Khat
    to the scalar stiffness on its kept dofs eds[g] (-1: no dof), Cx and Cy
    to the component blocks of C on its pressures edp[g]."""

    eds: np.ndarray
    Khat: np.ndarray
    Cx: np.ndarray
    Cy: np.ndarray
    edp: np.ndarray
    index: np.ndarray
    n_s: int
    D: sparse.csr_matrix
    E: sparse.csr_matrix


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


_MACRO_BATCH = 1 << 20  # dense group matrix entries per batched elimination (8 MB)


def _layout(dofs: np.ndarray, group: np.ndarray, inside: np.ndarray):
    """(order, local, pairs): the patches group by group in patch order, the
    group-local number local[q, s] of slot s of patch order[q], and every
    dof d of every group g once as pairs = (g, l, d, is_in), l its local
    number and d = -1 for an empty slot; numbered as `_condense` says."""
    n = len(inside)
    order = np.argsort(group, kind="stable")
    g = np.repeat(group[order], dofs.shape[1])
    d = dofs[order].ravel()
    d = np.where(d >= 0, d, n + np.arange(d.size))
    # every entry's first entry of its dof in its group: only the patches of
    # groups of two or more can repeat a dof
    first = np.arange(d.size)
    shared = np.flatnonzero(np.bincount(group)[g] > 1)
    key = g[shared] * (n + d.size) + d[shared]
    pos = np.argsort(key, kind="stable")
    head = np.ones(len(pos), dtype=bool)
    head[1:] = key[pos[1:]] != key[pos[:-1]]
    first[shared[pos]] = shared[pos[head]][np.cumsum(head) - 1]
    new = np.flatnonzero(first == np.arange(d.size))
    pg, pd = g[new], np.where(d[new] < n, d[new], -1)
    is_in = (pd >= 0) & inside[pd]
    by = np.argsort(2 * pg + ~is_in, kind="stable")  # per group: inside dofs first
    count = np.bincount(pg)
    rank = np.empty(d.size, dtype=np.intp)
    rank[new[by]] = np.arange(len(new)) - np.repeat(np.cumsum(count) - count, count)
    return order, rank[first].reshape(dofs.shape), (pg, rank[new], pd, is_in)


def _condense(dofs, cls, K, Bx, By, group, edp, n_p: int, inside) -> _Patches:
    """The dofs marked `inside` eliminated, group by group.

    Patch q has the dofs dofs[q] (-1: an empty slot) and the matrices K, Bx,
    By of its class cls[q], and lies in group group[q] with the pressures
    edp[group[q]] of n_p.  All patches of an inside dof lie in one group, so
    the elimination is group-local, on dense group matrices summed from the
    member patches in patch order.  Each group numbers its dofs (`_layout`)
    not by global dof number but by first appearance over (member patch,
    slot), its inside dofs first, then the rest.  An empty slot counts as a
    kept dof of its own, which the scatter drops, so a boundary element
    keeps its class's layout: otherwise every boundary pattern would be a
    class of its own (216 instead of 178 on SV 24x6), and the reordered
    elimination moved the last bits of 1446 of Ahat's 111250 entries there.
    Groups with equal member classes and equal layout have equal dense
    matrices, so `_eliminate` runs once per class of groups, batched by
    size: once per element class in the element pass, 9 times for the 32
    pressure elements of 8x4 Q1dc pressures in the nested pass (interior, 4
    sides, 4 corners).  By Sylvester's law A is SPD iff every eliminated
    block and Ahat are: a failed Cholesky raises NotPositiveDefinite, and
    factorizing Ahat checks the rest.
    """
    ng, npl = edp.shape
    order, local, (pg, pl, pd, is_in) = _layout(dofs, group, inside)
    n_in = np.bincount(pg[is_in], minlength=ng)
    n_out = np.bincount(pg, minlength=ng) - n_in
    g, c_of = group[order], cls[order]
    size = np.bincount(g, minlength=ng)
    j = np.arange(len(g)) - np.repeat(np.cumsum(size) - size, size)
    # member j of group g is the patch order[members[g, j]]
    members = np.full((ng, size.max()), -1)
    members[g, j] = np.arange(len(g))
    layout = np.full((ng, size.max(), dofs.shape[1]), -1)
    layout[g, j] = local
    # the sizes lead the key, so the classes of one size are numbered consecutively
    key = np.column_stack(
        [n_in, n_out, np.where(members >= 0, c_of[members], -1), layout.reshape(ng, -1)]
    )
    rep, index = _unique_rows(key)
    ni_c, ns_c = n_in[rep], n_out[rep]
    ni, ns = ni_c.max(), ns_c.max()
    shapes = [(ns, ns), (npl, ns), (npl, ns), (npl, npl), (ni, npl), (ni, npl)]
    Khat, Cx, Cy, Dloc, Yx, Yy = out = [np.zeros((len(rep), *shape)) for shape in shapes]
    bounds = np.r_[0, np.flatnonzero((np.diff(ni_c) != 0) | (np.diff(ns_c) != 0)) + 1, len(rep)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = ni_c[lo] + ns_c[lo]
        step = max(1, _MACRO_BATCH // (n * n))
        for a in range(lo, hi, step):
            b = slice(a, min(a + step, hi))
            dense = _dense_blocks(members[rep[b]], local, c_of, K, Bx, By, n, ni_c[lo])
            for o, r in zip(out, _eliminate(*dense)):
                o[b, : r.shape[1], : r.shape[2]] = r
    # Ahat's numbering of the kept dofs, E's of the inside ones
    number, row = np.cumsum(~inside) - 1, np.cumsum(inside) - 1
    eds, rows = np.full((ng, ns), -1), np.full((ng, ni), -1)
    kg, kd = pg[~is_in], pd[~is_in]
    eds[kg, pl[~is_in] - n_in[kg]] = np.where(kd >= 0, number[kd], -1)
    rows[pg[is_in], pl[is_in]] = row[pd[is_in]]
    D = _scatter(edp, edp, Dloc[index], (n_p, n_p))
    shape = (int(inside.sum()), n_p)
    E = sparse.vstack([_scatter(rows, edp, Y[index], shape) for Y in (Yx, Yy)], format="csr")
    return _Patches(eds, Khat, Cx, Cy, edp, index, int((~inside).sum()), D, E)


def _dense_blocks(members, local, c_of, K, Bx, By, n: int, ni: int):
    """(K, Bx, By, I, S): the dense matrices of the groups whose member
    patches are the rows of members (-1: none), summed in member order over
    the n local dofs, and the positions of the ni inside and of the other
    local dofs.  Groups of one patch and one layout, as in the element pass,
    keep their class matrices, signed zeros included (a sum starts from
    +0.0): I and S then index them in slot order."""
    loc = local[members[:, 0]]
    if members.shape[1] == 1 and (loc == loc[0]).all():
        c, at = c_of[members[:, 0]], np.argsort(loc[0])
        return K[c], Bx[c], By[c], at[:ni], at[ni:]
    b, npl = len(members), Bx.shape[1]
    at, m = np.nonzero(members >= 0)
    loc, c = local[members[at, m]], c_of[members[at, m]]
    kk = (at[:, None, None] * n + loc[:, :, None]) * n + loc[:, None, :]
    bb = (at[:, None, None] * npl + np.arange(npl)[:, None]) * n + loc[:, None, :]
    Kd = np.bincount(kk.ravel(), K[c].ravel(), minlength=b * n * n).reshape(b, n, n)
    Bxd, Byd = (
        np.bincount(bb.ravel(), B[c].ravel(), minlength=b * npl * n).reshape(b, npl, n)
        for B in (Bx, By)
    )
    return Kd, Bxd, Byd, np.arange(ni), np.arange(ni, n)


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
    ed, edp = dof_v.element_dofs, dof_p.element_dofs[p_elem]
    n_v, n_p = dof_v.n_global, dof_p.n_global
    ref = reference_element(dof_v.space.family, dof_v.space.degree)
    interior = np.zeros(n_v, dtype=bool)
    interior[ed[:, ref.kind == "i"]] = True
    first = _condense(ed, inverse, K, Bx, By, np.arange(len(ed)), edp, n_p, interior)
    second = None
    if parent_map is not None:  # the nested pass: the dofs in one pressure element
        valid = first.eds >= 0
        pairs = np.unique((p_elem[:, None] * first.n_s + first.eds)[valid])
        inside = np.bincount(pairs % first.n_s, minlength=first.n_s) == 1
        if inside.any():
            second = _condense(
                first.eds, first.index, first.Khat, first.Cx, first.Cy, p_elem,
                dof_p.element_dofs, n_p, inside,
            )
    last = second or first
    i = last.index
    Ahat = _vector_stiffness(last.eds, last.Khat[i], last.n_s)
    C = _coupling(last.edp, last.eds, last.Cx[i], last.Cy[i], (n_p, last.n_s))
    D, E = first.D, first.E
    if second is not None:
        D, E = (D + second.D).tocsr(), sparse.vstack([E, second.E], format="csr")
    blocks = _ClassBlocks(K, Bx, By, inverse, ed, edp, n_v, n_p)
    return AssembledSystem(
        Mp=Mp, m=m, Ahat=Ahat, C=C, D=D, E=E, n_velocity=2 * n_v, blocks=blocks
    )
