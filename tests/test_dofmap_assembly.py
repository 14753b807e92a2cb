import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy import sparse

from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_pressure_mass,
    assemble_system,
    build_dof_map,
    quad_rule,
)
from lbblab.fem import assembly
from lbblab.fem.elements import gauss_lobatto, reference_element
from lbblab.geometry import (
    SvSplitParams,
    make_mesh,
    rect_grid,
    refine_chain,
    regular_polygon_mesh,
    sv_split,
)

from conftest import EDGE_MESHES, loop_dof_map, permuted_sv_mesh


def _stiffness(dv):
    """The uncondensed stiffness A of dv, assembled with a piecewise constant
    pressure space on the same mesh."""
    p0 = ElementSpace(dv.space.family, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    return assemble_system(dv, build_dof_map(dv.mesh, p0)).A


SINGLE_TRI = make_mesh(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
)


# ---------------------------------------------------------------- dof maps


def test_dof_counts():
    d = build_dof_map(
        regular_polygon_mesh(3, 0),
        ElementSpace(Family.TRIANGLE, 1, Continuity.C0, BoundaryCondition.ZERO_TRACE),
    )
    assert d.n_global == 1

    d2 = build_dof_map(
        SINGLE_TRI, ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.NONE)
    )
    assert d2.n_global == 15

    d3 = build_dof_map(
        rect_grid(1, 1, 1, 1),
        ElementSpace(Family.QUAD, 3, Continuity.C0, BoundaryCondition.ZERO_TRACE),
    )
    assert d3.n_global == 4


def test_discontinuous_counts():
    mesh = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4))
    d = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    assert d.n_global == 16 * 10


def test_space_validation():
    with pytest.raises(ValueError):
        ElementSpace(Family.TRIANGLE, 0, Continuity.C0, BoundaryCondition.NONE)
    with pytest.raises(ValueError):
        ElementSpace(Family.TRIANGLE, 1, Continuity.DISCONTINUOUS, BoundaryCondition.ZERO_TRACE)
    with pytest.raises(ValueError):
        build_dof_map(
            SINGLE_TRI, ElementSpace(Family.QUAD, 1, Continuity.C0, BoundaryCondition.NONE)
        )


def test_shared_edge_dofs_consistent():
    mesh = regular_polygon_mesh(6, 1)
    space = ElementSpace(Family.TRIANGLE, 3, Continuity.C0, BoundaryCondition.NONE)
    d = build_dof_map(mesh, space)
    # a dof id must sit at a single physical location
    seen = {}
    ref = reference_element(Family.TRIANGLE, 3)
    for e in range(mesh.n_elements):
        verts = mesh.points[mesh.elements[e]]
        for loc in range(d.element_dofs.shape[1]):
            g = d.element_dofs[e, loc]
            x, y = ref.nodes[loc]
            pos = tuple(np.round(verts[0] * (1 - x - y) + verts[1] * x + verts[2] * y, 12))
            assert seen.setdefault(g, pos) == pos
    assert len(seen) == d.n_global


def test_element_order_permutation_invariance():
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3))
    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.n_elements)
    mesh2 = make_mesh(mesh.points, mesh.elements[perm])
    space = ElementSpace(Family.TRIANGLE, 3, Continuity.C0, BoundaryCondition.NONE)
    d1 = build_dof_map(mesh, space)
    d2 = build_dof_map(mesh2, space)
    A1 = _stiffness(d1)
    A2 = _stiffness(d2)
    # match global dofs through their physical node positions
    key1 = {tuple(np.round(p, 12)): i for i, p in enumerate(d1.dof_points)}
    to1 = np.array([key1[tuple(np.round(p, 12))] for p in d2.dof_points])
    n = d1.n_global
    to1v = np.concatenate([to1, n + to1])
    Pm = sparse.coo_matrix(
        (np.ones(2 * n), (to1v, np.arange(2 * n))), shape=(2 * n, 2 * n)
    ).tocsr()
    diff = abs(Pm @ A2 @ Pm.T - A1).max()
    assert diff <= 1e-13 * abs(A1).max()


NUMBERING_CASES = (
    [(f"SV24x6-P{n}", lambda: sv_mesh(4, 1, 24, 6, 0.4, 0.04), Family.TRIANGLE, n)
     for n in range(1, 7)]
    + [("fan64-P4", lambda: regular_polygon_mesh(64, 1), Family.TRIANGLE, 4)]
    + [(f"permuted-SV-P{n}", permuted_sv_mesh, Family.TRIANGLE, n) for n in (2, 3, 5)]
    + [(f"2x2-Q{n}", lambda: rect_grid(2, 1, 2, 2), Family.QUAD, n) for n in range(1, 17)]
    + [(f"8x4-refined-Q{n}", lambda: refine_chain(rect_grid(2, 1, 8, 4), 3)[0], Family.QUAD, n)
       for n in (2, 3)]
    + [
        (f"edges-{name}-r{r}-{'Q' if quad else 'P'}{n}",
         lambda make=make, r=r: refine_chain(make(), r)[0],
         Family.QUAD if quad else Family.TRIANGLE, n)
        for name, make, depth in EDGE_MESHES
        for quad in [make().is_quad]
        for r in (0, depth)
        for n in (1, 2, 4)
    ]
)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize(
    "make, family, degree",
    [case[1:] for case in NUMBERING_CASES],
    ids=[case[0] for case in NUMBERING_CASES],
)
def test_numbering_is_the_loop_numbering(make, family, degree, bc):
    mesh = make()
    space = ElementSpace(family, degree, Continuity.C0, bc)
    got, want = build_dof_map(mesh, space), loop_dof_map(mesh, space)
    assert got.n_global == want.n_global
    for name in ("element_dofs", "dof_points"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------- stiffness


def test_q1_interior_stiffness_stencil():
    # 2x2 grid of the unit square: one interior node, entry 8/3 per component
    d = build_dof_map(
        rect_grid(1, 1, 2, 2),
        ElementSpace(Family.QUAD, 1, Continuity.C0, BoundaryCondition.ZERO_TRACE),
    )
    A = _stiffness(d).toarray()
    assert A.shape == (2, 2)
    assert A[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-13)
    assert A[1, 1] == pytest.approx(8.0 / 3.0, rel=1e-13)
    assert A[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_stiffness_annihilates_linears():
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3))
    d = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.C0, BoundaryCondition.NONE)
    )
    A = _stiffness(d)
    n = d.n_global
    u = 0.7 * d.dof_points[:, 0] - 1.3 * d.dof_points[:, 1] + 0.25
    w = (A @ np.concatenate([u, u]))[:n]
    x, y = d.dof_points.T
    interior = (x > 1e-12) & (x < 2 - 1e-12) & (y > 1e-12) & (y < 1 - 1e-12)
    assert np.abs(w[interior]).max() <= 1e-12 * abs(A).max()
    assert np.abs(A @ np.zeros(2 * n)).max() == 0.0


def test_stiffness_symmetry():
    # exact symmetry is a contract: the element blocks come from a
    # non-symmetric product and the factorization checks symmetry at 1e-10
    tri = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3, special=(1, -0.2)))
    for mesh, family in [(tri, Family.TRIANGLE), (rect_grid(2, 1, 4, 2), Family.QUAD)]:
        d = build_dof_map(
            mesh, ElementSpace(family, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE)
        )
        A = _stiffness(d)
        assert (A != A.T).nnz == 0
        for degree, cont in [(3, Continuity.DISCONTINUOUS), (2, Continuity.C0)]:
            dp = build_dof_map(mesh, ElementSpace(family, degree, cont, BoundaryCondition.NONE))
            Mp, _ = assemble_pressure_mass(dp)
            assert (Mp != Mp.T).nnz == 0


# ---------------------------------------------------------------- divergence


def test_single_triangle_divergence_row():
    dv = build_dof_map(
        SINGLE_TRI, ElementSpace(Family.TRIANGLE, 1, Continuity.C0, BoundaryCondition.NONE)
    )
    dp = build_dof_map(
        SINGLE_TRI,
        ElementSpace(Family.TRIANGLE, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
    )
    B = assemble_system(dv, dp).B.toarray()
    # gradients of the P1 basis are (-1,-1), (1,0), (0,1) on area 1/2
    assert np.allclose(B, [[-0.5, 0.5, 0.0, -0.5, 0.0, 0.5]], atol=1e-14)


def test_constant_pressure_row_vanishes():
    mesh = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4, special=(1, -0.1)))
    dv = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    sys_ = assemble_system(dv, dp)
    c = np.linalg.solve(sys_.Mp.toarray(), sys_.m)
    assert np.abs(c @ sys_.B.toarray()).max() <= 1e-10


def _poly1d_basis(nodes):
    """Exact 1D Lagrange polynomials for the given nodes (coefficient form)."""
    out = []
    for i, ti in enumerate(nodes):
        c = np.array([1.0])
        for j, tj in enumerate(nodes):
            if j != i:
                c = P.polymul(c, np.array([-tj, 1.0]) / (ti - tj))
        out.append(c)
    return out


def test_q2_q1_divergence_vs_symbolic_oracle():
    # unit square, exact polynomial integration of the basis products
    mesh = rect_grid(1, 1, 1, 1)
    dv = build_dof_map(
        mesh, ElementSpace(Family.QUAD, 2, Continuity.C0, BoundaryCondition.NONE)
    )
    dp = build_dof_map(
        mesh, ElementSpace(Family.QUAD, 1, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    B = assemble_system(dv, dp).B.toarray()

    v_nodes = gauss_lobatto(2)
    p_nodes = gauss_lobatto(1)
    lv = _poly1d_basis(v_nodes)
    lp = _poly1d_basis(p_nodes)

    def integ(c):
        return P.polyval(1.0, P.polyint(c)) - P.polyval(0.0, P.polyint(c))

    nv = 9
    expected = np.zeros_like(B)
    for a in range(4):
        ai, aj = a % 2, a // 2
        for i in range(nv):
            ii, ij = i % 3, i // 3
            dx = integ(P.polymul(P.polyder(lv[ii]), lp[ai])) * integ(
                P.polymul(lv[ij], lp[aj])
            )
            dy = integ(P.polymul(lv[ii], lp[ai])) * integ(
                P.polymul(P.polyder(lv[ij]), lp[aj])
            )
            expected[a, i] = dx
            expected[a, nv + i] = dy
    assert np.allclose(B, expected, atol=1e-12)


@pytest.mark.parametrize("family", [Family.TRIANGLE, Family.QUAD])
def test_patch_test_linear_divergence(family):
    # interpolated linear velocity field: <div v, 1> = (alpha+delta)*area
    if family is Family.QUAD:
        pts = np.array([[0.2, 0.1], [1.3, 0.3], [1.1, 1.2], [0.05, 0.9]])
        mesh = make_mesh(pts, np.array([[0, 1, 2, 3]]))
    else:
        pts = np.array([[0.2, 0.1], [1.3, 0.3], [0.4, 1.2]])
        mesh = make_mesh(pts, np.array([[0, 1, 2]]))
    dv = build_dof_map(mesh, ElementSpace(family, 2, Continuity.C0, BoundaryCondition.NONE))
    dp = build_dof_map(
        mesh, ElementSpace(family, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    B = assemble_system(dv, dp).B.toarray()
    alpha, beta, gamma, delta = 0.7, -0.4, 1.1, 0.9
    ux = alpha * dv.dof_points[:, 0] + beta * dv.dof_points[:, 1]
    uy = gamma * dv.dof_points[:, 0] + delta * dv.dof_points[:, 1]
    val = B @ np.concatenate([ux, uy])
    area = mesh.areas().sum()
    assert val[0] == pytest.approx((alpha + delta) * area, rel=1e-12)


def test_divergence_requires_parent_map():
    coarse = regular_polygon_mesh(4, 0)
    fine, pm = refine_chain(coarse, 1)
    dv = build_dof_map(
        fine, ElementSpace(Family.TRIANGLE, 2, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        coarse,
        ElementSpace(Family.TRIANGLE, 1, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
    )
    with pytest.raises(ValueError):
        assemble_system(dv, dp)
    B = assemble_system(dv, dp, parent_map=pm).B
    assert B.shape == (dp.n_global, 2 * dv.n_global)
    # constant pressure row still vanishes across the nested pair
    Mp, m = assemble_pressure_mass(dp)
    c = np.linalg.solve(Mp.toarray(), m)
    assert np.abs(c @ B.toarray()).max() <= 1e-10


def test_nested_divergence_matches_direct_for_linear_pressure():
    # P1 C0 pressure space is nested in itself under refinement: entries of
    # B against the coarse basis must match integrating on the fine mesh
    coarse = regular_polygon_mesh(5, 0)
    fine, pm = refine_chain(coarse, 2)
    dv = build_dof_map(
        fine, ElementSpace(Family.TRIANGLE, 2, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp_c = build_dof_map(
        coarse, ElementSpace(Family.TRIANGLE, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    B = assemble_system(dv, dp_c, parent_map=pm).B.toarray()
    # oracle: P0 coarse pressure = sum of fine P0 dofs over the children
    dp_f = build_dof_map(
        fine, ElementSpace(Family.TRIANGLE, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    Bf = assemble_system(dv, dp_f).B.toarray()
    agg = np.zeros((dp_c.n_global, dp_f.n_global))
    for child, parent in enumerate(pm.parent):
        agg[parent, child] = 1.0
    assert np.allclose(B, agg @ Bf, atol=1e-13)


# ---------------------------------------------------------------- mass


def test_p0_mass_is_diagonal_areas():
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.1))
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    Mp, m = assemble_pressure_mass(dp)
    assert np.allclose(Mp.toarray(), np.diag(mesh.areas()), atol=1e-14)
    assert np.allclose(m, mesh.areas(), atol=1e-14)


def test_constant_function_mass_identity():
    mesh = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4))
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    Mp, m = assemble_pressure_mass(dp)
    c = np.linalg.solve(Mp.toarray(), m)
    assert c @ Mp @ c == pytest.approx(4.0, rel=1e-12)
    assert np.allclose(c, 1.0, atol=1e-10)


def test_p3dc_mass_block_structure():
    mesh = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4))
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    Mp, _ = assemble_pressure_mass(dp)
    coo = Mp.tocoo()
    assert ((coo.row // 10) == (coo.col // 10)).all()
    vals = np.linalg.eigvalsh(Mp.toarray())
    assert vals.min() > 0


def test_assembly_reproducible_and_quadrature_stable(monkeypatch):
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.4, special=(0, 0.2)))
    dv = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    first, again = assemble_system(dv, dp), assemble_system(dv, dp)
    # every rule 9 degrees above the one assembly picks
    monkeypatch.setattr(
        assembly, "quad_rule", lambda family, exactness: quad_rule(family, exactness + 9)
    )
    high = assemble_system(dv, dp)
    for name in ("A", "B", "Mp"):
        mat = getattr(first, name)
        assert (mat != getattr(again, name)).nnz == 0  # bitwise reproducible
        assert abs(mat - getattr(high, name)).max() <= 1e-12 * abs(mat).max()


# ------------------------------------------------- element kernels vs einsum


def _scattered_blocks(monkeypatch, assemble, *args, **kwargs):
    """Result of one assembly call and the element matrices it scattered."""
    blocks = []
    scatter = assembly._scatter

    def spy(row_dofs, col_dofs, local, shape):
        blocks.append(np.array(local))
        return scatter(row_dofs, col_dofs, local, shape)

    monkeypatch.setattr(assembly, "_scatter", spy)
    out = assemble(*args, **kwargs)
    monkeypatch.undo()
    return out, blocks


def _assert_blocks_close(got, want):
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * scale).all()


def _einsum_gradients(mesh, space, rule):
    det, Jinv = assembly._element_geometry(mesh, rule.points)
    grad_hat = reference_element(space.family, space.degree).grad(rule.points)
    return np.einsum("eqkd,qbk->eqbd", Jinv, grad_hat), rule.weights[None, :] * det


def _check_kernels_against_einsum(monkeypatch, dv, dp, parent_map=None):
    sv, sp = dv.space, dp.space
    rule = quad_rule(sv.family, 2 * sv.degree + 2)
    gphys, wdet = _einsum_gradients(dv.mesh, sv, rule)
    K = assembly._stiffness_blocks(dv, slice(None))
    _assert_blocks_close(K, np.einsum("eqid,eq,eqjd->eij", gphys, wdet, gphys))

    rule = quad_rule(sv.family, 2 * max(sv.degree, sp.degree) + 2)
    gphys, wdet = _einsum_gradients(dv.mesh, sv, rule)
    ref_p = reference_element(sp.family, sp.degree)
    if parent_map is None:
        psi = ref_p.eval(rule.points)
        psi = np.broadcast_to(psi, (dv.mesh.n_elements, *psi.shape))
    else:
        psi = np.stack([
            ref_p.eval(rule.points @ M.T + off)
            for M, off in zip(parent_map.matrix, parent_map.offset)
        ])
    maps, map_class, _ = assembly._pressure_maps(dp, dv.mesh, parent_map)
    Bx, By = assembly._divergence_blocks(dv, dp, slice(None), maps, map_class)
    _assert_blocks_close(Bx, np.einsum("eqa,eq,eqi->eai", psi, wdet, gphys[:, :, :, 0]))
    _assert_blocks_close(By, np.einsum("eqa,eq,eqi->eai", psi, wdet, gphys[:, :, :, 1]))

    rule = quad_rule(sp.family, 2 * sp.degree + 2)
    det, _ = assembly._element_geometry(dp.mesh, rule.points)
    wdet = rule.weights[None, :] * det
    psi = ref_p.eval(rule.points)
    (_, m), (Mloc,) = _scattered_blocks(monkeypatch, assemble_pressure_mass, dp)
    _assert_blocks_close(Mloc, np.einsum("qa,eq,qb->eab", psi, wdet, psi))
    m_ref = np.zeros(dp.n_global)
    np.add.at(m_ref, dp.element_dofs.ravel(), np.einsum("qa,eq->ea", psi, wdet).ravel())
    assert np.abs(m - m_ref).max() <= 1e-13 * np.abs(m_ref).max()


def _pair_maps(v_mesh, p_mesh, family, n, k):
    dv = build_dof_map(v_mesh, ElementSpace(family, n, Continuity.C0, BoundaryCondition.NONE))
    dp = build_dof_map(
        p_mesh, ElementSpace(family, k, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    return dv, dp


@pytest.mark.parametrize("n", range(1, 7))
def test_triangle_kernels_match_einsum(monkeypatch, n):
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3, special=(1, -0.2)))
    _check_kernels_against_einsum(monkeypatch, *_pair_maps(mesh, mesh, Family.TRIANGLE, n, n - 1))


def _perturbed_quad_grid():
    grid = rect_grid(2, 1, 2, 1)
    rng = np.random.default_rng(7)
    pts = grid.points + rng.uniform(-0.15, 0.15, grid.points.shape)
    return make_mesh(pts, grid.elements)


@pytest.mark.parametrize("n", range(1, 17))
def test_quad_kernels_match_einsum(monkeypatch, n):
    mesh = _perturbed_quad_grid()
    det, _ = assembly._element_geometry(mesh, quad_rule(Family.QUAD, 4).points)
    assert np.ptp(det, axis=1).min() > 1e-3  # non-affine: detJ varies per point
    _check_kernels_against_einsum(monkeypatch, *_pair_maps(mesh, mesh, Family.QUAD, n, n - 1))


@pytest.mark.parametrize(
    "coarse, family",
    [(regular_polygon_mesh(5, 0), Family.TRIANGLE), (_perturbed_quad_grid(), Family.QUAD)],
)
def test_nested_kernels_match_einsum(monkeypatch, coarse, family):
    fine, pm = refine_chain(coarse, 2)
    dv, dp = _pair_maps(fine, coarse, family, 3, 2)
    _check_kernels_against_einsum(monkeypatch, dv, dp, parent_map=pm)
