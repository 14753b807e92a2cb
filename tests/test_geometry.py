import hashlib
import math

import numpy as np
import pytest

from lbblab.geometry import (
    MeshError,
    SvSplitParams,
    element_sizes,
    first_appearance,
    load_mesh,
    make_mesh,
    rect_grid,
    refine_chain,
    refine_uniform,
    reference_map,
    regular_polygon_mesh,
    regularity_index,
    save_mesh,
    sv_split,
)

from conftest import EDGE_MESHES, fan_angles, fan_regularity_index, loop_refine_uniform


def test_rect_grid_counts():
    m = rect_grid(4, 1, 4, 1)
    assert len(m.points) == 10
    assert len(m.elements) == 4
    assert np.allclose(m.areas(), 1.0)

    m2 = rect_grid(4, 1, 24, 6)
    assert len(m2.elements) == 144
    assert np.allclose(m2.areas(), 1.0 / 36.0)

    m3 = rect_grid(2, 1, 1, 1)
    assert len(m3.points) == 4
    assert len(m3.elements) == 1
    assert m3.areas()[0] == pytest.approx(2.0)


def test_rect_grid_validation():
    with pytest.raises(MeshError):
        rect_grid(0, 1, 1, 1)
    with pytest.raises(MeshError):
        rect_grid(1, 1, 0, 1)


def test_sv_split_centered():
    m = sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.0))
    assert len(m.elements) == 4
    apex = m.points[4]
    assert np.allclose(apex, [0.5, 0.5])
    assert regularity_index(m, 4) == pytest.approx(0.0, abs=1e-14)


def test_sv_split_decentered_angles(sv_unit_square):
    # apex (0.5, 0.75); angles computed from the vertex coordinates
    m = sv_unit_square
    assert np.allclose(m.points[4], [0.5, 0.75])
    angles, closed = fan_angles(m, 4)
    assert closed
    assert angles.sum() == pytest.approx(2 * math.pi, abs=1e-12)
    expected = sorted(
        [
            math.acos(5.0 / 13.0),        # bottom
            math.acos(1.0 / math.sqrt(65.0)),  # right
            math.acos(-3.0 / 5.0),        # top
            math.acos(1.0 / math.sqrt(65.0)),  # left
        ]
    )
    assert np.allclose(sorted(angles), expected, atol=1e-12)
    idx = regularity_index(m, 4)
    assert idx == pytest.approx(
        abs(math.acos(5.0 / 13.0) + math.acos(1.0 / math.sqrt(65.0)) - math.pi),
        abs=1e-12,
    )
    assert idx == pytest.approx(0.5191461142, abs=1e-9)


def test_sv_split_special_quad():
    m = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4, special=(0, -0.1)))
    assert len(m.elements) == 16
    apexes = m.points[10:]
    special = np.isclose(apexes, [0.5, 0.4]).all(axis=1)
    assert special.sum() == 1
    others = apexes[~special]
    assert np.allclose(others[:, 1], 0.9)


def test_sv_split_area_preserved():
    grid = rect_grid(3, 2, 5, 4)
    m = sv_split(grid, SvSplitParams(b=0.3, special=(7, -0.45)))
    assert m.areas().sum() == pytest.approx(grid.areas().sum(), abs=1e-12)


def test_sv_split_param_validation():
    with pytest.raises(MeshError):
        SvSplitParams(b=0.5)
    with pytest.raises(MeshError):
        SvSplitParams(b=0.1, special=(0, 0.5))
    with pytest.raises(MeshError):
        sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.1, special=(5, 0.1)))
    with pytest.raises(MeshError):
        sv_split(regular_polygon_mesh(3, 0), SvSplitParams(b=0.1))


def test_regularity_index_special_zero():
    # a = 0 makes the special apex singular
    m = sv_split(rect_grid(4, 1, 4, 1), SvSplitParams(b=0.4, special=(1, 0.0)))
    apex = 10 + 1
    assert regularity_index(m, apex) == pytest.approx(0.0, abs=1e-14)


def test_regularity_index_errors():
    m = regular_polygon_mesh(5, 0)
    ring = m.points[1]
    # ring vertex has exactly 2 incident triangles: fine
    assert regularity_index(m, 1) > 0
    single = make_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    with pytest.raises(MeshError):
        regularity_index(single, 0)
    assert ring is not None


def _bow_tie():
    # two triangles that meet only at node 0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])
    return make_mesh(pts, np.array([[0, 1, 2], [0, 3, 4]]))


def _pinched_fan():
    # a closed fan of four triangles around node 0 and a fifth triangle that
    # touches it only at node 0: as many shared edges as a single open chain
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                    [3.0, 3.0], [2.0, 3.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [0, 5, 6]])
    return make_mesh(pts, tris)


@pytest.mark.parametrize("make", [_bow_tie, _pinched_fan], ids=["bow-tie", "pinched-fan"])
def test_regularity_index_rejects_a_node_with_two_fans(make):
    m = make()
    for index in (regularity_index, fan_regularity_index):
        with pytest.raises(MeshError, match="not orderable into a fan"):
            index(m, 0)


def test_regularity_rigid_motion_invariance():
    rng = np.random.default_rng(7)
    m = sv_split(rect_grid(2, 1, 2, 2), SvSplitParams(b=0.35, special=(1, 0.12)))
    theta = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    m2 = m.transformed(matrix=rot, shift=(0.7, -1.3))
    for node in [9, 10, 11, 12, 4]:
        assert regularity_index(m, node) == pytest.approx(
            regularity_index(m2, node), abs=1e-10
        )


def test_negative_refinement_depth_is_rejected():
    with pytest.raises(MeshError, match="nonnegative"):
        refine_chain(rect_grid(1, 1, 1, 1), -1)
    with pytest.raises(MeshError, match="nonnegative"):
        regular_polygon_mesh(5, -1)


def test_first_appearance_numbers_keys_in_order_of_appearance():
    number, first = first_appearance(np.array([[7, 3], [7, 9], [3, 1]]))
    assert number.tolist() == [[0, 1], [0, 2], [1, 3]]
    assert first.tolist() == [0, 1, 3, 5]


def _edge_mesh_levels():
    for name, make, depth in EDGE_MESHES:
        yield pytest.param(make, 0, id=name)
        yield pytest.param(make, depth, id=f"{name}-refined{depth}")


@pytest.mark.parametrize(
    "make, depth", [case[1:] for case in EDGE_MESHES], ids=[case[0] for case in EDGE_MESHES]
)
def test_refinement_is_the_loop_refinement(make, depth):
    got, got_pm = refine_chain(make(), depth)
    want, want_pm = loop_refine_uniform(make())
    for _ in range(depth - 1):
        want, finer = loop_refine_uniform(want)
        want_pm = want_pm.compose(finer)
    for name in ("points", "elements", "boundary_edges", "element_edges", "on_boundary"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("parent", "matrix", "offset"):
        assert np.array_equal(getattr(got_pm, name), getattr(want_pm, name)), name


@pytest.mark.parametrize("make, depth", _edge_mesh_levels())
def test_element_edges_join_the_sides_vertex_pairs(make, depth):
    mesh = refine_chain(make(), depth)[0]
    elems = mesh.elements
    ends = np.sort(np.stack([elems, np.roll(elems, -1, axis=1)], axis=-1), axis=-1)
    # every side of an edge joins the same sorted vertex pair, and the edges
    # are numbered in increasing order of that pair's key, so no two share it
    pairs = np.empty((len(mesh.on_boundary), 2), dtype=np.int64)
    pairs[mesh.element_edges] = ends
    assert np.array_equal(pairs[mesh.element_edges], ends)
    key = pairs[:, 0] * len(mesh.points) + pairs[:, 1]
    assert (np.diff(key) > 0).all()
    sides = np.bincount(mesh.element_edges.ravel(), minlength=len(pairs))
    assert sides.min() >= 1 and sides.max() <= 2
    assert np.array_equal(mesh.on_boundary, sides == 1)
    # boundary_edges: the sides of the boundary edges, in edge order
    a, b, e = mesh.boundary_edges.T
    side = np.argmax(elems[e] == a[:, None], axis=1)
    assert np.array_equal(elems[e, (side + 1) % elems.shape[1]], b)
    assert np.array_equal(mesh.element_edges[e, side], np.flatnonzero(mesh.on_boundary))


@pytest.mark.parametrize("make, depth", _edge_mesh_levels())
def test_regularity_index_is_the_fan_index(make, depth):
    mesh = refine_chain(make(), depth)[0]
    if mesh.is_quad:
        with pytest.raises(MeshError):
            regularity_index(mesh, 0)
        return
    for node in range(len(mesh.points)):
        try:
            want = fan_regularity_index(mesh, node)
        except MeshError as exc:
            with pytest.raises(MeshError, match=str(exc)):
                regularity_index(mesh, node)
            continue
        assert abs(regularity_index(mesh, node) - want) <= 1e-14


@pytest.mark.parametrize("n,levels,ntri", [(3, 0, 3), (8, 0, 8), (16, 2, 256)])
def test_regular_polygon_mesh(n, levels, ntri):
    m = regular_polygon_mesh(n, levels)
    assert len(m.elements) == ntri
    radii = np.linalg.norm(m.points, axis=1)
    assert radii.max() == pytest.approx(1.0, abs=1e-15)
    assert m.areas().sum() == pytest.approx(n / 2 * math.sin(2 * math.pi / n), abs=1e-12)
    if levels == 0 and n == 3:
        assert len(m.points) == 4


def test_refine_uniform_quad():
    m = rect_grid(1, 1, 1, 1)
    r, pm = refine_uniform(m)
    assert len(r.elements) == 4
    assert (pm.parent == 0).all()
    assert r.areas().sum() == pytest.approx(1.0, abs=1e-12)

    r2, _ = refine_uniform(r)
    assert len(r2.elements) == 16
    assert np.allclose(r2.areas(), 1.0 / 16.0)


def test_refine_uniform_triangles():
    m = sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.0))
    r, pm = refine_uniform(m)
    assert len(r.elements) == 16
    assert r.areas().sum() == pytest.approx(1.0, abs=1e-12)
    assert len(pm.parent) == 16
    # parent-reference maps send child corners into the parent cell
    for e in range(16):
        p, ref = pm.to_parent_ref(e, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert 0 <= p < 4
        assert (ref >= -1e-14).all() and (ref.sum(axis=1) <= 1 + 1e-14).all()


def test_refine_chain_compose():
    m = regular_polygon_mesh(4, 0)
    fine, pm = refine_chain(m, 2)
    assert len(fine.elements) == 64
    # composed map: physical position of a mapped reference point must agree
    rng = np.random.default_rng(3)
    for e in [0, 13, 40, 63]:
        ref = rng.dirichlet([1, 1, 1])[:2][None, :]
        parent, pref = pm.to_parent_ref(e, ref)
        child_pts = fine.points[fine.elements[e]]
        phys_child = (
            child_pts[0]
            + np.outer(ref[:, 0], child_pts[1] - child_pts[0])
            + np.outer(ref[:, 1], child_pts[2] - child_pts[0])
        )
        par_pts = m.points[m.elements[parent]]
        phys_par = (
            par_pts[0]
            + np.outer(pref[:, 0], par_pts[1] - par_pts[0])
            + np.outer(pref[:, 1], par_pts[2] - par_pts[0])
        )
        assert np.allclose(phys_child, phys_par, atol=1e-14)


def test_element_sizes():
    diam, inr = element_sizes(rect_grid(1, 1, 1, 1))
    assert diam == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert inr == pytest.approx(0.5, abs=1e-9)

    diam2, _ = element_sizes(rect_grid(4, 1, 24, 6))
    assert diam2 == pytest.approx(math.sqrt(2.0) / 6.0, abs=1e-14)

    m = sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.0))
    _, inr3 = element_sizes(m)
    # right triangle with legs sqrt(2)/2 and hypotenuse 1: r = (leg+leg-hyp)/2
    assert inr3 == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)

    # parallelogram with sides 3 and 1 at 60 degrees: the heights are
    # sqrt(3)/2 and 3*sqrt(3)/2, and the circle fits between the closer sides
    s3 = math.sqrt(3.0)
    para = make_mesh(np.array([[0, 0], [3, 0], [3.5, s3 / 2], [0.5, s3 / 2]]),
                     np.array([[0, 1, 2, 3]]))
    _, inr4 = element_sizes(para)
    assert inr4 == pytest.approx(s3 / 4, rel=1e-12)

    # rhombus with diagonals 4 and 2 is tangential: r = area / semiperimeter
    rhombus = make_mesh(np.array([[-2.0, 0], [0, -1], [2, 0], [0, 1]]),
                        np.array([[0, 1, 2, 3]]))
    _, inr5 = element_sizes(rhombus)
    assert inr5 == pytest.approx(4.0 / (2 * math.sqrt(5.0)), rel=1e-12)

    # in a square every circle tangent to three sides touches the fourth,
    # so rounding decides the containment test (this rotation needs the slack)
    th = math.radians(40.0)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    corners = 3.0 * np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]) @ rot.T + [2.0, 1.0]
    _, inr6 = element_sizes(make_mesh(corners, np.array([[0, 1, 2, 3]])))
    assert inr6 == pytest.approx(1.5, rel=1e-12)


def test_quad_inradius_matches_chebyshev_lp():
    from scipy.optimize import linprog

    from lbblab.geometry import _quad_inradii

    rng = np.random.default_rng(7)
    quads = []
    while len(quads) < 200:
        ang = np.sort(rng.uniform(0, 2 * np.pi, 4))
        q = rng.uniform(0.5, 2.0, 4)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        e = np.roll(q, -1, axis=0) - q
        turn = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        if (turn > 1e-3).all():  # strictly convex
            quads.append(q)
    quads = np.array(quads)
    for q, r in zip(quads, _quad_inradii(quads)):
        # largest r with n_i . x - r >= n_i . p_i for the inward unit normal of every side
        t = np.roll(q, -1, axis=0) - q
        nrm = np.stack([-t[:, 1], t[:, 0]], axis=1) / np.linalg.norm(t, axis=1)[:, None]
        lp = linprog([0.0, 0.0, -1.0], A_ub=np.hstack([-nrm, np.ones((4, 1))]),
                     b_ub=-(nrm * q).sum(axis=1), bounds=[(None, None)] * 3, method="highs")
        assert r == pytest.approx(lp.x[2], rel=1e-12)


@pytest.mark.parametrize("degrees", [9, 74, 192, 197, 202, 292, 298])
def test_quad_inradius_is_translation_invariant(degrees):
    # a small square about 1 from the origin, and the same square moved
    # back to the origin (x - 1 is exact here), have the same inradius
    h, a = 1.2e-5, math.radians(degrees)
    turn = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    far = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]]) @ turn.T + [1.0, 0.0]
    near = far - [1.0, 0.0]
    quad = np.array([[0, 1, 2, 3]])
    _, r_far = element_sizes(make_mesh(far, quad))
    _, r_near = element_sizes(make_mesh(near, quad))
    assert r_far == pytest.approx(r_near, rel=1e-12)
    assert r_near == pytest.approx(h / 2, rel=1e-9)


def test_mesh_io_roundtrip(tmp_path):
    m = sv_split(rect_grid(2, 1, 3, 2), SvSplitParams(b=0.2, special=(2, -0.3)))
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.elements, m2.elements)
    assert np.allclose(m.points, m2.points)


@pytest.mark.parametrize(
    "make, digest",
    [(lambda: rect_grid(2.0, 1.0, 3, 2),
      "0160d052bc49f0b598f033e3050d7b7f98942a8ec7868f75d64c0d10e472665b"),
     (lambda: sv_split(rect_grid(2.0, 1.0, 3, 2), SvSplitParams(b=0.2, special=(1, -0.3))),
      "e0719d04ca7b5ff041382afe525e401778258bad9c79d709cbb3468e31c7e472")],
    ids=["rect-grid", "sv-split"],
)
def test_mesh_file_bytes_are_pinned(make, digest, tmp_path):
    # the mesh2d format is fixed: these bytes must not move
    path = tmp_path / "mesh.txt"
    save_mesh(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_mesh_io_reorients(tmp_path):
    path = tmp_path / "flipped.txt"
    path.write_text(
        "mesh2d 3 1 0\n0 0\n1 0\n0 1\n0 2 1\n"
    )
    m = load_mesh(path)
    assert m.areas()[0] > 0


def test_conformity_rejects_bad_meshes():
    # overlapping triangles traverse the shared edge in the same direction
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 2.0]])
    with pytest.raises(MeshError):
        make_mesh(pts, np.array([[0, 1, 2], [0, 1, 3]]),
                  repair_orientation=False)
    # non-manifold: three triangles on one edge
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [2.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(
            pts2,
            np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
            repair_orientation=False,
        )


def test_mixed_mesh_rejected(tmp_path):
    # a mesh2d file with both a triangle and a quad section
    path = tmp_path / "mixed.txt"
    path.write_text("mesh2d 4 1 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 1 2 3\n")
    with pytest.raises(MeshError, match="homogeneous"):
        load_mesh(path)


def test_load_mesh_rejects_malformed(tmp_path):
    for body in ["mesh2d 3 1 0\n0 0\n1 0\n0 1\n0 1\n",        # truncated element
                 "mesh2d 3 1 0\n0 0\n1 0\n0 1\n0 1 2 9\n",    # trailing data
                 "mesh2d x 1 0\n",                            # bad counts
                 "notamesh 1 0 0\n0 0\n"]:
        p = tmp_path / "bad.txt"
        p.write_text(body)
        with pytest.raises(MeshError):
            load_mesh(p)


def test_element_sizes_fine_grid_inradius():
    _, inr = element_sizes(rect_grid(4, 1, 24, 6))
    assert inr == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_element_sizes_of_a_nested_pair(monkeypatch):
    # the diameter of the fine mesh and the radii of the coarse one, the
    # same values as two separate calls, without the fine quads' radii
    from lbblab import geometry

    coarse = rect_grid(2, 1, 8, 4)
    fine, _ = refine_chain(coarse, 3)
    want = (element_sizes(fine)[0], element_sizes(coarse)[1])
    radii = geometry._quad_inradii
    seen = []

    def counted(p):
        seen.append(len(p))
        return radii(p)

    monkeypatch.setattr(geometry, "_quad_inradii", counted)
    assert element_sizes(fine, coarse) == want
    assert seen == [coarse.n_elements]


def test_transformed_reflection_repairs_orientation():
    m = regular_polygon_mesh(5, 0)
    reflected = m.transformed(matrix=np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert (reflected.areas() > 0).all()
    assert reflected.areas().sum() == pytest.approx(m.areas().sum(), abs=1e-12)


REF_CORNERS = {
    3: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    4: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
}


def _random_convex(rng, ne, nv):
    """Counterclockwise convex elements: sorted angles on a circle, then a
    random orientation-preserving affine map."""
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, (ne, nv)), axis=1)
    p = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    A = rng.standard_normal((ne, 2, 2))
    A[np.linalg.det(A) < 0] *= np.array([[1.0, 1.0], [-1.0, -1.0]])
    return np.einsum("eij,evj->evi", A, p) + rng.standard_normal((ne, 1, 2))


@pytest.mark.parametrize("nv", [3, 4])
def test_reference_map_sends_corners_to_vertices(nv):
    p = _random_convex(np.random.default_rng(nv), 20, nv)
    x, J = reference_map(p, REF_CORNERS[nv])
    assert x.shape == (20, nv, 2) and J.shape == (20, nv, 2, 2)
    assert np.array_equal(x, p)


@pytest.mark.parametrize("nv", [3, 4])
def test_reference_map_jacobian_matches_central_differences(nv):
    rng = np.random.default_rng(10 + nv)
    p = _random_convex(rng, 50, nv)
    ref = rng.uniform(0.05, 0.45, (7, 2))  # inside both reference elements
    h = 1e-4
    _, J = reference_map(p, ref)
    for c, step in enumerate(np.eye(2) * h):
        # the maps are at most quadratic, so central differences are exact
        # up to rounding
        fd = (reference_map(p, ref + step)[0] - reference_map(p, ref - step)[0]) / (2 * h)
        assert np.allclose(J[..., c], fd, rtol=0.0, atol=1e-9 * np.abs(p).max())
    assert (J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0] > 0).all()


def test_make_mesh_quad_orientation():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    clockwise = np.array([[0, 3, 2, 1]])
    m = make_mesh(pts, clockwise)
    assert m.elements.tolist() == [[1, 2, 3, 0]]
    assert m.areas()[0] == pytest.approx(2.0)
    with pytest.raises(MeshError):
        make_mesh(pts, clockwise, repair_orientation=False)
    # a dart: the vertex (0.5, 0.5) is reflex, so either orientation has a
    # corner with a non-positive Jacobian
    dart = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
    for order in ([[0, 1, 2, 3]], [[3, 2, 1, 0]]):
        with pytest.raises(MeshError, match="non-convex"):
            make_mesh(dart, np.array(order))
