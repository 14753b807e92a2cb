"""Element matrices once per class of congruent elements.

Two elements share their element matrices when the edge vectors of their
reference maps (and, for nested pressures, their child-to-parent maps) are
bitwise equal.  The class path must reproduce the per-element assembly
(`conftest.per_element_system`) bit for bit, down to the sign of zero, in
every condensed form and in the uncondensed A and B built on access.
"""

import numpy as np
import pytest

from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    assembly,
    build_dof_map,
    moved_dof_map,
)
from lbblab.geometry import make_mesh, rect_grid, refine_chain, regular_polygon_mesh

from conftest import per_element_system


def _maps(v_mesh, vdeg, pdeg, p_mesh=None):
    family = Family.QUAD if v_mesh.is_quad else Family.TRIANGLE
    dv = build_dof_map(
        v_mesh, ElementSpace(family, vdeg, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        p_mesh or v_mesh,
        ElementSpace(family, pdeg, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
    )
    return dv, dp


def _perturbed_quads():
    grid = rect_grid(2, 1, 3, 2)
    rng = np.random.default_rng(3)
    inner = ~np.isin(np.arange(len(grid.points)), grid.boundary_edges[:, :2])
    pts = grid.points + rng.uniform(-0.1, 0.1, grid.points.shape) * inner[:, None]
    return make_mesh(pts, quads=grid.elements)


def _nested(coarse, vdeg, pdeg):
    fine, pm = refine_chain(coarse, 2)
    return (*_maps(fine, vdeg, pdeg, p_mesh=coarse), pm)


CASES = {
    "Q2-Q1dc 4x2": lambda: (*_maps(rect_grid(2, 1, 4, 2), 2, 1), None),
    "Q8-Q7dc 4x4": lambda: (*_maps(rect_grid(1, 1, 4, 4), 8, 7), None),
    "Q16-Q15dc 2x2": lambda: (*_maps(rect_grid(2, 1, 2, 2), 16, 15), None),
    "SV P4-P3dc 8x2": lambda: (*_maps(sv_mesh(4, 1, 8, 2, 0.4, 0.04), 4, 3), None),
    "nested Q2/Q1dc": lambda: _nested(rect_grid(2, 1, 2, 1), 2, 1),
    "nested P3/P2dc": lambda: _nested(regular_polygon_mesh(5, 0), 3, 2),
    "polygon fan P4-P3dc": lambda: (*_maps(regular_polygon_mesh(8, 1), 4, 3), None),
    "perturbed Q3-Q2dc": lambda: (*_maps(_perturbed_quads(), 3, 2), None),
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(_bits(got.data), _bits(want.data))


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_classes_reproduce_per_element_assembly(build):
    dv, dp, pm = build()
    got = assemble_system(dv, dp, parent_map=pm)
    want = per_element_system(dv, dp, pm)
    for name in ("Ahat", "C", "D", "E", "Mp", "A", "B"):
        _assert_bitwise(getattr(got, name), getattr(want, name))
    assert np.array_equal(_bits(got.m), _bits(want.m))
    assert (got.n_velocity, got.nnz_A) == (want.n_velocity, want.nnz_A)


@pytest.mark.parametrize(
    "mesh, n_classes",
    [
        (rect_grid(2, 1, 2, 2), 1),
        (rect_grid(2, 1, 64, 32), 1),
        (sv_mesh(4, 1, 4, 1, 0.4, 0.04), 8),
        (sv_mesh(4, 1, 24, 6, 0.4, 0.04), 178),
        (_perturbed_quads(), 6),  # every element its own class
    ],
    ids=["Q 2x2", "Q 64x32", "SV 4x1", "SV 24x6", "perturbed quads"],
)
def test_class_counts(mesh, n_classes):
    rep, inverse = assembly._element_classes(mesh)
    assert len(rep) == n_classes and len(inverse) == mesh.n_elements
    assert np.array_equal(inverse[rep], np.arange(n_classes))


def test_nested_classes_split_by_pressure_map():
    # the 16 children of one uniform quad are congruent, but each sees the
    # parent's pressure basis through its own affine map
    coarse = rect_grid(2, 1, 2, 1)
    fine, pm = refine_chain(coarse, 2)
    dv, dp = _maps(fine, 2, 1, p_mesh=coarse)
    _, map_class, _ = assembly._pressure_maps(dp, fine, pm)
    assert len(assembly._element_classes(fine)[0]) == 1
    assert len(assembly._element_classes(fine, map_class)[0]) == 16


# --------------------------------------------- moved elements (SystemFamily)


def _sv_spaces(vdeg, pdeg, pcont):
    return (
        ElementSpace(Family.TRIANGLE, vdeg, Continuity.C0, BoundaryCondition.ZERO_TRACE),
        ElementSpace(Family.TRIANGLE, pdeg, pcont, BoundaryCondition.NONE),
    )


@pytest.mark.parametrize(
    "vdeg, pdeg, pcont",
    [(4, 3, Continuity.DISCONTINUOUS), (2, 1, Continuity.C0)],
    ids=["P4-P3dc", "P2-P1"],
)
def test_system_family_matches_fresh_assembly(vdeg, pdeg, pcont):
    # the special quad's apex moves; every other element keeps its matrices
    vs, ps = _sv_spaces(vdeg, pdeg, pcont)
    first = sv_mesh(4, 1, 4, 1, 0.4, -0.3)
    moved = (sv_mesh(4, 1, 4, 1, 0.4, 0.2).points[first.elements]
             != first.points[first.elements]).any(axis=(1, 2))
    dv, dp = build_dof_map(first, vs), build_dof_map(first, ps)
    family = assembly.SystemFamily(assemble_system(dv, dp), dv, dp, moved)
    for a in (0.2, -0.3, 0.45):
        mesh = sv_mesh(4, 1, 4, 1, 0.4, a)
        got = family.system(mesh)
        want = assemble_system(build_dof_map(mesh, vs), build_dof_map(mesh, ps))
        for name in ("Mp", "C", "D", "E", "Ahat"):
            g, w = getattr(got, name), getattr(want, name)
            w.sort_indices()
            assert np.array_equal(g.indptr, w.indptr) and np.array_equal(g.indices, w.indices)
            if name == "Ahat" or pcont is Continuity.C0:
                # entries that moved and fixed elements share are summed in another order
                scale = np.abs(w.data).max(initial=0)
                assert np.abs(g.data - w.data).max(initial=0) <= 1e-14 * scale
            else:
                assert np.array_equal(g.data, w.data), name
        if pcont is Continuity.C0:
            assert np.allclose(got.m, want.m, rtol=1e-14, atol=0)
        else:
            assert np.array_equal(got.m, want.m)
        assert (got.n_velocity, got.nnz_A) == (want.n_velocity, want.nnz_A)
        assert (got.A != want.A).nnz == 0 and (got.B != want.B).nnz == 0


@pytest.mark.parametrize(
    "space",
    [
        ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE),
        ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
        ElementSpace(Family.TRIANGLE, 2, Continuity.C0, BoundaryCondition.NONE),
    ],
    ids=["P4-zero-trace", "P3dc", "P2"],
)
def test_moved_dof_map_is_the_fresh_dof_map(space):
    first, mesh = sv_mesh(4, 1, 4, 1, 0.4, -0.3), sv_mesh(4, 1, 4, 1, 0.4, 0.2)
    got = moved_dof_map(build_dof_map(first, space), mesh)
    want = build_dof_map(mesh, space)
    assert got.mesh is mesh and got.n_global == want.n_global
    for name in ("element_dofs", "is_boundary_dof", "dof_points"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert moved_dof_map(want, mesh) is want
