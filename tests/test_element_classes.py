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
)
from lbblab.geometry import ParentMap, make_mesh, rect_grid, refine_chain, regular_polygon_mesh

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
    assert got.n_velocity == want.n_velocity


SHARED = {name: build for name, build in CASES.items() if not name.startswith("nested")}


@pytest.mark.parametrize("build", SHARED.values(), ids=SHARED.keys())
def test_macro_pass_is_a_no_op_on_shared_meshes(build, monkeypatch):
    # every element its own parent: no skeleton dof of the element pass lies
    # inside one pressure element, so the nested mask is empty, `_condense`
    # runs for the element pass only, and its forms come back bit for bit
    dv, dp, _ = build()
    ne = dv.mesh.n_elements
    identity = ParentMap(
        parent=np.arange(ne), matrix=np.tile(np.eye(2), (ne, 1, 1)), offset=np.zeros((ne, 2))
    )
    masks = []
    condense = assembly._condense

    def recorded(*args):
        masks.append(args[-1])
        return condense(*args)

    monkeypatch.setattr(assembly, "_condense", recorded)
    got = assemble_system(dv, dp, parent_map=identity)
    assert len(masks) == 1 and masks[0].any()
    want = assemble_system(dv, dp)
    for name in ("Ahat", "C", "D", "E", "Mp"):
        _assert_bitwise(getattr(got, name), getattr(want, name))


def test_congruent_macros_eliminate_once(monkeypatch):
    # 8x4 Q1dc pressures, Q2 velocities two levels finer: the 32 macros fall
    # into 9 classes by which of their sides lie on the boundary (interior,
    # 4 sides, 4 corners), and the element pass eliminates once per element
    # class
    coarse = rect_grid(2, 1, 8, 4)
    fine, pm = refine_chain(coarse, 2)
    dv, dp = _maps(fine, 2, 1, p_mesh=coarse)
    passes = []
    condense, eliminate = assembly._condense, assembly._eliminate

    def per_pass(*args):
        passes.append(0)
        return condense(*args)

    def counted(K, *args):
        passes[-1] += len(K)
        return eliminate(K, *args)

    monkeypatch.setattr(assembly, "_condense", per_pass)
    monkeypatch.setattr(assembly, "_eliminate", counted)
    assemble_system(dv, dp, parent_map=pm)
    _, map_class, _ = assembly._pressure_maps(dp, fine, pm)
    assert passes == [len(assembly._element_classes(fine, map_class)[0]), 9]


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
