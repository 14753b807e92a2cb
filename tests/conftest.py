import numpy as np
import pytest
from scipy.linalg import null_space

from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)


def brute_force_sigmas(system, deflate=True):
    """Independent dense oracle: explicit Schur matrix, Cholesky congruence,
    full symmetric eigendecomposition.

    Shares no solver code with the production paths: dense LU solves, an
    explicit null-space basis of the mean constraint, and numpy's eigh.
    """
    Ad = system.A.toarray()
    Bd = system.B.toarray()
    Mpd = system.Mp.toarray()
    S = Bd @ np.linalg.solve(Ad, Bd.T)
    L = np.linalg.cholesky(Mpd)
    T = np.linalg.solve(L, np.linalg.solve(L, S).T).T
    T = 0.5 * (T + T.T)
    if deflate:
        w = np.linalg.solve(L, system.m)
        W = null_space(w[None, :] / np.linalg.norm(w))
        vals = np.linalg.eigvalsh(W.T @ T @ W)
    else:
        vals = np.linalg.eigvalsh(T)
    return np.sort(vals)


def loop_dof_map(mesh, space):
    """`build_dof_map` of a C0 space as a plain loop over every element and
    node, numbering each node key at its first appearance: the reference
    that the vectorized numbering must reproduce bit for bit."""
    from lbblab.fem import DofMap, reference_element
    from lbblab.geometry import reference_map

    ref = reference_element(space.family, space.degree)
    elems = mesh.elements
    ne, k = len(elems), space.degree
    phys, _ = reference_map(mesh.points[elems], ref.nodes)
    boundary_vertices = set(mesh.boundary_edges[:, 0]) | set(mesh.boundary_edges[:, 1])
    boundary_pairs = {
        (min(a, b), max(a, b)) for a, b, _ in mesh.boundary_edges
    }

    ids: dict[tuple, int] = {}
    element_dofs = np.empty((ne, ref.n_basis), dtype=np.int64)
    points: list[np.ndarray] = []
    boundary: list[bool] = []
    nv = elems.shape[1]
    for e in range(ne):
        verts = elems[e]
        for loc, kind in enumerate(ref.node_kind):
            if kind[0] == "v":
                key = ("v", int(verts[kind[1]]))
                on_boundary = verts[kind[1]] in boundary_vertices
            elif kind[0] == "e":
                edge, slot = kind[1], kind[2]
                a, b = int(verts[edge]), int(verts[(edge + 1) % nv])
                if a > b:
                    a, b = b, a
                    slot = (k - 2) - slot
                key = ("e", a, b, slot)
                on_boundary = (a, b) in boundary_pairs
            else:
                key = ("i", e, kind[1])
                on_boundary = False
            if key not in ids:
                ids[key] = len(points)
                points.append(phys[e, loc])
                boundary.append(on_boundary)
            element_dofs[e, loc] = ids[key]

    points_arr = np.array(points)
    boundary_arr = np.array(boundary, dtype=bool)
    if space.bc is BoundaryCondition.ZERO_TRACE:
        keep = ~boundary_arr
        renumber = -np.ones(len(points_arr), dtype=np.int64)
        renumber[keep] = np.arange(keep.sum())
        element_dofs = renumber[element_dofs]
        points_arr = points_arr[keep]
        boundary_arr = np.zeros(int(keep.sum()), dtype=bool)
    return DofMap(
        mesh=mesh,
        space=space,
        n_global=len(points_arr),
        element_dofs=element_dofs,
        is_boundary_dof=boundary_arr,
        dof_points=points_arr,
    )


def per_element_system(dof_v, dof_p, parent_map=None):
    """`assemble_system` with the element kernels run over every element,
    one class per element: the per-element assembly that the classes of
    congruent elements must reproduce bit for bit."""
    from lbblab.fem import assembly

    def one_class_per_element(mesh, tag=None):
        return np.arange(mesh.n_elements), np.arange(mesh.n_elements)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_element_classes", one_class_per_element)
        return assemble_system(dof_v, dof_p, parent_map=parent_map)


def quad_pair_system(nx_deg, p_deg, width=1.0, height=1.0, grid=(1, 1)):
    """Assembled Q_n velocity / Q_k discontinuous pressure system."""
    from lbblab.geometry import rect_grid

    mesh = rect_grid(width, height, *grid)
    dv = build_dof_map(
        mesh, ElementSpace(Family.QUAD, nx_deg, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        mesh, ElementSpace(Family.QUAD, p_deg, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    return assemble_system(dv, dp)


@pytest.fixture(scope="session")
def sv_unit_square():
    from lbblab.geometry import SvSplitParams, rect_grid, sv_split

    return sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.25))
