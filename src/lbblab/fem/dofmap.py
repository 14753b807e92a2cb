"""Global numbering of scalar Lagrange basis functions on a mesh."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Mesh, reference_map
from .elements import BoundaryCondition, Continuity, ElementSpace, Family, reference_element


@dataclass(frozen=True)
class DofMap:
    """Element-to-global dof tables for one scalar space.

    element_dofs holds -1 for dofs eliminated by zero-trace boundary
    conditions.  dof_points are the physical Lagrange node positions of the
    surviving global dofs; is_boundary_dof flags dofs sitting on the domain
    boundary (all False after zero-trace elimination).
    """

    mesh: Mesh
    space: ElementSpace
    n_global: int
    element_dofs: np.ndarray
    is_boundary_dof: np.ndarray
    dof_points: np.ndarray = field(repr=False)

    @property
    def n_local(self) -> int:
        return self.element_dofs.shape[1]


def build_dof_map(mesh: Mesh, space: ElementSpace) -> DofMap:
    """Number the Lagrange nodes of `space` over `mesh`.

    C0 spaces share vertex and edge dofs across elements, with edge-interior
    slots ordered from the edge's lower-index vertex so that numbering does
    not depend on element orientation or traversal order.
    """
    if (space.family is Family.QUAD) != mesh.is_quad:
        raise ValueError("element family does not match mesh type")
    ref = reference_element(space.family, space.degree)
    elems = mesh.elements
    ne, k = len(elems), space.degree
    nloc = ref.n_basis
    phys, _ = reference_map(mesh.points[elems], ref.nodes)

    if space.continuity is Continuity.DISCONTINUOUS:
        element_dofs = np.arange(ne * nloc, dtype=np.int64).reshape(ne, nloc)
        return DofMap(
            mesh=mesh,
            space=space,
            n_global=ne * nloc,
            element_dofs=element_dofs,
            is_boundary_dof=np.zeros(ne * nloc, dtype=bool),
            dof_points=phys.reshape(ne * nloc, 2),
        )

    boundary_vertices = set(mesh.boundary_edges[:, 0]) | set(mesh.boundary_edges[:, 1])
    boundary_pairs = {
        (min(a, b), max(a, b)) for a, b, _ in mesh.boundary_edges
    }

    ids: dict[tuple, int] = {}
    element_dofs = np.empty((ne, nloc), dtype=np.int64)
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
