"""Global numbering of scalar Lagrange basis functions on a mesh."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Mesh, first_appearance, reference_map
from .elements import BoundaryCondition, Continuity, ElementSpace, Family, reference_element


@dataclass(frozen=True)
class DofMap:
    """Element-to-global dof tables for one scalar space.

    element_dofs holds -1 for dofs eliminated by zero-trace boundary
    conditions.  dof_points are the physical Lagrange node positions of the
    surviving global dofs.
    """

    mesh: Mesh
    space: ElementSpace
    n_global: int
    element_dofs: np.ndarray
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
            dof_points=phys.reshape(ne * nloc, 2),
        )

    # one int64 key per (element, local node): the vertex id; npts +
    # edge * (k - 1) + slot for edge nodes, the slot counted from the edge's
    # lower-index vertex; a unique key for interior nodes
    v, ed, inner = (np.flatnonzero(ref.kind == c) for c in "vei")
    entity, slot = ref.entity, ref.slot
    npts, nv = len(mesh.points), elems.shape[1]
    on_vertex = np.zeros(npts, dtype=bool)
    on_vertex[mesh.boundary_edges[:, :2]] = True

    keys = np.empty((ne, nloc), dtype=np.int64)
    on_boundary = np.zeros((ne, nloc), dtype=bool)
    keys[:, v] = elems[:, entity[v]]
    on_boundary[:, v] = on_vertex[keys[:, v]]
    a, b = elems[:, entity[ed]], elems[:, (entity[ed] + 1) % nv]
    edge = mesh.element_edges[:, entity[ed]]
    keys[:, ed] = npts + edge * (k - 1) + np.where(a > b, (k - 2) - slot[ed], slot[ed])
    on_boundary[:, ed] = mesh.on_boundary[edge]
    keys[:, inner] = npts + len(mesh.on_boundary) * (k - 1) + np.arange(ne)[:, None] * nloc + inner

    element_dofs, first = first_appearance(keys)
    points_arr = phys.reshape(ne * nloc, 2)[first]
    if space.bc is BoundaryCondition.ZERO_TRACE:
        keep = ~on_boundary.ravel()[first]
        renumber = -np.ones(len(points_arr), dtype=np.int64)
        renumber[keep] = np.arange(keep.sum())
        element_dofs = renumber[element_dofs]
        points_arr = points_arr[keep]
    return DofMap(
        mesh=mesh,
        space=space,
        n_global=len(points_arr),
        element_dofs=element_dofs,
        dof_points=points_arr,
    )

