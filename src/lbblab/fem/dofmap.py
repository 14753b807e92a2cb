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

    # one int64 key per (element, local node): the vertex id; npts +
    # edge * (k - 1) + slot for edge nodes, the edge keyed min * npts + max
    # and the slot counted from its lower-index vertex; a unique key for
    # interior nodes
    kind = np.array([c[0] for c in ref.node_kind])
    v, ed, inner = (np.flatnonzero(kind == c) for c in "vei")
    entity = np.array([c[1] for c in ref.node_kind])
    slot = np.array([c[2] if c[0] == "e" else 0 for c in ref.node_kind])
    npts, nv = len(mesh.points), elems.shape[1]
    elems = elems.astype(np.int64)
    on_vertex = np.zeros(npts, dtype=bool)
    on_vertex[mesh.boundary_edges[:, :2]] = True
    bnd = np.sort(mesh.boundary_edges[:, :2].astype(np.int64), axis=1)

    keys = np.empty((ne, nloc), dtype=np.int64)
    on_boundary = np.zeros((ne, nloc), dtype=bool)
    keys[:, v] = elems[:, entity[v]]
    on_boundary[:, v] = on_vertex[keys[:, v]]
    a, b = elems[:, entity[ed]], elems[:, (entity[ed] + 1) % nv]
    edge = np.minimum(a, b) * npts + np.maximum(a, b)
    keys[:, ed] = npts + edge * (k - 1) + np.where(a > b, (k - 2) - slot[ed], slot[ed])
    on_boundary[:, ed] = np.isin(edge, bnd[:, 0] * npts + bnd[:, 1])
    keys[:, inner] = npts + npts * npts * (k - 1) + np.arange(ne)[:, None] * nloc + inner

    # number the keys in order of first appearance
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    element_dofs = number[inverse].reshape(ne, nloc)
    points_arr = phys.reshape(ne * nloc, 2)[first[order]]
    boundary_arr = on_boundary.ravel()[first[order]]
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

