"""Meshes of 2D domains: generators, refinement, quality functionals, text I/O.

A mesh is homogeneous (all-triangle or all-quad), conforming, and stores its
boundary as directed edges.  All generators emit counterclockwise elements;
loading external meshes re-orients automatically and reports how many
elements were flipped.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

log = logging.getLogger(__name__)

__all__ = [
    "Mesh",
    "MeshError",
    "ParentMap",
    "SvSplitParams",
    "element_sizes",
    "first_appearance",
    "load_mesh",
    "make_mesh",
    "rect_grid",
    "refine_chain",
    "refine_uniform",
    "reference_map",
    "regular_polygon_mesh",
    "regularity_index",
    "save_mesh",
    "sv_split",
]


class MeshError(ValueError):
    """Invalid or degenerate mesh data."""


@dataclass(frozen=True)
class Mesh:
    """Conforming homogeneous 2D mesh.

    points : (n, 2) float array of vertex coordinates
    elements : (ne, 3) triangle or (ne, 4) quad int array, counterclockwise;
        the vertex count sets the family
    boundary_edges : (nb, 3) int array of (vertex_a, vertex_b, element)
    element_edges : (ne, k) int array, the edge of each element side (side j
        joins local vertices j and j + 1), edges numbered in the order of
        the key min * n + max of their vertex pair
    on_boundary : (n_edges,) bool array, whether an edge has only one side
    """

    points: np.ndarray
    elements: np.ndarray
    boundary_edges: np.ndarray
    element_edges: np.ndarray = field(repr=False)
    on_boundary: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.points, self.elements, self.boundary_edges, self.element_edges,
                  self.on_boundary):
            a.setflags(write=False)

    @property
    def is_quad(self) -> bool:
        return self.elements.shape[1] == 4

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def areas(self) -> np.ndarray:
        """Signed areas per element (positive for valid meshes).

        The reference area times det J at the reference centroid: exact,
        since det J is constant on triangles and affine on the square.
        """
        corners, area, _ = _REFERENCE[self.elements.shape[1]]
        centroid = corners.mean(axis=0, keepdims=True)
        return area * _map_dets(self.points[self.elements], centroid)[:, 0]

    def transformed(self, matrix=None, shift=(0.0, 0.0)) -> "Mesh":
        """Mesh with points mapped through an affine map (rigid motion, scaling)."""
        pts = self.points
        if matrix is not None:
            pts = pts @ np.asarray(matrix, dtype=float).T
        pts = pts + np.asarray(shift, dtype=float)
        return make_mesh(pts, self.elements)


# per vertex count: reference corners (counterclockwise), reference area,
# and the vertex permutation that reverses an element's orientation
_REFERENCE = {
    3: (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0.5, [0, 2, 1]),
    4: (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), 1.0, [3, 2, 1, 0]),
}


def reference_map(p: np.ndarray, ref_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images and Jacobians of reference points in every element.

    p is (ne, 3, 2) for the affine map of the unit triangle or (ne, 4, 2)
    for the bi-affine map of the unit square, vertices in the order of the
    reference corners.  Returns x (ne, nq, 2) and J (ne, nq, 2, 2), where
    J[..., :, 0] = dx/du and J[..., :, 1] = dx/dv.
    """
    u, v = ref_pts[:, 0], ref_pts[:, 1]
    du = p[:, 1] - p[:, 0]
    J = np.empty((len(p), len(ref_pts), 2, 2))
    if p.shape[1] == 4:
        weights = ((1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v)
        dv = p[:, 3] - p[:, 0]
        dd = p[:, 0] - p[:, 1] + p[:, 2] - p[:, 3]
        J[:, :, :, 0] = du[:, None, :] + dd[:, None, :] * v[None, :, None]
        J[:, :, :, 1] = dv[:, None, :] + dd[:, None, :] * u[None, :, None]
    else:
        weights = (1 - u - v, u, v)
        J[:, :, :, 0] = du[:, None, :]
        J[:, :, :, 1] = (p[:, 2] - p[:, 0])[:, None, :]
    # summed in vertex order, so images are reproducible bit for bit; the
    # (ne, 2, nq) layout keeps numpy's inner loops long
    x = np.multiply.outer(p[:, 0], weights[0])
    for i in range(1, len(weights)):
        x += np.multiply.outer(p[:, i], weights[i])
    return x.transpose(0, 2, 1), J


def _map_dets(p: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """det J of the element maps at reference points, shape (ne, nq)."""
    _, J = reference_map(p, ref_pts)
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number equal keys alike, in the order in which they first appear.

    Returns (number, first): number has the shape of keys and holds the
    number of each key; first[m] is the flat index of the first key
    numbered m.
    """
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    return number[inverse].reshape(keys.shape), first[order]


def _check_positive(points: np.ndarray, elems: np.ndarray, repair: bool):
    """Ensure positive orientation; returns (elems, n_flipped) or raises.

    det J is constant on triangles and affine on the square, so positive
    values at the reference corners mean a positive map everywhere.
    """
    corners, _, flip = _REFERENCE[elems.shape[1]]
    elems = elems.copy()
    bad = (_map_dets(points[elems], corners) <= 0).any(axis=1)
    if bad.any():
        if not repair:
            raise MeshError(f"{bad.sum()} element(s) with non-positive Jacobian")
        elems[bad] = elems[bad][:, flip]
        if (_map_dets(points[elems[bad]], corners) <= 0).any():
            raise MeshError("degenerate or non-convex element")
    return elems, int(bad.sum())


def make_mesh(points, elements, repair_orientation=True) -> Mesh:
    """Validate raw arrays and build a Mesh.

    elements is a nonempty (ne, 3) triangle or (ne, 4) quad array.  Checks
    element orientation (repairing if requested), conformity (shared edges
    match by vertex indices) and that boundary edges form closed loops.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise MeshError("points must be an (n, 2) array")
    if not np.isfinite(points).all():
        raise MeshError("non-finite vertex coordinates")

    elems = np.ascontiguousarray(elements, dtype=np.int64)
    if elems.ndim != 2 or elems.shape[1] not in _REFERENCE or not len(elems):
        raise MeshError("elements must be a nonempty (n, 3) or (n, 4) array")
    if elems.min() < 0 or elems.max() >= len(points):
        raise MeshError("element vertex index out of range")

    elems, flipped = _check_positive(points, elems, repair_orientation)
    if flipped:
        log.warning("re-oriented %d element(s) to counterclockwise", flipped)

    # side j of an element runs from its vertex j to vertex j + 1; an edge
    # is keyed by its sorted vertex pair
    a, b = elems, np.roll(elems, -1, axis=1)
    key = np.minimum(a, b) * len(points) + np.maximum(a, b)
    _, first, edge, count = np.unique(
        key.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    if count.max(initial=0) > 2:
        raise MeshError("non-manifold edge shared by more than two elements")
    # interior edges must appear once in each direction (orientation consistency)
    direction = np.where(a < b, 1, -1).ravel()
    if np.bincount(edge, weights=direction)[count == 2].any():
        raise MeshError("inconsistent orientation across a shared edge")
    side = first[count == 1]
    boundary = np.stack([a.ravel()[side], b.ravel()[side], side // elems.shape[1]], axis=1)
    # closed loops: every boundary vertex appears once as source, once as target
    if not np.array_equal(np.sort(boundary[:, 0]), np.sort(boundary[:, 1])):
        raise MeshError("boundary edges do not form closed loops")

    return Mesh(
        points=points,
        elements=elems,
        boundary_edges=boundary,
        element_edges=edge.reshape(elems.shape),
        on_boundary=count == 1,
    )


def rect_grid(width: float, height: float, nx: int, ny: int) -> Mesh:
    """Uniform quad grid on (0, width) x (0, height).

    Vertices are stored bottom-left, bottom-right, top-right, top-left per
    quad, so the split parameter b > 0 decenters apexes toward the top edge.
    """
    if width <= 0 or height <= 0:
        raise MeshError("width and height must be positive")
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    points = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return i + j * (nx + 1)

    quads = []
    for j in range(ny):
        for i in range(nx):
            quads.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return make_mesh(points, np.array(quads, dtype=np.int64))


@dataclass(frozen=True)
class SvSplitParams:
    """Parameters of the four-triangle split of each quad.

    b : global decentering in [0, 1/2); apex at the bi-affine image of
        (1/2, 1/2 + b).
    special : optional (quad_index, a) with a in (-1/2, 1/2), overriding the
        apex position for that single quad.
    """

    b: float = 0.0
    special: tuple[int, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.b < 0.5:
            raise MeshError("b must lie in [0, 1/2)")
        if self.special is not None:
            _, a = self.special
            if not -0.5 < a < 0.5:
                raise MeshError("a must lie in (-1/2, 1/2)")


def sv_split(quad_mesh: Mesh, params: SvSplitParams) -> Mesh:
    """Split every quad into the four triangles joining its edges to an
    interior apex point.

    The apex of quad Q is the bi-affine image of (1/2, 1/2 + b), or of
    (1/2, 1/2 + a) for the special quad.  Raises MeshError if an apex
    degenerates onto an edge.
    """
    if not quad_mesh.is_quad:
        raise MeshError("sv_split requires an all-quad mesh")
    quads = quad_mesh.elements
    shifts = [params.b]
    if params.special is not None:
        qi, a = params.special
        if not 0 <= qi < len(quads):
            raise MeshError("special quad index out of range")
        shifts.append(a)
    x, _ = reference_map(quad_mesh.points[quads], np.array([[0.5, 0.5 + t] for t in shifts]))
    apex = x[:, 0]
    if params.special is not None:
        apex[qi] = x[qi, 1]
    points = np.concatenate([quad_mesh.points, apex], axis=0)
    apex_ids = np.repeat(len(quad_mesh.points) + np.arange(len(quads))[:, None], 4, axis=1)
    tris = np.stack([quads, np.roll(quads, -1, axis=1), apex_ids], axis=2).reshape(-1, 3)
    # reject apexes that landed on an edge (zero-area triangle); det J is
    # constant on a triangle, so one reference point serves
    det = _map_dets(points[tris], np.zeros((1, 2)))[:, 0]
    scale = quad_mesh.areas().repeat(4)
    if (det <= 1e-14 * scale).any():
        raise MeshError("degenerate split: apex lies on a quad edge")
    return make_mesh(points, tris, repair_orientation=False)


def regularity_index(mesh: Mesh, node: int) -> float:
    """Max over incident-triangle pairs sharing an edge of |theta_i + theta_j - pi|.

    Zero iff the node is singular (incident edges lie on two straight
    lines).  theta is a triangle's angle at the node; the pairs are those
    of the fan around the node, cyclic for an interior node and an open
    chain for a boundary node.
    """
    if mesh.is_quad:
        raise MeshError("regularity index is defined on triangle meshes")
    inc = np.nonzero((mesh.elements == node).any(axis=1))[0]
    if len(inc) < 2:
        raise MeshError("node has fewer than 2 incident triangles")
    tris, rows = mesh.elements[inc], np.arange(len(inc))
    at = np.argmax(tris == node, axis=1)
    # the two sides through the node: the one leaving it and the one entering it
    sides = mesh.element_edges[inc[:, None], np.stack([at, (at + 2) % 3], axis=1)].ravel()
    order = np.argsort(sides, kind="stable")
    shared = np.flatnonzero(sides[order][1:] == sides[order][:-1])
    i, j = order[shared] // 2, order[shared + 1] // 2
    fan = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(len(inc), len(inc)))
    if connected_components(fan, directed=False)[0] > 1:
        raise MeshError("incident triangles are not orderable into a fan")
    va = mesh.points[tris[rows, (at + 1) % 3]] - mesh.points[node]
    vb = mesh.points[tris[rows, (at + 2) % 3]] - mesh.points[node]
    cos = np.einsum("ij,ij->i", va, vb) / (
        np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1)
    )
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(np.abs(theta[i] + theta[j] - np.pi).max())


def regular_polygon_mesh(n: int, refinement_levels: int = 0) -> Mesh:
    """Fan triangulation of the regular n-gon inscribed in the unit circle,
    uniformly refined the given number of times."""
    if n < 3:
        raise MeshError("polygon needs at least 3 edges")
    ang = 2.0 * np.pi * np.arange(n) / n
    points = np.concatenate(
        [np.zeros((1, 2)), np.stack([np.cos(ang), np.sin(ang)], axis=1)], axis=0
    )
    tris = np.array(
        [[0, 1 + k, 1 + (k + 1) % n] for k in range(n)], dtype=np.int64
    )
    return refine_chain(make_mesh(points, tris, repair_orientation=False),
                        refinement_levels)[0]


# per vertex count, the four sub-cells of uniform refinement: their
# vertices as local indices (the element's vertices 0..k-1, then the
# midpoints of its sides k..2k-1, then a quad's centre 2k), and the affine
# maps child-reference -> parent-reference
_SUBCELLS = {
    3: (
        np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]),
        np.array([[[0.5, 0.0], [0.0, 0.5]]] * 3 + [[[0.0, -0.5], [0.5, 0.5]]]),
        np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0]]),
    ),
    4: (
        np.array([[0, 4, 8, 7], [4, 1, 5, 8], [8, 5, 2, 6], [7, 8, 6, 3]]),
        np.array([[[0.5, 0.0], [0.0, 0.5]]] * 4),
        np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]),
    ),
}


@dataclass(frozen=True)
class ParentMap:
    """Affine link from child elements to elements of an ancestor mesh.

    For child e, reference coordinates xc map to parent reference
    coordinates matrix[e] @ xc + offset[e] of element parent[e].
    """

    parent: np.ndarray
    matrix: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)

    def compose(self, finer: "ParentMap") -> "ParentMap":
        """Map from the finer map's children through self to the ancestor."""
        par = self.parent[finer.parent]
        mat = np.einsum("eij,ejk->eik", self.matrix[finer.parent], finer.matrix)
        off = (
            np.einsum("eij,ej->ei", self.matrix[finer.parent], finer.offset)
            + self.offset[finer.parent]
        )
        return ParentMap(parent=par, matrix=mat, offset=off)


def refine_uniform(mesh: Mesh) -> tuple[Mesh, ParentMap]:
    """Split each triangle into 4 by edge midpoints, each quad into 4 by
    edge midpoints and center.  Returns the refined mesh and the parent map.

    New points are numbered in order of first appearance, element by
    element: the midpoints of its sides, then a quad's centre.
    """
    pts, elems = mesh.points, mesh.elements
    ne, k = elems.shape
    p = pts[elems]
    keys, new = mesh.element_edges, 0.5 * (p + np.roll(p, -1, axis=1))
    if mesh.is_quad:
        # one key per centre, past the edge keys; summed in vertex order
        centre = 0.25 * (p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3])
        keys = np.column_stack([keys, len(mesh.on_boundary) + np.arange(ne)])
        new = np.concatenate([new, centre[:, None]], axis=1)
    number, first = first_appearance(keys)
    local = np.concatenate([elems, len(pts) + number], axis=1)
    table, mat, off = _SUBCELLS[k]
    children = local[:, table].reshape(-1, k)
    refined = make_mesh(
        np.concatenate([pts, new.reshape(-1, 2)[first]]), children, repair_orientation=False
    )
    # children come four per parent, in sub-cell order
    sub = np.tile(np.arange(4), ne)
    pm = ParentMap(
        parent=np.repeat(np.arange(ne, dtype=np.int64), 4),
        matrix=mat[sub],
        offset=off[sub],
    )
    return refined, pm


def refine_chain(mesh: Mesh, levels: int) -> tuple[Mesh, ParentMap | None]:
    """Refine `levels` times, composing parent maps back to the input mesh."""
    if levels < 0:
        raise MeshError("refinement depth must be nonnegative")
    if levels == 0:
        return mesh, None
    out, pm = refine_uniform(mesh)
    for _ in range(levels - 1):
        out, pm_fine = refine_uniform(out)
        pm = pm.compose(pm_fine)
    return out, pm


def _quad_inradii(p: np.ndarray) -> np.ndarray:
    """Largest inscribed-circle radius of each convex counterclockwise quad.

    p is (nq, 4, 2).  The optimal circle touches three of the four sides:
    for each triple solve the tangency system n_i . c - r = n_i . p_i and
    keep the largest r whose centre c also lies at least r inside the
    fourth side.  That test allows a relative rounding slack, since in a
    square every triple is tangent to the fourth side as well.
    """
    t = np.roll(p, -1, axis=1) - p
    nrm = np.stack([-t[..., 1], t[..., 0]], axis=-1)  # inward for counterclockwise order
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    # offsets from each quad's centroid: from absolute coordinates they would
    # carry rounding on the scale of |p|, not of the quad
    off = np.einsum("qij,qij->qi", nrm, p - p.mean(axis=1, keepdims=True))
    best = np.full(len(p), -np.inf)
    for skip in range(4):
        tri = [i for i in range(4) if i != skip]
        lhs = np.concatenate([nrm[:, tri], -np.ones((len(p), 3, 1))], axis=2)
        try:
            sol = np.linalg.solve(lhs, off[:, tri, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise MeshError("degenerate quad: two sides are collinear") from exc
        c, r = sol[:, :2], sol[:, 2]
        inside = np.einsum("qi,qi->q", nrm[:, skip], c) - off[:, skip] >= r * (1.0 - 1e-12)
        best = np.where(inside & (r > best), r, best)
    if not np.isfinite(best).all():
        raise MeshError("no inscribed circle (non-convex quad?)")
    return best


def _max_diameter(mesh: Mesh) -> float:
    gathered = mesh.points[mesh.elements]  # (ne, k, 2)
    k = gathered.shape[1]
    diam = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = np.linalg.norm(gathered[:, i] - gathered[:, j], axis=1)
            diam = max(diam, float(d.max()))
    return diam


def _min_inradius(mesh: Mesh) -> float:
    gathered = mesh.points[mesh.elements]
    if mesh.is_quad:
        return float(_quad_inradii(gathered).min())
    sides = np.stack(
        [
            np.linalg.norm(gathered[:, 1] - gathered[:, 0], axis=1),
            np.linalg.norm(gathered[:, 2] - gathered[:, 1], axis=1),
            np.linalg.norm(gathered[:, 0] - gathered[:, 2], axis=1),
        ],
        axis=1,
    )
    return float((2.0 * mesh.areas() / sides.sum(axis=1)).min())


def element_sizes(mesh: Mesh, pressure_mesh: Mesh | None = None) -> tuple[float, float]:
    """(max element diameter over mesh, min inscribed-circle radius over
    pressure_mesh, by default mesh itself): the sizes a pairing reports.
    Only the radii of the mesh that reports them are computed."""
    return _max_diameter(mesh), _min_inradius(mesh if pressure_mesh is None else pressure_mesh)


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format."""
    with open(path, "w", newline="\n") as f:
        _write_mesh(mesh, f)


def _write_mesh(mesh: Mesh, f: io.TextIOBase) -> None:
    ne = mesh.n_elements
    ntri, nquad = (0, ne) if mesh.is_quad else (ne, 0)
    f.write(f"mesh2d {len(mesh.points)} {ntri} {nquad}\n")
    for x, y in mesh.points:
        f.write(f"{x:.17g} {y:.17g}\n")
    for row in mesh.elements:
        f.write(" ".join(str(int(v)) for v in row) + "\n")


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format (re-orients elements if needed)."""
    with open(path) as f:
        tokens = f.read().split()
    if not tokens or tokens[0] != "mesh2d":
        raise MeshError("not a mesh2d file")
    try:
        npts, ntri, nquad = (int(t) for t in tokens[1:4])
        if len(tokens) != 4 + 2 * npts + 3 * ntri + 4 * nquad:
            raise MeshError("mesh2d file is truncated or has trailing data")
        pts = np.array(tokens[4 : 4 + 2 * npts], dtype=float).reshape(npts, 2)
        elems = np.array(tokens[4 + 2 * npts :], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise MeshError(f"malformed mesh2d file: {exc}") from exc
    if ntri and nquad:
        raise MeshError("mesh must be homogeneous: all-triangle or all-quad")
    return make_mesh(pts, elems.reshape(-1, 4 if nquad else 3))
