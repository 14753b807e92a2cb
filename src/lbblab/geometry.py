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

log = logging.getLogger(__name__)

__all__ = [
    "Mesh",
    "MeshError",
    "ParentMap",
    "SvSplitParams",
    "element_sizes",
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
    triangles : (nt, 3) int array, counterclockwise (empty for quad meshes)
    quads : (nq, 4) int array, counterclockwise (empty for triangle meshes)
    boundary_edges : (nb, 3) int array of (vertex_a, vertex_b, element)
    """

    points: np.ndarray
    triangles: np.ndarray
    quads: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        for a in (self.points, self.triangles, self.quads, self.boundary_edges):
            a.setflags(write=False)

    @property
    def is_quad(self) -> bool:
        return len(self.quads) > 0

    @property
    def elements(self) -> np.ndarray:
        return self.quads if self.is_quad else self.triangles

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
        return make_mesh(pts, triangles=self.triangles if not self.is_quad else None,
                         quads=self.quads if self.is_quad else None)


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


def _element_edges(elems: np.ndarray):
    """Directed edges (a, b, element) walked counterclockwise."""
    k = elems.shape[1]
    out = []
    for loc in range(k):
        a = elems[:, loc]
        b = elems[:, (loc + 1) % k]
        out.append(np.stack([a, b, np.arange(len(elems))], axis=1))
    return np.concatenate(out, axis=0)


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


def make_mesh(points, triangles=None, quads=None, repair_orientation=True) -> Mesh:
    """Validate raw arrays and build a Mesh.

    Checks homogeneity, element orientation (repairing if requested),
    conformity (shared edges match by vertex indices) and that boundary
    edges form closed loops.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise MeshError("points must be an (n, 2) array")
    if not np.isfinite(points).all():
        raise MeshError("non-finite vertex coordinates")

    have_t = triangles is not None and len(triangles) > 0
    have_q = quads is not None and len(quads) > 0
    if have_t == have_q:
        raise MeshError("mesh must be homogeneous: all-triangle or all-quad")
    elems = np.ascontiguousarray(triangles if have_t else quads, dtype=np.int64)
    if elems.min() < 0 or elems.max() >= len(points):
        raise MeshError("element vertex index out of range")

    elems, flipped = _check_positive(points, elems, repair_orientation)
    if flipped:
        log.warning("re-oriented %d element(s) to counterclockwise", flipped)

    edges = _element_edges(elems)
    key = np.minimum(edges[:, 0], edges[:, 1]) * len(points) + np.maximum(
        edges[:, 0], edges[:, 1]
    )
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    _, first_idx, cnt = np.unique(key_s, return_index=True, return_counts=True)
    if cnt.max(initial=0) > 2:
        raise MeshError("non-manifold edge shared by more than two elements")
    # interior edges must appear once in each direction (orientation consistency)
    boundary_rows = []
    for i0, c in zip(first_idx, cnt):
        rows = edges[order[i0 : i0 + c]]
        if c == 2:
            if rows[0, 0] != rows[1, 1] or rows[0, 1] != rows[1, 0]:
                raise MeshError("inconsistent orientation across a shared edge")
        else:
            boundary_rows.append(rows[0])
    boundary = (
        np.array(boundary_rows, dtype=np.int64)
        if boundary_rows
        else np.empty((0, 3), dtype=np.int64)
    )
    # closed loops: every boundary vertex appears once as source, once as target
    if len(boundary):
        src = np.sort(boundary[:, 0])
        dst = np.sort(boundary[:, 1])
        if not np.array_equal(src, dst):
            raise MeshError("boundary edges do not form closed loops")

    return Mesh(
        points=points,
        triangles=elems if have_t else np.empty((0, 3), dtype=np.int64),
        quads=elems if have_q else np.empty((0, 4), dtype=np.int64),
        boundary_edges=boundary,
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
    return make_mesh(points, quads=np.array(quads, dtype=np.int64))


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
    quads = quad_mesh.quads
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
    return make_mesh(points, triangles=tris, repair_orientation=False)


def _incident_fan(mesh: Mesh, node: int):
    """Ordered fan of triangles around a node.

    Returns (angles, closed): apex angles of the incident triangles ordered
    so consecutive ones share an edge, and whether the fan closes around the
    node (interior) or is an open chain (boundary).
    """
    if mesh.is_quad:
        raise MeshError("regularity index is defined on triangle meshes")
    tris = mesh.triangles
    inc = np.nonzero((tris == node).any(axis=1))[0]
    if len(inc) < 2:
        raise MeshError("node has fewer than 2 incident triangles")
    # neighbour vertices per incident triangle
    pairs = {}
    for e in inc:
        vs = [v for v in tris[e] if v != node]
        pairs[e] = tuple(vs)
    # adjacency between incident triangles via shared (node, v) edges
    by_vertex: dict[int, list[int]] = {}
    for e, (a, b) in pairs.items():
        by_vertex.setdefault(a, []).append(e)
        by_vertex.setdefault(b, []).append(e)
    if any(len(v) > 2 for v in by_vertex.values()):
        raise MeshError("non-manifold fan around node")
    # start from an open end if one exists
    start = None
    for v, es in by_vertex.items():
        if len(es) == 1:
            start = es[0]
            break
    closed = start is None
    if start is None:
        start = inc[0]
    order = [start]
    seen = {start}
    cur = start
    while len(order) < len(inc):
        nxt = None
        for v in pairs[cur]:
            for e in by_vertex[v]:
                if e not in seen:
                    nxt = e
                    break
            if nxt is not None:
                break
        if nxt is None:
            raise MeshError("incident triangles are not orderable into a fan")
        order.append(nxt)
        seen.add(nxt)
        cur = nxt
    angles = []
    p0 = mesh.points[node]
    for e in order:
        a, b = pairs[e]
        va = mesh.points[a] - p0
        vb = mesh.points[b] - p0
        cosang = np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb))
        angles.append(float(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return np.array(angles), closed


def regularity_index(mesh: Mesh, node: int) -> float:
    """Max over consecutive incident-triangle pairs of |theta_j + theta_{j+1} - pi|.

    Zero iff the node is singular (incident edges lie on two straight
    lines).  For interior nodes the fan is cyclic and the wrap-around pair
    is included; for boundary nodes the chain is open.
    """
    angles, closed = _incident_fan(mesh, node)
    n = len(angles)
    pairs = [(j, j + 1) for j in range(n - 1)]
    if closed:
        pairs.append((n - 1, 0))
    return max(abs(angles[i] + angles[j] - np.pi) for i, j in pairs)


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
    mesh = make_mesh(points, triangles=tris, repair_orientation=False)
    for _ in range(refinement_levels):
        mesh, _pm = refine_uniform(mesh)
    return mesh


# affine maps child-reference -> parent-reference for the four sub-cells
_TRI_SUBCELL_MAT = np.array(
    [
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.0, -0.5], [0.5, 0.5]],
    ]
)
_TRI_SUBCELL_OFF = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
_QUAD_SUBCELL_MAT = np.array([[[0.5, 0.0], [0.0, 0.5]]] * 4)
_QUAD_SUBCELL_OFF = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])


@dataclass(frozen=True)
class ParentMap:
    """Affine link from child elements to elements of an ancestor mesh.

    For child e, reference coordinates xc map to parent reference
    coordinates matrix[e] @ xc + offset[e] of element parent[e].
    """

    parent: np.ndarray
    matrix: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)

    def to_parent_ref(self, elem: int, ref_pts: np.ndarray) -> tuple[int, np.ndarray]:
        return int(self.parent[elem]), ref_pts @ self.matrix[elem].T + self.offset[elem]

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
    edge midpoints and center.  Returns the refined mesh and the parent map."""
    pts = list(mesh.points)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        k = (min(a, b), max(a, b))
        if k not in midpoint:
            midpoint[k] = len(pts)
            pts.append(0.5 * (mesh.points[a] + mesh.points[b]))
        return midpoint[k]

    children = []
    if mesh.is_quad:
        for a, b, c, d in mesh.quads:
            mab, mbc, mcd, mda = mid(a, b), mid(b, c), mid(c, d), mid(d, a)
            ctr = len(pts)
            pts.append(0.25 * (mesh.points[a] + mesh.points[b] + mesh.points[c] + mesh.points[d]))
            children += [
                [a, mab, ctr, mda],
                [mab, b, mbc, ctr],
                [ctr, mbc, c, mcd],
                [mda, ctr, mcd, d],
            ]
        mat, off = _QUAD_SUBCELL_MAT, _QUAD_SUBCELL_OFF
        refined = make_mesh(np.array(pts), quads=np.array(children, dtype=np.int64),
                            repair_orientation=False)
    else:
        for a, b, c in mesh.triangles:
            mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
            children += [
                [a, mab, mca],
                [mab, b, mbc],
                [mca, mbc, c],
                [mab, mbc, mca],
            ]
        mat, off = _TRI_SUBCELL_MAT, _TRI_SUBCELL_OFF
        refined = make_mesh(np.array(pts), triangles=np.array(children, dtype=np.int64),
                            repair_orientation=False)
    # children come four per parent, in sub-cell order
    sub = np.tile(np.arange(4), mesh.n_elements)
    pm = ParentMap(
        parent=np.repeat(np.arange(mesh.n_elements, dtype=np.int64), 4),
        matrix=mat[sub],
        offset=off[sub],
    )
    return refined, pm


def refine_chain(mesh: Mesh, levels: int) -> tuple[Mesh, ParentMap | None]:
    """Refine `levels` times, composing parent maps back to the input mesh."""
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
    off = np.einsum("qij,qij->qi", nrm, p)
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


def element_sizes(mesh: Mesh) -> tuple[float, float]:
    """(max element diameter, min inscribed-circle radius) over the mesh."""
    pts = mesh.points
    elems = mesh.elements
    gathered = pts[elems]  # (ne, k, 2)
    k = elems.shape[1]
    diam = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = np.linalg.norm(gathered[:, i] - gathered[:, j], axis=1)
            diam = max(diam, float(d.max()))
    if mesh.is_quad:
        inr = float(_quad_inradii(gathered).min())
    else:
        sides = np.stack(
            [
                np.linalg.norm(gathered[:, 1] - gathered[:, 0], axis=1),
                np.linalg.norm(gathered[:, 2] - gathered[:, 1], axis=1),
                np.linalg.norm(gathered[:, 0] - gathered[:, 2], axis=1),
            ],
            axis=1,
        )
        area = mesh.areas()
        inr = float((2.0 * area / sides.sum(axis=1)).min())
    return diam, float(inr)


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format."""
    with open(path, "w", newline="\n") as f:
        _write_mesh(mesh, f)


def _write_mesh(mesh: Mesh, f: io.TextIOBase) -> None:
    f.write(f"mesh2d {len(mesh.points)} {len(mesh.triangles)} {len(mesh.quads)}\n")
    for x, y in mesh.points:
        f.write(f"{x:.17g} {y:.17g}\n")
    for row in mesh.triangles:
        f.write(" ".join(str(int(v)) for v in row) + "\n")
    for row in mesh.quads:
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
        pos = 4
        pts = np.array(tokens[pos : pos + 2 * npts], dtype=float).reshape(npts, 2)
        pos += 2 * npts
        tris = np.array(tokens[pos : pos + 3 * ntri], dtype=np.int64).reshape(ntri, 3)
        pos += 3 * ntri
        quads = np.array(tokens[pos : pos + 4 * nquad], dtype=np.int64).reshape(nquad, 4)
    except (ValueError, IndexError) as exc:
        raise MeshError(f"malformed mesh2d file: {exc}") from exc
    return make_mesh(pts, triangles=tris if ntri else None, quads=quads if nquad else None)
