import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eig, null_space

from lbblab import infsup, spectral
from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)
from lbblab.geometry import (
    MeshError,
    ParentMap,
    make_mesh,
    rect_grid,
    regular_polygon_mesh,
)


@pytest.fixture(scope="session", autouse=True)
def numpy_blas_threads_unchanged():
    """Fail the session if it leaves numpy's OpenBLAS thread count changed."""
    blas = infsup._numpy_blas()
    before = blas[0]() if blas else None
    yield
    after = blas[0]() if blas else None
    assert after == before, f"numpy's OpenBLAS threads went from {before} to {after}"


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


def mixed_block_eigs(A, B, Mp, k, deflate=None, *, cap=3000):
    """Independent QZ oracle: the k smallest eigenpairs of the uncondensed
    block saddle pencil [[A, -B^T], [B, 0]] x = sigma [[0, 0], [0, Mp]] x,
    solved densely, on the zero-mean pressures when `deflate` (the mean
    vector m) is given.

    It never forms the Schur complement.  Desk-scale only: a pencil of more
    than `cap` rows raises EigenSolverError.  The vectors go through the
    production finisher (Rayleigh quotients and the residual contract) and
    the result reports method "qz".
    """
    A, B, Mp = sparse.csr_matrix(A), sparse.csr_matrix(B), sparse.csr_matrix(Mp)
    nv, n = A.shape[0], Mp.shape[0]
    if nv + n > cap:
        raise spectral.EigenSolverError(
            f"mixed pencil of size {nv + n} exceeds the desk-scale cap {cap}"
        )
    Bd, Mpd = B.toarray(), Mp.toarray()
    if deflate is not None:
        w = spectral._householder_to_e1(deflate)
        Bd = (Bd - 2.0 * np.outer(w, w @ Bd))[1:, :]
        Mpd = spectral._reflect_matrix(Mpd, w)
    m_red = Bd.shape[0]
    if k > m_red:
        raise spectral.EigenSolverError(f"k={k} outside the available dimension {m_red}")
    # equilibrate the two diagonal blocks before QZ
    sa = 1.0 / np.sqrt(abs(A).max())
    sp_ = 1.0 / np.sqrt(np.abs(Mpd).max())
    K = np.zeros((nv + m_red, nv + m_red))
    K[:nv, :nv] = sa * sa * A.toarray()
    K[:nv, nv:] = -(sa * sp_) * Bd.T
    K[nv:, :nv] = (sa * sp_) * Bd
    M = np.zeros_like(K)
    M[nv:, nv:] = sp_ * sp_ * Mpd
    wvals, vr = eig(K, M, right=True)
    finite = np.isfinite(wvals)
    real = np.abs(wvals.imag) <= 1e-8 * (1.0 + np.abs(wvals.real))
    idx = np.nonzero(finite & real)[0]
    order = idx[np.argsort(wvals.real[idx])]
    vecs = vr[:, order[:k]].real[nv:, :]
    if deflate is not None:
        vecs = spectral._expand_deflated(vecs, w)
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs, Mp @ vecs)))
    vecs = vecs / np.where(norms > 0, norms, 1.0)
    op = spectral.SchurOperator(B, spectral.factorize_spd(A))
    return spectral._finish(op, Mp, vecs, "qz")


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
        for loc, (kind, entity, slot) in enumerate(zip(ref.kind, ref.entity, ref.slot)):
            if kind == "v":
                key = ("v", int(verts[entity]))
                on_boundary = verts[entity] in boundary_vertices
            elif kind == "e":
                a, b = int(verts[entity]), int(verts[(entity + 1) % nv])
                if a > b:
                    a, b = b, a
                    slot = (k - 2) - slot
                key = ("e", a, b, slot)
                on_boundary = (a, b) in boundary_pairs
            else:
                key = ("i", e, int(entity))
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
    return DofMap(
        mesh=mesh,
        space=space,
        n_global=len(points_arr),
        element_dofs=element_dofs,
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


def loop_refine_uniform(mesh):
    """`refine_uniform` as a loop over elements that numbers each new
    midpoint through a dict keyed by the sorted vertex pair: the reference
    that the vectorized refinement must reproduce bit for bit."""
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
        for a, b, c, d in mesh.elements:
            mab, mbc, mcd, mda = mid(a, b), mid(b, c), mid(c, d), mid(d, a)
            ctr = len(pts)
            pts.append(0.25 * (mesh.points[a] + mesh.points[b] + mesh.points[c] + mesh.points[d]))
            children += [
                [a, mab, ctr, mda],
                [mab, b, mbc, ctr],
                [ctr, mbc, c, mcd],
                [mda, ctr, mcd, d],
            ]
        mat = np.array([[[0.5, 0.0], [0.0, 0.5]]] * 4)
        off = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        refined = make_mesh(np.array(pts), np.array(children, dtype=np.int64),
                            repair_orientation=False)
    else:
        for a, b, c in mesh.elements:
            mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
            children += [
                [a, mab, mca],
                [mab, b, mbc],
                [mca, mbc, c],
                [mab, mbc, mca],
            ]
        mat = np.array(
            [
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.0, -0.5], [0.5, 0.5]],
            ]
        )
        off = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
        refined = make_mesh(np.array(pts), np.array(children, dtype=np.int64),
                            repair_orientation=False)
    sub = np.tile(np.arange(4), mesh.n_elements)
    pm = ParentMap(
        parent=np.repeat(np.arange(mesh.n_elements, dtype=np.int64), 4),
        matrix=mat[sub],
        offset=off[sub],
    )
    return refined, pm


def fan_angles(mesh, node):
    """Ordered fan of triangles around a node, walked from neighbour to
    neighbour.

    Returns (angles, closed): the angles at the node of the incident
    triangles, ordered so consecutive ones share an edge, and whether the
    fan closes around the node (interior) or is an open chain (boundary).
    """
    if mesh.is_quad:
        raise MeshError("regularity index is defined on triangle meshes")
    tris = mesh.elements
    inc = np.nonzero((tris == node).any(axis=1))[0]
    if len(inc) < 2:
        raise MeshError("node has fewer than 2 incident triangles")
    pairs = {e: tuple(v for v in tris[e] if v != node) for e in inc}
    by_vertex: dict[int, list[int]] = {}
    for e, (a, b) in pairs.items():
        by_vertex.setdefault(a, []).append(e)
        by_vertex.setdefault(b, []).append(e)
    if any(len(v) > 2 for v in by_vertex.values()):
        raise MeshError("non-manifold fan around node")
    # start from an open end if one exists
    start = next((es[0] for es in by_vertex.values() if len(es) == 1), None)
    closed = start is None
    if start is None:
        start = inc[0]
    order, seen, cur = [start], {start}, start
    while len(order) < len(inc):
        nxt = next((e for v in pairs[cur] for e in by_vertex[v] if e not in seen), None)
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


def fan_regularity_index(mesh, node):
    """The regularity index over consecutive triangles of the ordered fan
    (`fan_angles`), the wrap-around pair included for a closed fan: the
    reference for `regularity_index`."""
    angles, closed = fan_angles(mesh, node)
    n = len(angles)
    pairs = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    return max(abs(angles[i] + angles[j] - np.pi) for i, j in pairs)


def permuted_sv_mesh():
    """An SV mesh with relabelled vertices, shuffled elements and rotated
    local vertex order, so edges are met from both ends and edge slots are
    reversed."""
    mesh = sv_mesh(4, 1, 8, 2, 0.4, 0.04)
    rng = np.random.default_rng(5)
    label = rng.permutation(len(mesh.points))
    points = np.empty_like(mesh.points)
    points[label] = mesh.points
    tris = label[mesh.elements][rng.permutation(mesh.n_elements)]
    shift = rng.integers(0, 3, len(tris))
    tris = tris[np.arange(len(tris))[:, None], (np.arange(3) + shift[:, None]) % 3]
    return make_mesh(points, tris)


# meshes whose edges are met in many orders, as (id, coarse mesh factory,
# refinement depth): a grid, SV splits with a special quad, polygon fans and
# a relabelled, shuffled and rotated SV mesh
_TURN = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
EDGE_MESHES = [
    ("8x4", lambda: rect_grid(2, 1, 8, 4), 3),
    ("SV24x6", lambda: sv_mesh(4, 1, 24, 6, 0.4, 0.04), 1),
    ("SV6x2", lambda: sv_mesh(4, 1, 6, 2, 0.4, 0.1), 2),
    ("fan5", lambda: regular_polygon_mesh(5), 1),
    ("fan64", lambda: regular_polygon_mesh(64), 1),
    ("fan16", lambda: regular_polygon_mesh(16), 3),
    ("permuted-SV", lambda: permuted_sv_mesh().transformed(_TURN, (0.3, -0.2)), 1),
]
