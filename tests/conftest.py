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
