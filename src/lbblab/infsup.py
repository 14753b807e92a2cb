"""End-to-end computation of the discrete inf-sup constant for one pairing.

beta_n is the square root of the smallest Schur eigenvalue on the zero-mean
pressure subspace: the pencil deflated by the mean vector m.

`compute_betas` solves a sequence of pairings, each built and assembled
afresh.  A pairing of the same family as the previous one (the same
spaces, options and connectivity: Fig. 3 moves the apex of one quad)
starts its eigensolve from the previous point's eigenvectors.

`compute_betas` holds the BLAS thread rule of `spectral._OneBlasThread`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .fem import (
    BoundaryCondition,
    Continuity,
    DofMap,
    ElementSpace,
    assemble_system,
    build_dof_map,
)
from .geometry import Mesh, ParentMap, element_sizes
from .spectral import (
    _ONE_BLAS_THREAD,
    GenEigResult,
    SchurOperator,
    SolverOptions,
    factorize_spd,
    smallest_generalized_eigs,
)

__all__ = [
    "BetaResult",
    "DimensionZeroError",
    "PairConfig",
    "compute_beta",
    "compute_betas",
]


class DimensionZeroError(ValueError):
    """The (deflated) pressure space is zero-dimensional."""


@dataclass(frozen=True)
class PairConfig:
    """Velocity/pressure pairing on one mesh (or a nested mesh pair).

    The velocity space must be C0 with zero trace (used componentwise for
    the two velocity components); the pressure space carries no boundary
    condition and its zero-mean constraint is enforced by deflation.
    """

    velocity_space: ElementSpace
    pressure_space: ElementSpace
    velocity_mesh: Mesh
    pressure_mesh: Mesh | None = None
    parent_map: ParentMap | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        vs, ps = self.velocity_space, self.pressure_space
        if vs.continuity is not Continuity.C0 or vs.bc is not BoundaryCondition.ZERO_TRACE:
            raise ValueError("velocity space must be C0 with zero trace")
        if ps.bc is not BoundaryCondition.NONE:
            raise ValueError("pressure space carries no boundary condition")
        if self.pressure_mesh is not None and self.parent_map is None:
            raise ValueError("separate pressure mesh requires a parent map")

    def hash(self) -> str:
        payload = {
            "velocity": _space_key(self.velocity_space),
            "pressure": _space_key(self.pressure_space),
            "vmesh": _mesh_digest(self.velocity_mesh),
            "pmesh": _mesh_digest(self.pressure_mesh) if self.pressure_mesh is not None else None,
            "deflate": True,  # a constant, so every config hash keeps its earlier value
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _space_key(space: ElementSpace):
    return [space.family.value, space.degree, space.continuity.value, space.bc.value]


def _mesh_digest(mesh: Mesh) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.points).tobytes())
    h.update(np.ascontiguousarray(mesh.elements).tobytes())
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class BetaResult:
    """Computed inf-sup constant with the leading Schur eigenvalues."""

    beta: float
    sigmas: np.ndarray
    eigenfunction: np.ndarray = field(repr=False)
    n_velocity: int
    n_pressure: int
    max_diameter_velocity: float
    min_inradius_pressure: float
    residual_max: float
    method: str
    config_hash: str
    dof_p: DofMap = field(repr=False)


def _same_family(a: PairConfig, b: PairConfig) -> bool:
    """Whether b may warm-start from a: the same spaces, options and
    connectivity.  On a shared velocity/pressure mesh vertices may move;
    nested pairs warm-start only on the very same meshes and parent map."""
    if (a.velocity_space, a.pressure_space, a.solver) != (
        b.velocity_space, b.pressure_space, b.solver
    ):
        return False
    va, vb = a.velocity_mesh, b.velocity_mesh
    if a.pressure_mesh is not None or b.pressure_mesh is not None:
        return va is vb and a.pressure_mesh is b.pressure_mesh and a.parent_map is b.parent_map
    return va.points.shape == vb.points.shape and np.array_equal(va.elements, vb.elements)


def _eigs(config: PairConfig, k: int, start=None) -> tuple[GenEigResult, int, DofMap]:
    """The pairing's k smallest eigenpairs, velocity dof count and pressure
    dof map.  The ARPACK route starts from `start`, the eigenvectors of a
    previous point of the same family (`_same_family`), if given."""
    mesh = config.velocity_mesh
    dof_v = build_dof_map(mesh, config.velocity_space)
    dof_p = build_dof_map(config.pressure_mesh or mesh, config.pressure_space)
    if dof_v.n_global == 0:
        raise DimensionZeroError("velocity space is empty (all dofs on the boundary)")
    dim = dof_p.n_global - 1
    if dim < 1:
        raise DimensionZeroError("pressure space is zero-dimensional after deflation")
    system = assemble_system(dof_v, dof_p, parent_map=config.parent_map)
    factor = factorize_spd(system.Ahat)
    n_velocity, Mp, m = system.n_velocity, system.Mp, system.m
    op = SchurOperator(system.C, factor, system.D, system.E)
    # A and B were never built; this frees level 0, the element class
    # matrices, before the eigensolve
    del system
    result = smallest_generalized_eigs(
        op,
        Mp,
        min(k, dim),
        deflate=m,
        options=config.solver,
        start=start,
    )
    return result, n_velocity, dof_p


def _beta(config: PairConfig, k: int, start=None) -> tuple[BetaResult, np.ndarray]:
    """The point's BetaResult and eigenvectors; `start` as in `_eigs`."""
    result, n_velocity, dof_p = _eigs(config, k, start)
    diam_v, inr_p = element_sizes(config.velocity_mesh, config.pressure_mesh)
    return BetaResult(
        beta=float(np.sqrt(max(result.values[0], 0.0))),
        sigmas=result.values,
        eigenfunction=result.vectors[:, 0],
        n_velocity=n_velocity,
        n_pressure=dof_p.n_global,
        max_diameter_velocity=diam_v,
        min_inradius_pressure=inr_p,
        residual_max=float(result.residuals.max()),
        method=result.method,
        config_hash=config.hash(),
        dof_p=dof_p,
    ), result.vectors


def compute_betas(configs, k: int = 6, failures: tuple = ()) -> list:
    """beta_n and the k smallest eigenvalues for each config, in order.

    Every point is built and assembled afresh.  A point of the same family
    as the previous one (the same spaces, options and connectivity, as in a
    sweep over one mesh family) starts its eigensolve from that point's
    eigenvectors.  A point that raises one of `failures` gets the exception
    in place of its result, and the point after it starts cold; any other
    exception propagates.  BLAS threads follow `spectral._OneBlasThread`.
    """
    out, previous, start = [], None, None
    with _ONE_BLAS_THREAD:
        for config in configs:
            if previous is None or not _same_family(previous, config):
                start = None
            previous = config
            try:
                result, start = _beta(config, k, start)
            except failures as exc:
                result, start = exc, None
            out.append(result)
    return out


def compute_beta(config: PairConfig, k: int = 6) -> BetaResult:
    """Assemble the pairing and return beta_n plus the k smallest eigenvalues
    on the zero-mean pressures; beta_n^2 is the smallest of them."""
    return compute_betas([config], k)[0]

