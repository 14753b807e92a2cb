"""End-to-end computation of the discrete inf-sup constant for one pairing.

beta_n is the square root of the smallest Schur eigenvalue on the zero-mean
pressure subspace; with deflation disabled the trivial constant mode shows
up as sigma_0 = 0 and beta_n is taken from sigma_1 instead.

`compute_betas` solves a sequence of pairings, each built and assembled
afresh.  A pairing of the same family as the previous one (the same
spaces, options and connectivity: Fig. 3 moves the apex of one quad)
starts its eigensolve from the previous point's eigenvectors.
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
    "UscReport",
    "compute_beta",
    "compute_betas",
    "eigenfunction_export",
    "schur_spectrum",
    "usc_check",
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
    deflate_constants: bool = True
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
            "deflate": self.deflate_constants,
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
    if (a.velocity_space, a.pressure_space, a.deflate_constants, a.solver) != (
        b.velocity_space, b.pressure_space, b.deflate_constants, b.solver
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
    dim = dof_p.n_global - (1 if config.deflate_constants else 0)
    if dim < 1:
        raise DimensionZeroError("pressure space is zero-dimensional after deflation")
    system = assemble_system(dof_v, dof_p, parent_map=config.parent_map)
    factor = factorize_spd(system.Ahat)
    n_velocity, Mp, m = system.n_velocity, system.Mp, system.m
    op = SchurOperator(system.C, factor, system.D, system.E, row_nnz=system.nnz_A / n_velocity)
    del system  # A and B were never built; this frees the class blocks before the eigensolve
    result = smallest_generalized_eigs(
        op,
        Mp,
        min(k, dim),
        deflate=m if config.deflate_constants else None,
        options=config.solver,
        start=start,
    )
    return result, n_velocity, dof_p


def _beta(config: PairConfig, k: int, start=None) -> tuple[BetaResult, np.ndarray]:
    """The point's BetaResult and eigenvectors; `start` as in `_eigs`."""
    result, n_velocity, dof_p = _eigs(config, k, start)
    sigmas = result.values
    if config.deflate_constants:
        lead, eigenfunction = sigmas[0], result.vectors[:, 0]
    elif len(sigmas) < 2:
        raise DimensionZeroError("pressure space has no mode beyond the constants")
    else:
        lead, eigenfunction = sigmas[1], result.vectors[:, 1]
    diam_v, _ = element_sizes(config.velocity_mesh)
    _, inr_p = element_sizes(config.pressure_mesh or config.velocity_mesh)
    return BetaResult(
        beta=float(np.sqrt(max(lead, 0.0))),
        sigmas=sigmas,
        eigenfunction=eigenfunction,
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
    exception propagates.  Without deflation each point is solved as in
    `compute_beta`.
    """
    out, previous, start = [], None, None
    for config in configs:
        if previous is None or not _same_family(previous, config):
            start = None
        previous = config
        try:
            result, start = _beta(config, k if config.deflate_constants else max(k, 2), start)
        except failures as exc:
            result, start = exc, None
        out.append(result)
    return out


def compute_beta(config: PairConfig, k: int = 6) -> BetaResult:
    """Assemble the pairing and return beta_n plus the k smallest eigenvalues.

    With deflation (default), beta_n^2 is the smallest returned eigenvalue;
    without it, sigma_0 = 0 is reported first and beta_n^2 is sigma_1.
    """
    return compute_betas([config], k)[0]


def schur_spectrum(config: PairConfig, k: int = 6) -> np.ndarray:
    """The k smallest Schur eigenvalues for the pairing, ascending."""
    result, _, _ = _eigs(config, k)
    return result.values


@dataclass(frozen=True)
class UscReport:
    passed: bool
    beta: float
    reference: float
    slack: float

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"usc-check {verdict}: beta={self.beta:.6g} "
            f"<= {self.reference:.6g} + {self.slack:.3g}"
        )


def usc_check(config: PairConfig, beta_ref: float, slack: float) -> UscReport:
    """Upper semi-continuity check: computed beta_n must not exceed the
    continuous reference by more than `slack`."""
    result = compute_beta(config, k=2 if config.deflate_constants else 3)
    return UscReport(
        passed=bool(result.beta <= beta_ref + slack),
        beta=result.beta,
        reference=float(beta_ref),
        slack=float(slack),
    )


def eigenfunction_export(result: BetaResult, path) -> None:
    """CSV of the leading pressure eigenfunction with dof geometry."""
    if result.eigenfunction is None:
        raise ValueError("result carries no eigenfunction")
    q = result.eigenfunction
    dof = result.dof_p
    with open(path, "w", newline="\n") as f:
        f.write("element,local_node,global_dof,x,y,coefficient\n")
        for e in range(dof.element_dofs.shape[0]):
            for loc in range(dof.n_local):
                g = dof.element_dofs[e, loc]
                if g < 0:
                    continue
                x, y = dof.dof_points[g]
                f.write(
                    f"{e},{loc},{g},{x:.17g},{y:.17g},{q[g]:.17g}\n"
                )
