"""End-to-end computation of the discrete inf-sup constant for one pairing.

beta_n is the square root of the smallest Schur eigenvalue on the zero-mean
pressure subspace; with deflation disabled the trivial constant mode shows
up as sigma_0 = 0 and beta_n is taken from sigma_1 instead.

`compute_betas` solves a sequence of pairings, and successive pairings on
meshes of one connectivity as one chain: a sweep that moves a few
vertices (Fig. 3 moves the apex of one quad) builds the dof maps and the
unmoved elements' matrices once, and each eigensolve starts from the
previous point's eigenvectors.  `compute_beta` is the chain of one
pairing.
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
    SystemFamily,
    assemble_system,
    build_dof_map,
    moved_dof_map,
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
    """Whether b may continue a chain that a is in: the same spaces, options
    and connectivity.  On a shared velocity/pressure mesh vertices may move;
    nested pairs chain only on the very same meshes and parent map."""
    if (a.velocity_space, a.pressure_space, a.deflate_constants, a.solver) != (
        b.velocity_space, b.pressure_space, b.deflate_constants, b.solver
    ):
        return False
    va, vb = a.velocity_mesh, b.velocity_mesh
    if a.pressure_mesh is not None or b.pressure_mesh is not None:
        return va is vb and a.pressure_mesh is b.pressure_mesh and a.parent_map is b.parent_map
    return va.points.shape == vb.points.shape and np.array_equal(va.elements, vb.elements)


def _chain_groups(configs):
    """Maximal runs of successive configs of one family."""
    groups: list[list[PairConfig]] = []
    for config in configs:
        if groups and _same_family(groups[-1][0], config):
            groups[-1].append(config)
        else:
            groups.append([config])
    return groups


def _moved_elements(configs) -> np.ndarray:
    """Velocity elements whose vertices differ, in any config, from the first
    config's mesh."""
    first = configs[0].velocity_mesh
    corners = first.points[first.elements]
    moved = np.zeros(first.n_elements, dtype=bool)
    for config in configs[1:]:
        mesh = config.velocity_mesh
        if mesh is not first:
            moved |= (mesh.points[mesh.elements] != corners).any(axis=(1, 2))
    return moved


class _Chain:
    """Successive configs of one family (`_same_family`), solved in order.

    Built once per chain: the dof maps and, when elements move along the
    chain, a `SystemFamily` from the first mesh's system, so that each
    point assembles only its moved elements; otherwise every point is
    assembled in full.  Each point factors its own Ahat, and the ARPACK
    route starts from the previous point's eigenvectors (`ritz`, None for
    a cold start).  A chain of one config is exactly the single-point
    computation.
    """

    def __init__(self, configs: list[PairConfig], k: int):
        self.configs, self.k = configs, k
        self.dof_v = self.family = self.ritz = None

    def _build(self) -> None:
        first = self.configs[0]
        dof_v = build_dof_map(first.velocity_mesh, first.velocity_space)
        pressure_mesh = first.pressure_mesh or first.velocity_mesh
        self.dof_p = build_dof_map(pressure_mesh, first.pressure_space)
        if dof_v.n_global == 0:
            raise DimensionZeroError("velocity space is empty (all dofs on the boundary)")
        self.dim = self.dof_p.n_global - (1 if first.deflate_constants else 0)
        if self.dim < 1:
            raise DimensionZeroError("pressure space is zero-dimensional after deflation")
        moved = _moved_elements(self.configs)
        if moved.any():
            self.family = SystemFamily(assemble_system(dof_v, self.dof_p), dof_v, self.dof_p, moved)
        self.dof_v = dof_v

    def eigs(self, config: PairConfig) -> tuple[GenEigResult, int, DofMap]:
        """The point's eigenpairs, velocity dof count and pressure dof map."""
        if self.dof_v is None:
            self._build()
        mesh = config.velocity_mesh
        dof_p = moved_dof_map(self.dof_p, config.pressure_mesh or mesh)
        if self.family is None:
            dof_v = moved_dof_map(self.dof_v, mesh)
            system = assemble_system(dof_v, dof_p, parent_map=config.parent_map)
        else:
            system = self.family.system(mesh)
        factor = factorize_spd(system.Ahat)
        n_velocity, Mp, m = system.n_velocity, system.Mp, system.m
        op = SchurOperator(
            system.C, factor, system.D, system.E, row_nnz=system.nnz_A / n_velocity
        )
        del system  # A and B were never built; this frees the class blocks before the eigensolve
        result = smallest_generalized_eigs(
            op,
            Mp,
            min(self.k, self.dim),
            deflate=m if config.deflate_constants else None,
            options=config.solver,
            start=self.ritz,
        )
        self.ritz = result.vectors
        return result, n_velocity, dof_p

    def beta(self, config: PairConfig) -> BetaResult:
        result, n_velocity, dof_p = self.eigs(config)
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
        )


def compute_betas(configs, k: int = 6, failures: tuple = ()) -> list:
    """beta_n and the k smallest eigenvalues for each config, in order.

    Successive configs that share spaces, options and connectivity (a sweep
    over one mesh family) form a chain (`_Chain`): what does not depend on
    the moving vertices is built once, and each eigensolve starts from the
    previous point's.  A point that raises one of `failures` gets the
    exception in place of its result, and the points after it form a new
    chain, which starts cold; any other exception propagates.  Without
    deflation each point is solved as in `compute_beta`.
    """
    out = []
    for group in _chain_groups(configs):
        chain = None
        for i, config in enumerate(group):
            if chain is None:
                chain = _Chain(group[i:], k if config.deflate_constants else max(k, 2))
            try:
                out.append(chain.beta(config))
            except failures as exc:
                chain = None
                out.append(exc)
    return out


def compute_beta(config: PairConfig, k: int = 6) -> BetaResult:
    """Assemble the pairing and return beta_n plus the k smallest eigenvalues.

    With deflation (default), beta_n^2 is the smallest returned eigenvalue;
    without it, sigma_0 = 0 is reported first and beta_n^2 is sigma_1.  The
    chain of one config of `compute_betas`.
    """
    return compute_betas([config], k)[0]


def schur_spectrum(config: PairConfig, k: int = 6) -> np.ndarray:
    """The k smallest Schur eigenvalues for the pairing, ascending."""
    result, _, _ = _Chain([config], k).eigs(config)
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
