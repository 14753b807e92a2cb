"""Lipschitz closeness of a curved domain and its polygonal approximation.

A patch is a strip under a C^2 graph x2 = phi(x1).  The map F of the strip
onto its polygonal counterpart keeps x1 and rescales x2 by r = phi_h/phi,
where phi_h is the piecewise-affine interpolant of phi at the patch nodes;
outside the strip F is the identity.  `estimate_eps` gives the sup of the
spectral norm of the displacement gradients DF - I and DF^-1 - I in closed
form: each has one nonzero row, whose norm grows with x2, so the sup over
x2 is taken exactly on the graph x2 = phi(x1) and only x1 is sampled.
`polygon_disk_eps` takes the max over the four `circle_patches` of the unit
disk against its inscribed n-gon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GraphBoundaryPatch",
    "LipschitzMapEstimate",
    "NotADiffeomorphism",
    "circle_patches",
    "estimate_eps",
    "polygon_disk_eps",
]


class NotADiffeomorphism(ValueError):
    """The interpolant or the rescaling factor is not positive on the patch."""


@dataclass(frozen=True)
class GraphBoundaryPatch:
    """A C^2 boundary graph phi >= eta0 > 0 over [a, b] with interpolation nodes."""

    interval: tuple[float, float]
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    eta0: float
    nodes: np.ndarray

    def __post_init__(self):
        a, b = self.interval
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if len(nodes) < 2 or (np.diff(nodes) <= 0).any():
            raise ValueError("nodes must be strictly increasing")
        if not (math.isclose(nodes[0], a, abs_tol=1e-14) and math.isclose(nodes[-1], b, abs_tol=1e-14)):
            raise ValueError("nodes must span the patch interval")
        _check_lower_bound(self, self.phi(np.linspace(a, b, 257)))


def _check_lower_bound(patch: GraphBoundaryPatch, values) -> None:
    """Raise ValueError where sampled phi values break phi >= eta0."""
    if (np.asarray(values) < patch.eta0 - 1e-12).any():
        raise ValueError("phi drops below its stated lower bound eta0")


@dataclass(frozen=True)
class LipschitzMapEstimate:
    """Sampled Lipschitz closeness of one map (or the max over a patchwork).

    eps_forward = sup ||DF - I||, eps_inverse = sup ||DF^-1 - I|| (spectral
    norms), eps = max of both, jacobian_deviation = sup |1 - det DF|.  The
    Neumann bound eps0/(1 - eps0) is infinite when eps_forward >= 1.
    """

    eps_forward: float
    eps_inverse: float
    eps: float
    jacobian_deviation: float
    sample_count: int
    neumann_inverse_bound: float


def estimate_eps(patch: GraphBoundaryPatch, grid_density: int = 512) -> LipschitzMapEstimate:
    """Sup of the displacement-gradient norms over the strip, sampled in x1.

    DF - I = [[0, 0], [x2 r', r - 1]] and DF^-1 - I = [[0, 0],
    [-x2 r'/r, 1/r - 1]] with r = phi_h/phi: one nonzero row each, whose
    norm grows with x2, so each sup over x2 is the row norm at x2 = phi(x1).
    About grid_density x1 samples are spread over the subintervals in
    proportion to their lengths (slopes are one-sided at the interpolation
    nodes), so the sup over x1 is a lower bound that converges as
    grid_density grows; sample_count is the number of x1 samples.  Every
    node and sample is checked against phi >= eta0, as the patch's own
    samples are (ValueError).
    """
    if grid_density < 100:
        raise ValueError("grid density must be at least 100 x1 samples")
    nodes = patch.nodes
    values = np.asarray(patch.phi(nodes), dtype=float)
    if (values <= 0).any():
        raise NotADiffeomorphism("interpolant is not positive on the patch")
    _check_lower_bound(patch, values)
    slopes = np.diff(values) / np.diff(nodes)
    a, b = patch.interval
    xs, ivl = [], []
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        count = max(4, int(round(grid_density * (x1 - x0) / (b - a))) + 1)
        xs.append(np.linspace(x0, x1, count))
        ivl.append(np.full(count, i))
    x = np.concatenate(xs)
    i = np.concatenate(ivl)
    p = np.asarray(patch.phi(x), dtype=float)
    _check_lower_bound(patch, p)
    phi_h = values[i] + slopes[i] * (x - nodes[i])
    r = phi_h / p
    if (r <= 0).any():
        raise NotADiffeomorphism("mapped boundary crosses zero on the patch")
    dr = (slopes[i] * p - phi_h * np.asarray(patch.dphi(x), dtype=float)) / (p * p)
    c = p * dr  # x2 r' at x2 = phi(x1)
    d = r - 1.0
    eps_fwd = float(np.sqrt(c * c + d * d).max())
    eps_inv = float(np.sqrt((c / r) ** 2 + (1.0 / r - 1.0) ** 2).max())
    jac_dev = float(np.abs(1.0 - r).max())
    neumann = eps_fwd / (1.0 - eps_fwd) if eps_fwd < 1.0 else float("inf")
    return LipschitzMapEstimate(
        eps_forward=eps_fwd,
        eps_inverse=eps_inv,
        eps=max(eps_fwd, eps_inv),
        jacobian_deviation=jac_dev,
        sample_count=int(x.size),
        neumann_inverse_bound=neumann,
    )


def circle_patches(n: int) -> list[GraphBoundaryPatch]:
    """Four graph patches covering the unit circle against the inscribed n-gon.

    Each quarter is rotated so its arc is the graph x2 = sqrt(1 - x1^2);
    the interpolation nodes are the rotated polygon vertices, so the
    interpolant is exactly the chord chain of the polygon.
    """
    if n < 8:
        raise ValueError("patches stay graphs only for n >= 8")
    splits = [int(round(j * n / 4.0)) for j in range(5)]
    out = []

    def phi(x):
        return np.sqrt(1.0 - np.asarray(x) ** 2)

    def dphi(x):
        x = np.asarray(x)
        return -x / np.sqrt(1.0 - x**2)

    for j in range(4):
        k0, k1 = splits[j], splits[j + 1]
        th0, th1 = 2.0 * math.pi * k0 / n, 2.0 * math.pi * k1 / n
        alpha = math.pi / 2.0 - 0.5 * (th0 + th1)
        nodes = np.array(
            sorted(math.cos(2.0 * math.pi * k / n + alpha) for k in range(k0, k1 + 1))
        )
        width = th1 - th0
        out.append(GraphBoundaryPatch(
            interval=(float(nodes[0]), float(nodes[-1])),
            phi=phi,
            dphi=dphi,
            eta0=math.cos(0.5 * width) * (1.0 - 1e-12),
            nodes=nodes,
        ))
    return out


def polygon_disk_eps(n: int, grid_density: int = 512) -> LipschitzMapEstimate:
    """Measured epsilon of the disk-to-inscribed-n-gon patchwork (max over
    the four patches)."""
    parts = [estimate_eps(patch, grid_density=grid_density) for patch in circle_patches(n)]
    return LipschitzMapEstimate(
        eps_forward=max(p.eps_forward for p in parts),
        eps_inverse=max(p.eps_inverse for p in parts),
        eps=max(p.eps for p in parts),
        jacobian_deviation=max(p.jacobian_deviation for p in parts),
        sample_count=sum(p.sample_count for p in parts),
        neumann_inverse_bound=max(p.neumann_inverse_bound for p in parts),
    )
