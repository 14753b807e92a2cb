"""Boundary-graph diffeomorphisms between a curved domain and its polygonal
approximation, with measured Lipschitz closeness.

A patch is a strip under a C^2 graph x2 = phi(x1); the map keeps x1 and
rescales x2 by phi_h/phi, where phi_h is the piecewise-affine interpolant of
phi at the patch nodes.  Outside the strip the map is the identity; epsilon
is the sup of the spectral norm of the displacement gradient.  That gradient
has one nonzero row, whose norm grows with x2, so the sup over x2 is taken
exactly on the graph x2 = phi(x1); only x1 is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GraphBoundaryPatch",
    "GraphMap",
    "LipschitzMapEstimate",
    "NotADiffeomorphism",
    "PiecewiseAffine",
    "build_graph_map",
    "estimate_eps",
    "interpolate_boundary",
    "polygon_disk_eps",
]


class NotADiffeomorphism(ValueError):
    """The rescaling factor is not positive on the patch."""


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
        xs = np.linspace(a, b, 257)
        if (np.asarray(self.phi(xs)) < self.eta0 - 1e-12).any():
            raise ValueError("phi drops below its stated lower bound eta0")


class PiecewiseAffine:
    """Piecewise-affine interpolant with one-sided slopes at the nodes."""

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.slopes = np.diff(self.values) / np.diff(self.nodes)

    def interval_of(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.nodes, x, side="right") - 1
        return np.clip(idx, 0, len(self.slopes) - 1)

    def __call__(self, x, interval=None):
        x = np.asarray(x, dtype=float)
        i = self.interval_of(x) if interval is None else interval
        return self.values[i] + self.slopes[i] * (x - self.nodes[i])

    def derivative(self, x, interval=None):
        x = np.asarray(x, dtype=float)
        i = self.interval_of(x) if interval is None else interval
        return self.slopes[i]


def interpolate_boundary(patch: GraphBoundaryPatch) -> PiecewiseAffine:
    """Piecewise-affine interpolant of phi at the patch nodes."""
    return PiecewiseAffine(patch.nodes, np.asarray(patch.phi(patch.nodes), dtype=float))


class GraphMap:
    """F(x1, x2) = (x1, (phi_h/phi)(x1) * x2) on the strip, identity outside."""

    def __init__(self, patch: GraphBoundaryPatch, phi_h: PiecewiseAffine):
        self.patch = patch
        self.phi_h = phi_h

    def ratio(self, x1, interval=None):
        return self.phi_h(x1, interval=interval) / self.patch.phi(x1)

    def ratio_derivative(self, x1, interval=None):
        x1 = np.asarray(x1, dtype=float)
        p = np.asarray(self.patch.phi(x1), dtype=float)
        dp = np.asarray(self.patch.dphi(x1), dtype=float)
        ph = self.phi_h(x1, interval=interval)
        dph = self.phi_h.derivative(x1, interval=interval)
        return (dph * p - ph * dp) / (p * p)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = pts.copy()
        a, b = self.patch.interval
        inside = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= 0)
        x1 = pts[inside, 0]
        out[inside, 1] = self.ratio(x1) * pts[inside, 1]
        return out

    def invert(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = pts.copy()
        a, b = self.patch.interval
        inside = (pts[:, 0] >= a) & (pts[:, 0] <= b) & (pts[:, 1] >= 0)
        x1 = pts[inside, 0]
        out[inside, 1] = pts[inside, 1] / self.ratio(x1)
        return out


def build_graph_map(patch: GraphBoundaryPatch, phi_h: PiecewiseAffine) -> GraphMap:
    """Assemble the patch map, rejecting non-positive interpolants."""
    if (phi_h.values <= 0).any():
        raise NotADiffeomorphism("interpolant is not positive on the patch")
    return GraphMap(patch, phi_h)


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

    @staticmethod
    def combine(parts: list["LipschitzMapEstimate"]) -> "LipschitzMapEstimate":
        return LipschitzMapEstimate(
            eps_forward=max(p.eps_forward for p in parts),
            eps_inverse=max(p.eps_inverse for p in parts),
            eps=max(p.eps for p in parts),
            jacobian_deviation=max(p.jacobian_deviation for p in parts),
            sample_count=sum(p.sample_count for p in parts),
            neumann_inverse_bound=max(p.neumann_inverse_bound for p in parts),
        )


def estimate_eps(graph_map: GraphMap, grid_density: int = 512) -> LipschitzMapEstimate:
    """Sup of the displacement-gradient norms over the strip, sampled in x1.

    DF - I = [[0, 0], [x2 r', r - 1]] and DF^-1 - I = [[0, 0],
    [-x2 r'/r, 1/r - 1]] with r = phi_h/phi: one nonzero row each, whose
    norm grows with x2, so each sup over x2 is the row norm at x2 = phi(x1).
    About grid_density x1 samples are spread over the subintervals in
    proportion to their lengths (slopes are one-sided at the interpolation
    nodes), so the sup over x1 is a lower bound that converges as
    grid_density grows; sample_count is the number of x1 samples.
    """
    if grid_density < 100:
        raise ValueError("grid density must be at least 100 x1 samples")
    patch = graph_map.patch
    a, b = patch.interval
    xs, ivl = [], []
    for i in range(len(patch.nodes) - 1):
        x0, x1 = patch.nodes[i], patch.nodes[i + 1]
        count = max(4, int(round(grid_density * (x1 - x0) / (b - a))) + 1)
        xs.append(np.linspace(x0, x1, count))
        ivl.append(np.full(count, i))
    x = np.concatenate(xs)
    ivl = np.concatenate(ivl)
    r = graph_map.ratio(x, interval=ivl)
    if (r <= 0).any():
        raise NotADiffeomorphism("mapped boundary crosses zero on the patch")
    dr = graph_map.ratio_derivative(x, interval=ivl)
    c = np.asarray(patch.phi(x), dtype=float) * dr  # x2 r' at x2 = phi(x1)
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


def circle_patches(n: int) -> list[tuple[GraphBoundaryPatch, PiecewiseAffine]]:
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
        patch = GraphBoundaryPatch(
            interval=(float(nodes[0]), float(nodes[-1])),
            phi=phi,
            dphi=dphi,
            eta0=math.cos(0.5 * width) * (1.0 - 1e-12),
            nodes=nodes,
        )
        out.append((patch, interpolate_boundary(patch)))
    return out


def polygon_disk_eps(n: int, grid_density: int = 512) -> LipschitzMapEstimate:
    """Measured epsilon of the disk-to-inscribed-n-gon patchwork (max over
    the four patches)."""
    parts = [
        estimate_eps(build_graph_map(patch, phi_h), grid_density=grid_density)
        for patch, phi_h in circle_patches(n)
    ]
    return LipschitzMapEstimate.combine(parts)
