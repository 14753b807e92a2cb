import dataclasses
import math

import numpy as np
import pytest

from lbblab.perturb import (
    GraphBoundaryPatch,
    LipschitzMapEstimate,
    NotADiffeomorphism,
    circle_patches,
    estimate_eps,
    polygon_disk_eps,
)


def parabola_patch(nodes=(0.0, 0.5, 1.0)):
    return GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: 1.0 + np.asarray(x) * (1.0 - np.asarray(x)),
        dphi=lambda x: 1.0 - 2.0 * np.asarray(x),
        eta0=1.0,
        nodes=np.asarray(nodes),
    )


def wild_patch():
    # steep oscillation, far from its three-node interpolant
    return GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: 1.0 + 0.9 * np.sin(40.0 * np.asarray(x)),
        dphi=lambda x: 36.0 * np.cos(40.0 * np.asarray(x)),
        eta0=0.05,
        nodes=np.array([0.0, 0.4, 1.0]),
    )


def ratio_and_derivative(patch, x, iv):
    """r = phi_h/phi and r' from np.interp on the nodes and the slope of
    subinterval iv, written apart from the library's closed form."""
    values = patch.phi(patch.nodes)
    slopes = np.diff(values) / np.diff(patch.nodes)
    phi, dphi = patch.phi(x), patch.dphi(x)
    phi_h = np.interp(x, patch.nodes, values)
    return phi_h / phi, (slopes[iv] * phi - phi_h * dphi) / phi**2


def test_interpolate_constant_exact():
    patch = GraphBoundaryPatch(
        interval=(0.0, 2.0),
        phi=lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
        dphi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        eta0=3.0,
        nodes=np.array([0.0, 0.7, 2.0]),
    )
    # the interpolant of a constant is the constant itself: F = Id exactly
    est = estimate_eps(patch, 128)
    assert (est.eps, est.jacobian_deviation, est.neumann_inverse_bound) == (0.0, 0.0, 0.0)


def test_identity_map_eps_zero():
    # affine phi is reproduced exactly: F = Id
    patch = GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: 1.0 + 0.5 * np.asarray(x),
        dphi=lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        eta0=1.0,
        nodes=np.array([0.0, 0.3, 1.0]),
    )
    est = estimate_eps(patch, 128)
    assert est.eps == pytest.approx(0.0, abs=1e-13)
    assert est.jacobian_deviation == pytest.approx(0.0, abs=1e-13)


def test_estimate_eps_matches_dense_reference():
    patch = parabola_patch()
    est = estimate_eps(patch, grid_density=512)
    # closed-form oracle: norm of the displacement-gradient row, maximized
    # over x2 = phi(x1) (the norm is increasing in x2), sampled densely
    xs = np.linspace(0, 1, 1_000_001)
    iv = np.clip(np.searchsorted(patch.nodes, xs, side="right") - 1, 0, 1)
    r, dr = ratio_and_derivative(patch, xs, iv)
    ref = np.sqrt((patch.phi(xs) * dr) ** 2 + (r - 1.0) ** 2).max()
    assert est.eps_forward == pytest.approx(ref, rel=1e-3)


def test_eps_halving_under_node_refinement():
    est2 = estimate_eps(parabola_patch(), 256)
    est4 = estimate_eps(parabola_patch((0.0, 0.25, 0.5, 0.75, 1.0)), 256)
    assert 0.35 <= est4.eps_forward / est2.eps_forward <= 0.65


def test_jacobian_bound_invariant():
    for nodes in [(0.0, 0.5, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)]:
        est = estimate_eps(parabola_patch(nodes), 200)
        e = est.eps_forward
        assert est.jacobian_deviation <= 2 * e + e * e + 1e-12


def test_neumann_bound_and_direct_inverse():
    est = estimate_eps(parabola_patch(), 256)
    assert est.eps_forward < 1
    assert est.eps_inverse <= est.neumann_inverse_bound + 1e-12
    assert est.eps == max(est.eps_forward, est.eps_inverse)


def test_rejects_nonpositive_interpolant():
    # a dip to phi(0.3) < 0 narrow enough to pass between the 257 samples
    # that check phi >= eta0, with a node at its bottom
    def dip(x):
        return 2.0 * np.exp(-(((np.asarray(x) - 0.3) / 2e-4) ** 2))

    patch = GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: parabola_patch().phi(x) - dip(x),
        dphi=lambda x: parabola_patch().dphi(x) + 2.0 * (np.asarray(x) - 0.3) / 4e-8 * dip(x),
        eta0=1.0,
        nodes=np.array([0.0, 0.3, 1.0]),
    )
    assert patch.phi(0.3) < 0
    with pytest.raises(NotADiffeomorphism, match="interpolant is not positive"):
        estimate_eps(patch)


DIP_CENTER = 153 / 512  # an x1 sample of density 512 on nodes (0, 0.5, 1)


@pytest.mark.parametrize(
    "nodes", [(0.0, 0.5, 1.0), (0.0, DIP_CENTER, 1.0)], ids=["x1-sample", "node"]
)
def test_estimate_checks_the_lower_bound_at_its_own_points(nodes):
    # a dip to phi = 0.71 < eta0 = 1, below eta0 over about 0.0020, wider
    # than the x1 spacing 1/512 but inside the gap between the patch's
    # samples 76/256 and 77/256; phi stays positive, so the interpolant
    # and the rescaling factor do
    def dip(x):
        return 0.5 * np.exp(-(((np.asarray(x) - DIP_CENTER) / 1.1e-3) ** 2))

    patch = GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: parabola_patch().phi(x) - dip(x),
        dphi=lambda x: parabola_patch().dphi(x)
        + 2.0 * (np.asarray(x) - DIP_CENTER) / 1.1e-3**2 * dip(x),
        eta0=1.0,
        nodes=np.array(nodes),
    )
    low = np.linspace(0.0, 1.0, 100001)
    low = low[patch.phi(low) < 1.0]
    assert 1 / 512 < low[-1] - low[0] and 76 / 256 < low[0] and low[-1] < 77 / 256
    assert patch.phi(DIP_CENTER) > 0
    with pytest.raises(ValueError, match="phi drops below its stated lower bound eta0"):
        estimate_eps(patch, 512)


def test_wild_graph_reports_unbounded_neumann():
    # forward closeness exceeds 1, Neumann bound infinite
    est = estimate_eps(wild_patch(), 256)
    assert est.eps_forward >= 1
    assert math.isinf(est.neumann_inverse_bound)


# every field of the estimate, floats as float.hex, in field order
PINNED_ESTIMATES = {
    "disk 8": (lambda: polygon_disk_eps(8, 512), (
        "0x1.2bec333018868p-1", "0x1.2bec333018868p-1", "0x1.2bec333018868p-1",
        "0x1.6fe7617c9dbf0p-4", 2056, "0x1.6a09e667f3bd0p+0")),
    "disk 16": (lambda: polygon_disk_eps(16, 512), (
        "0x1.53c8faa900ce4p-2", "0x1.53c8faa900ce4p-2", "0x1.53c8faa900ce4p-2",
        "0x1.c95da5029ad80p-6", 2064, "0x1.fc8638969d190p-2")),
    "disk 32": (lambda: polygon_disk_eps(32, 512), (
        "0x1.6f3ff546f5ec8p-3", "0x1.6f3ff546f5ec8p-3", "0x1.6f3ff546f5ec8p-3",
        "0x1.0876961e3dc00p-7", 2088, "0x1.bf7ec6c3b03fap-3")),
    "disk 64": (lambda: polygon_disk_eps(64, 512), (
        "0x1.7f9a1c63d96c3p-4", "0x1.7f9a1c63d96c3p-4", "0x1.7f9a1c63d96c3p-4",
        "0x1.1f6a80f99bb00p-9", 2096, "0x1.a73d55278c4f6p-4")),
    "parabola": (lambda: estimate_eps(parabola_patch(), 256), (
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.b0684956f5590p-5", 258, "0x1.0000000000000p+0")),
    # the only case whose sups lie inside a subinterval, where r' shows;
    # on the circle and the parabola both sit at a node, where r = 1
    "wild sine": (lambda: estimate_eps(wild_patch(), 256), (
        "0x1.f691d16c33fcap+6", "0x1.2ce22a522ded9p+5", "0x1.f691d16c33fcap+6",
        "0x1.c4fe8dff9579fp+3", 258, "inf")),
}


@pytest.mark.parametrize("name", sorted(PINNED_ESTIMATES))
def test_estimate_bits_are_pinned(name):
    estimate, pinned = PINNED_ESTIMATES[name]
    est = estimate()
    got = [getattr(est, f.name) for f in dataclasses.fields(LipschitzMapEstimate)]
    assert [v if isinstance(v, int) else float.hex(v) for v in got] == list(pinned)


@pytest.mark.parametrize(
    "patch",
    [parabola_patch(), circle_patches(16)[1], wild_patch()],
    ids=["parabola", "circle 16", "wild sine"],
)
def test_estimate_eps_matches_brute_force_norms(patch):
    # oracle: the 2-norms of DF - I and DF^-1 - I, built as full 2x2
    # matrices on the same x1 samples and on x2 levels in [0, phi(x1)]
    # that include the graph, where the sups are attained.  On the parabola
    # and the circle both sups sit at a node, where r = 1; the wild sine
    # puts them inside the subintervals
    density = 256
    est = estimate_eps(patch, grid_density=density)
    a, b = patch.interval
    xs, iv = [], []
    for i, (x0, x1) in enumerate(zip(patch.nodes, patch.nodes[1:])):
        count = max(4, int(round(density * (x1 - x0) / (b - a))) + 1)
        xs.append(np.linspace(x0, x1, count))
        iv.append(np.full(count, i))
    x, iv = np.concatenate(xs), np.concatenate(iv)
    assert est.sample_count == x.size
    r, dr = ratio_and_derivative(patch, x, iv)
    x2 = np.multiply.outer(np.array([0.0, 0.25, 0.5, 0.9, 1.0]), patch.phi(x))
    DF = np.zeros((*x2.shape, 2, 2))
    DF[..., 0, 0] = 1.0
    DF[..., 1, 0] = x2 * dr
    DF[..., 1, 1] = r
    eye = np.eye(2)
    fwd = np.linalg.norm(DF - eye, 2, axis=(-2, -1)).max()
    inv = np.linalg.norm(np.linalg.inv(DF) - eye, 2, axis=(-2, -1)).max()
    assert est.eps_forward > 0
    assert est.eps_forward == pytest.approx(fwd, rel=1e-14)
    assert est.eps_inverse == pytest.approx(inv, rel=1e-14)


# ------------------------------------------------------------ circle patches


def test_circle_patch_nodes_on_circle():
    patches = circle_patches(16)
    assert sum(len(patch.nodes) - 1 for patch in patches) == 16
    for patch in patches:
        xs = patch.nodes
        assert np.allclose(xs**2 + np.asarray(patch.phi(xs)) ** 2, 1.0, atol=1e-13)
        # the chord chain through the nodes is a run of 16-gon edges
        chords = np.hypot(np.diff(xs), np.diff(patch.phi(xs)))
        assert np.allclose(chords, 2.0 * math.sin(math.pi / 16), atol=1e-14)


def test_polygon_disk_eps_rates():
    est = {n: polygon_disk_eps(n, grid_density=256) for n in (8, 16, 32, 64)}
    assert 0.4 <= est[32].eps_forward / est[16].eps_forward <= 0.6
    vals = [est[n].eps_forward for n in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for e in est.values():
        f = e.eps_forward
        assert e.jacobian_deviation <= 2 * f + f * f + 1e-12
    with pytest.raises(ValueError):
        polygon_disk_eps(7)


def test_polygon_beta_tracks_disk_with_stable_pair():
    # with a corner-robust element pair, the computed beta follows the
    # domain constant within the first-order gap bound plus a declared
    # discretization slack, across polygon refinement of the disk
    from lbblab.analytic import beta_disk, polygon_gap_bound
    from lbblab.fem import BoundaryCondition, Continuity, ElementSpace, Family
    from lbblab.geometry import regular_polygon_mesh
    from lbblab.infsup import PairConfig, compute_beta

    disk = beta_disk().value
    delta_disc = 0.02
    vel = ElementSpace(Family.TRIANGLE, 2, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    pre = ElementSpace(Family.TRIANGLE, 0, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    for n in (8, 16, 32):
        cfg = PairConfig(
            velocity_space=vel, pressure_space=pre,
            velocity_mesh=regular_polygon_mesh(n, 1),
        )
        beta = compute_beta(cfg, k=1).beta
        assert abs(beta - disk) <= polygon_gap_bound(n) + delta_disc
