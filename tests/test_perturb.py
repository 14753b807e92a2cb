import math

import numpy as np
import pytest

from lbblab.perturb import (
    GraphBoundaryPatch,
    NotADiffeomorphism,
    PiecewiseAffine,
    build_graph_map,
    circle_patches,
    estimate_eps,
    interpolate_boundary,
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


def test_interpolate_constant_exact():
    patch = GraphBoundaryPatch(
        interval=(0.0, 2.0),
        phi=lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
        dphi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        eta0=3.0,
        nodes=np.array([0.0, 0.7, 2.0]),
    )
    ph = interpolate_boundary(patch)
    xs = np.linspace(0, 2, 101)
    assert np.allclose(ph(xs), 3.0, atol=1e-15)


def test_interpolation_error_parabola():
    patch = parabola_patch()
    ph = interpolate_boundary(patch)
    xs = np.linspace(0, 1, 100001)
    err = np.abs(ph(xs) - patch.phi(xs))
    assert err.max() == pytest.approx(1.0 / 16.0, abs=1e-8)
    arg = xs[np.argmax(err)]
    assert min(abs(arg - 0.25), abs(arg - 0.75)) < 1e-3


def test_interpolant_derivative_error_linear_in_h():
    sups = []
    for m in (2, 4, 8, 16):
        patch = parabola_patch(np.linspace(0, 1, m + 1))
        ph = interpolate_boundary(patch)
        xs = np.linspace(1e-9, 1 - 1e-9, 20001)
        sups.append(np.abs(ph.derivative(xs) - patch.dphi(xs)).max())
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    assert all(0.35 <= r <= 0.65 for r in ratios)
    # bound sup|phi_h' - phi'| <= h * sup|phi''|
    for m, sup in zip((2, 4, 8, 16), sups):
        assert sup <= (1.0 / m) * 2.0 + 1e-12


def test_graph_map_values():
    patch = parabola_patch()
    ph = interpolate_boundary(patch)
    gm = build_graph_map(patch, ph)
    # ratio at the interpolation nodes is 1: displacement vanishes there
    for xi in patch.nodes:
        assert gm.ratio(np.array([xi]))[0] == pytest.approx(1.0, abs=1e-14)
    # frozen example: (phi_h/phi)(1/4) = (9/8)/(19/16) = 18/19
    assert gm.ratio(np.array([0.25]))[0] == pytest.approx(18.0 / 19.0, rel=1e-14)


def test_identity_map_eps_zero():
    # affine phi is reproduced exactly: F = Id
    patch = GraphBoundaryPatch(
        interval=(0.0, 1.0),
        phi=lambda x: 1.0 + 0.5 * np.asarray(x),
        dphi=lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        eta0=1.0,
        nodes=np.array([0.0, 0.3, 1.0]),
    )
    est = estimate_eps(build_graph_map(patch, interpolate_boundary(patch)), 128)
    assert est.eps == pytest.approx(0.0, abs=1e-13)
    assert est.jacobian_deviation == pytest.approx(0.0, abs=1e-13)


def test_estimate_eps_matches_dense_reference():
    patch = parabola_patch()
    gm = build_graph_map(patch, interpolate_boundary(patch))
    est = estimate_eps(gm, grid_density=512)
    # closed-form oracle: norm of the displacement-gradient row, maximized
    # over x2 = phi(x1) (the norm is increasing in x2), sampled densely
    xs = np.linspace(0, 1, 1_000_001)
    iv = np.clip(np.searchsorted(patch.nodes, xs, side="right") - 1, 0, 1)
    phi = patch.phi(xs)
    r = gm.ratio(xs, interval=iv)
    dr = gm.ratio_derivative(xs, interval=iv)
    ref = np.sqrt((phi * dr) ** 2 + (r - 1.0) ** 2).max()
    assert est.eps_forward == pytest.approx(ref, rel=1e-3)


def test_eps_halving_under_node_refinement():
    est2 = estimate_eps(
        build_graph_map(parabola_patch(), interpolate_boundary(parabola_patch())), 256
    )
    patch4 = parabola_patch((0.0, 0.25, 0.5, 0.75, 1.0))
    est4 = estimate_eps(build_graph_map(patch4, interpolate_boundary(patch4)), 256)
    assert 0.35 <= est4.eps_forward / est2.eps_forward <= 0.65


def test_jacobian_bound_invariant():
    for nodes in [(0.0, 0.5, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)]:
        patch = parabola_patch(nodes)
        est = estimate_eps(build_graph_map(patch, interpolate_boundary(patch)), 200)
        e = est.eps_forward
        assert est.jacobian_deviation <= 2 * e + e * e + 1e-12


def test_identity_on_strip_sides():
    patch = parabola_patch()
    gm = build_graph_map(patch, interpolate_boundary(patch))
    pts = np.array([[0.0, 0.3], [1.0, 0.9], [0.37, 0.0], [0.81, 0.0]])
    assert np.allclose(gm.apply(pts), pts, atol=1e-14)


def test_composition_roundtrip():
    patch = parabola_patch()
    gm = build_graph_map(patch, interpolate_boundary(patch))
    rng = np.random.default_rng(2)
    x1 = rng.uniform(0, 1, 300)
    x2 = rng.uniform(0, 1, 300) * patch.phi(x1)
    pts = np.stack([x1, x2], axis=1)
    back = gm.invert(gm.apply(pts))
    assert np.abs(back - pts).max() <= 1e-8


def test_neumann_bound_and_direct_inverse():
    patch = parabola_patch()
    est = estimate_eps(build_graph_map(patch, interpolate_boundary(patch)), 256)
    assert est.eps_forward < 1
    assert est.eps_inverse <= est.neumann_inverse_bound + 1e-12
    assert est.eps == max(est.eps_forward, est.eps_inverse)


def test_rejects_nonpositive_interpolant():
    patch = parabola_patch()
    bad = PiecewiseAffine(np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.1, 1.0]))
    with pytest.raises(NotADiffeomorphism):
        build_graph_map(patch, bad)


def test_wild_graph_reports_unbounded_neumann():
    # forward closeness exceeds 1, Neumann bound infinite
    patch = wild_patch()
    est = estimate_eps(build_graph_map(patch, interpolate_boundary(patch)), 256)
    assert est.eps_forward >= 1
    assert math.isinf(est.neumann_inverse_bound)


@pytest.mark.parametrize(
    "patch, phi_h",
    [
        (parabola_patch(), interpolate_boundary(parabola_patch())),
        circle_patches(16)[1],
        (wild_patch(), interpolate_boundary(wild_patch())),
    ],
    ids=["parabola", "circle 16", "wild sine"],
)
def test_estimate_eps_matches_brute_force_norms(patch, phi_h):
    # oracle: the 2-norms of DF - I and DF^-1 - I, built as full 2x2
    # matrices on the same x1 samples and on x2 levels in [0, phi(x1)]
    # that include the graph, where the sups are attained.  On the parabola
    # and the circle both sups sit at a node, where r = 1; the wild sine
    # puts them inside the subintervals
    gm = build_graph_map(patch, phi_h)
    density = 256
    est = estimate_eps(gm, grid_density=density)
    a, b = patch.interval
    xs, iv = [], []
    for i, (x0, x1) in enumerate(zip(patch.nodes, patch.nodes[1:])):
        count = max(4, int(round(density * (x1 - x0) / (b - a))) + 1)
        xs.append(np.linspace(x0, x1, count))
        iv.append(np.full(count, i))
    x, iv = np.concatenate(xs), np.concatenate(iv)
    assert est.sample_count == x.size
    r, dr = gm.ratio(x, interval=iv), gm.ratio_derivative(x, interval=iv)
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
    for patch, ph in circle_patches(16):
        xs = patch.nodes
        assert np.allclose(xs**2 + np.asarray(patch.phi(xs)) ** 2, 1.0, atol=1e-13)
        assert np.allclose(ph(xs), patch.phi(xs), atol=1e-14)
        gm = build_graph_map(patch, ph)
        for xi in xs:
            assert gm.ratio(np.array([xi]))[0] == pytest.approx(1.0, abs=1e-12)


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
