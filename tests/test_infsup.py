import csv
import dataclasses
import io
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from lbblab.analytic import cosserat_interval
from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)
from lbblab import infsup, spectral
from lbblab.geometry import MeshError, SvSplitParams, rect_grid, regular_polygon_mesh, sv_split
from lbblab.infsup import (
    DimensionZeroError,
    PairConfig,
    compute_beta,
    compute_betas,
)
from lbblab.spectral import (
    EigenSolverError,
    NotPositiveDefinite,
    SchurOperator,
    SolverOptions,
    factorize_spd,
    smallest_generalized_eigs,
)

from conftest import brute_force_sigmas, mixed_block_eigs, quad_pair_system

P4 = ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE)
P3DC = ElementSpace(Family.TRIANGLE, 3, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)


def _quad_pair(n, k, mesh):
    return PairConfig(
        velocity_space=ElementSpace(Family.QUAD, n, Continuity.C0, BoundaryCondition.ZERO_TRACE),
        pressure_space=ElementSpace(
            Family.QUAD, k, Continuity.DISCONTINUOUS, BoundaryCondition.NONE
        ),
        velocity_mesh=mesh,
    )


def test_beta_matches_dense_oracle():
    mesh = rect_grid(1, 1, 1, 1)
    cfg = _quad_pair(3, 1, mesh)
    result = compute_beta(cfg, k=3)
    dv = build_dof_map(mesh, cfg.velocity_space)
    dp = build_dof_map(mesh, cfg.pressure_space)
    oracle = brute_force_sigmas(assemble_system(dv, dp), deflate=True)
    assert result.beta == pytest.approx(math.sqrt(oracle[0]), abs=1e-9)
    assert 0.0 <= result.beta <= 1.0


def test_sv_coarse_plateau_and_singular_point():
    cfg = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(4, 1, 4, 1, b=0.4, a=0.4),
    )
    r = compute_beta(cfg, k=3)
    assert 0.205 <= r.beta <= 0.2185

    cfg0 = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(4, 1, 4, 1, b=0.4, a=0.0),
    )
    assert compute_beta(cfg0, k=3).beta <= 1e-6


def test_qn_qn_minus_one_beta_zero():
    r = compute_beta(_quad_pair(3, 2, rect_grid(1, 1, 1, 1)), k=3)
    assert r.beta <= 1e-8


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2)])
@pytest.mark.parametrize("options", [SolverOptions(), SolverOptions(dense_cap=1)],
                         ids=["dense", "arpack"])
def test_undeflated_spectrum_is_the_constant_mode_then_the_deflated_one(n, k, options):
    # on all pressures the constants give sigma_0 = 0, and the rest of the
    # spectrum is the zero-mean one that compute_beta solves for
    full = brute_force_sigmas(quad_pair_system(n, k, grid=(2, 2)), deflate=False)
    cfg = dataclasses.replace(_quad_pair(n, k, rect_grid(1, 1, 2, 2)), solver=options)
    r = compute_beta(cfg, k=6)
    assert r.method == ("dense" if options.dense_cap > 1 else "arpack")
    assert abs(full[0]) <= 1e-12
    assert np.allclose(r.sigmas, full[1:7], rtol=0.0, atol=1e-10)


def test_dimension_zero_error():
    mesh = rect_grid(1, 1, 1, 1)
    cfg = _quad_pair(2, 0, mesh)  # one P0 dof, empty after deflation
    with pytest.raises(DimensionZeroError):
        compute_beta(cfg)


def test_schur_spectrum_bounds():
    cfg = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(2, 1, 2, 1, b=0.4, a=0.4),
    )
    sig = compute_beta(cfg, k=8).sigmas
    assert (sig >= -1e-12).all()
    assert (sig <= 1.0 + 1e-9).all()
    assert (np.diff(sig) >= -1e-12).all()


def test_cosserat_interval_clustering():
    # square domain: corner opening pi/2 -> essential interval [0.1817, 0.8183];
    # the count inside is mesh-dependent (16 on this mesh with k=60)
    cfg = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(1, 1, 4, 4, b=0.4, a=0.4),
    )
    sig = compute_beta(cfg, k=60).sigmas
    low, high = cosserat_interval(math.pi / 2)
    inside = ((sig >= low) & (sig <= high)).sum()
    assert inside >= 5


def test_usc_check_examples():
    # upper semi-continuity: beta_n <= beta_ref + slack, and a reference far
    # below the discrete value fails
    cases = [
        (sv_mesh(4, 1, 8, 2, b=0.4, a=0.4), 0.218444, 0.005, True),
        (sv_mesh(2, 1, 4, 2, b=0.4, a=0.4), 0.387262, 0.005, True),
        (regular_polygon_mesh(16, 1), 1 / math.sqrt(2), 0.005, True),
        (sv_mesh(4, 1, 4, 1, b=0.4, a=0.4), 0.05, 0.001, False),
    ]
    for mesh, beta_ref, slack, passed in cases:
        cfg = PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=mesh)
        assert (compute_beta(cfg, k=2).beta <= beta_ref + slack) is passed


def test_csv_row_format():
    from lbblab.cli import _beta_cells, _beta_header

    cfg = _quad_pair(3, 1, rect_grid(1, 1, 1, 1))
    r = compute_beta(cfg, k=3)
    header = _beta_header(3)
    row = _beta_cells(r, 3)
    assert len(header) == len(row)
    assert header[0] == "config_hash"
    assert row[0] == r.config_hash
    assert float(row[header.index("beta")]) == pytest.approx(r.beta, rel=1e-16)
    assert int(row[header.index("n_pressure")]) == r.n_pressure
    assert row[header.index("flagged")] == "0"
    failed = _beta_cells(None, 3)
    assert len(failed) == len(header)
    assert failed[header.index("beta")] == "nan"
    assert failed[header.index("flagged")] == "1"


# ---------------------------------------------------------------- invariants


def test_basis_invariance():
    mesh = rect_grid(1, 1, 1, 1)
    cfg = _quad_pair(3, 1, mesh)
    dv = build_dof_map(mesh, cfg.velocity_space)
    dp = build_dof_map(mesh, cfg.pressure_space)
    sys_ = assemble_system(dv, dp)
    base = smallest_generalized_eigs(
        SchurOperator(sys_.B, factorize_spd(sys_.A)), sys_.Mp, 3, deflate=sys_.m
    ).values
    rng = np.random.default_rng(5)
    n = sys_.Mp.shape[0]
    T = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    recombined = smallest_generalized_eigs(
        SchurOperator(T @ sys_.B.toarray(), factorize_spd(sys_.A)),
        T @ sys_.Mp.toarray() @ T.T,
        3,
        deflate=T @ sys_.m,
    ).values
    assert np.abs(np.sqrt(recombined) - np.sqrt(base)).max() <= 1e-9


def test_rigid_motion_invariance():
    base_mesh = sv_mesh(2, 1, 2, 1, b=0.4, a=0.25)
    cfg = PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=base_mesh)
    beta0 = compute_beta(cfg, k=1).beta
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = base_mesh.transformed(matrix=rot, shift=(2.5, -0.7))
    beta1 = compute_beta(
        PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=moved), k=1
    ).beta
    assert abs(beta1 - beta0) <= 1e-9


def test_domain_scaling_invariance():
    base_mesh = sv_mesh(2, 1, 2, 1, b=0.4, a=0.25)
    cfg = PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=base_mesh)
    beta0 = compute_beta(cfg, k=1).beta
    scaled = base_mesh.transformed(matrix=5.3 * np.eye(2))
    beta1 = compute_beta(
        PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=scaled), k=1
    ).beta
    assert abs(beta1 - beta0) <= 1e-9


def test_pressure_velocity_monotonicity():
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.4))

    def beta(vdeg, pdeg):
        return compute_beta(
            PairConfig(
                velocity_space=ElementSpace(
                    Family.TRIANGLE, vdeg, Continuity.C0, BoundaryCondition.ZERO_TRACE
                ),
                pressure_space=ElementSpace(
                    Family.TRIANGLE, pdeg, Continuity.DISCONTINUOUS, BoundaryCondition.NONE
                ),
                velocity_mesh=mesh,
            ),
            k=1,
        ).beta

    # larger pressure space: beta can only decrease
    assert beta(4, 2) <= beta(4, 1) + 1e-9
    # larger velocity space: beta can only increase
    assert beta(4, 2) >= beta(3, 2) - 1e-9


def test_cross_formulation_agreement():
    mesh = sv_split(rect_grid(1, 1, 1, 1), SvSplitParams(b=0.25))
    dv = build_dof_map(mesh, P4)
    dp = build_dof_map(mesh, P3DC)
    sys_ = assemble_system(dv, dp)
    schur = smallest_generalized_eigs(
        SchurOperator(sys_.B, factorize_spd(sys_.A)), sys_.Mp, 4, deflate=sys_.m
    )
    mixed = mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 4, deflate=sys_.m)
    assert np.abs(schur.values - mixed.values).max() <= 1e-10


def test_nested_mesh_corollary_trend():
    # velocity/pressure mesh-size ratio -> 0: beta converges to the
    # continuous reference (here from above, through nested refinements)
    from lbblab.geometry import refine_chain

    ref = 0.387262
    errs = []
    for i, grid in enumerate([(2, 1), (4, 2), (8, 4)]):
        pmesh = rect_grid(2, 1, *grid)
        vmesh, pm = refine_chain(pmesh, 1 + i)
        cfg = PairConfig(
            velocity_space=ElementSpace(
                Family.QUAD, 2, Continuity.C0, BoundaryCondition.ZERO_TRACE
            ),
            pressure_space=ElementSpace(
                Family.QUAD, 1, Continuity.DISCONTINUOUS, BoundaryCondition.NONE
            ),
            velocity_mesh=vmesh,
            pressure_mesh=pmesh,
            parent_map=pm,
        )
        errs.append(abs(compute_beta(cfg, k=2).beta - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.005


def test_fixed_pressure_growing_velocity_monotone():
    # same-mesh Q2-Q1 degenerates; refining only the velocity space
    # restores stability and beta grows monotonically
    from lbblab.geometry import refine_chain

    pmesh = rect_grid(2, 1, 2, 1)
    betas = []
    for r in (0, 1, 2):
        vmesh, pm = refine_chain(pmesh, r)
        cfg = PairConfig(
            velocity_space=ElementSpace(
                Family.QUAD, 2, Continuity.C0, BoundaryCondition.ZERO_TRACE
            ),
            pressure_space=ElementSpace(
                Family.QUAD, 1, Continuity.DISCONTINUOUS, BoundaryCondition.NONE
            ),
            velocity_mesh=vmesh,
            pressure_mesh=pmesh if pm is not None else None,
            parent_map=pm,
        )
        betas.append(compute_beta(cfg, k=2).beta)
    assert betas[0] <= 1e-8
    assert betas[0] < betas[1] <= betas[2] + 1e-12


def test_beta_proportional_to_regularity_index():
    # near the singular decentering, beta is a fixed multiple of the
    # regularity index at the special apex (ratio constant to well under 1%)
    from lbblab.cli import _center_quad
    from lbblab.geometry import regularity_index

    special = _center_quad(rect_grid(4, 1, 4, 1))
    ratios = []
    for a in (0.02, 0.04, 0.06, 0.08, 0.10):
        mesh = sv_mesh(4, 1, 4, 1, b=0.4, a=a)
        idx = regularity_index(mesh, 10 + special)
        beta = compute_beta(
            PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=mesh), k=1
        ).beta
        ratios.append(beta / idx)
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    assert spread < 0.01


# ------------------------------------------------------------ chains


CHAIN_A = (-0.45, -0.1, 0.0, 0.1, 0.45)


def _sv_chain(nx, ny, a_values, velocity=P4, pressure=P3DC):
    return [
        PairConfig(
            velocity_space=velocity,
            pressure_space=pressure,
            velocity_mesh=sv_mesh(4, 1, nx, ny, b=0.4, a=a),
        )
        for a in a_values
    ]


def _assert_same_point(got, want):
    # sigmas to 1e-12 relative; sigma_1 at a = 0 is roundoff (about 1e-30),
    # there the same bound holds in absolute terms
    assert got.method == want.method
    assert (got.n_velocity, got.n_pressure, got.config_hash) == (
        want.n_velocity, want.n_pressure, want.config_hash
    )
    big = np.abs(want.sigmas) > 1e-8
    diff = np.abs(got.sigmas - want.sigmas)
    assert np.all(diff[big] <= 1e-12 * np.abs(want.sigmas[big]))
    assert np.all(diff[~big] <= 1e-12)


def _spy(monkeypatch, name, modules=(infsup,)):
    """Record the first argument of every call to `name` in `modules`."""
    calls = []
    real = getattr(modules[0], name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize(
    "grid, method", [((4, 1), "dense"), ((8, 2), "arpack")], ids=["4x1-dense", "8x2-arpack"]
)
def test_chain_matches_fresh_points(grid, method, monkeypatch):
    configs = _sv_chain(*grid, CHAIN_A)
    fresh = [compute_beta(config, k=6) for config in configs]
    assembled = _spy(monkeypatch, "assemble_system")
    mapped = _spy(monkeypatch, "build_dof_map")
    factored = _spy(monkeypatch, "factorize_spd", (infsup, spectral))
    chained = compute_betas(configs, k=6)
    # every point builds its two dof maps and is assembled, and Ahat, and on
    # the ARPACK route the augmented-Lagrangian matrix, are factored once
    # per point
    assert (len(assembled), len(mapped)) == (len(configs), 2 * len(configs))
    assert len(factored) == {"dense": 1, "arpack": 2}[method] * len(configs)
    for got, want in zip(chained, fresh):
        assert want.method == method
        _assert_same_point(got, want)


def test_dense_chain_points_are_the_fresh_points():
    # the dense route does not read the previous point's eigenvectors, so
    # with every point assembled in full a chain point is the fresh one
    configs = _sv_chain(4, 1, (0.02, 0.03, 0.04, 0.05))
    for got, config in zip(compute_betas(configs, k=6), configs):
        want = compute_beta(config, k=6)
        assert got.method == want.method == "dense"
        assert np.array_equal(got.sigmas, want.sigmas)


def test_new_connectivity_or_spaces_start_a_new_chain(monkeypatch):
    p3 = ElementSpace(Family.TRIANGLE, 3, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    p2dc = ElementSpace(Family.TRIANGLE, 2, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    configs = (
        _sv_chain(4, 1, (0.1, 0.2))
        + _sv_chain(8, 2, (0.1,))
        + _sv_chain(4, 1, (0.3,))
        + _sv_chain(4, 1, (0.3,), velocity=p3, pressure=p2dc)
    )
    starts = []
    _failing_at(monkeypatch, None, None, starts)
    got = compute_betas(configs, k=4)
    monkeypatch.undo()
    assert starts == [False, True, False, False, False]
    for result, config in zip(got, configs):
        _assert_same_point(result, compute_beta(config, k=4))


def _failing_at(monkeypatch, target, exc_type, starts, grid=None):
    """Make the solve of the point at a = target (on `grid` only, if given)
    raise exc_type, or fail nothing if exc_type is None; record for every
    solved point whether it started from Ritz vectors."""
    from lbblab import cli

    if exc_type is MeshError:
        real_mesh = cli.sv_mesh

        def sv_mesh_failing(width, height, nx, ny, b, a=None):
            if a == target and grid in (None, (nx, ny)):
                raise MeshError("injected")
            return real_mesh(width, height, nx, ny, b, a)

        monkeypatch.setattr(cli, "sv_mesh", sv_mesh_failing)
    real_eigs = infsup.smallest_generalized_eigs

    def eigs(op, Mp, k, deflate=None, options=None, start=None):
        starts.append(start is not None)
        if exc_type not in (None, MeshError) and len(starts) == 3:
            raise exc_type("injected")
        return real_eigs(op, Mp, k, deflate=deflate, options=options, start=start)

    monkeypatch.setattr(infsup, "smallest_generalized_eigs", eigs)


@pytest.mark.parametrize(
    "rebuild, warm", [(False, True), (True, False)], ids=["same-objects", "rebuilt-pressure-mesh"]
)
def test_nested_points_warm_start_only_on_the_same_mesh_objects(rebuild, warm, monkeypatch):
    # the second nested point starts from the first one's eigenvectors only
    # when both share the very mesh and parent-map objects, not equal copies
    from lbblab.geometry import refine_chain

    pmesh = rect_grid(2, 1, 2, 1)
    vmesh, pm = refine_chain(pmesh, 1)
    configs = [
        dataclasses.replace(
            _quad_pair(2, 1, vmesh),
            pressure_mesh=rect_grid(2, 1, 2, 1) if rebuild and i else pmesh,
            parent_map=pm,
        )
        for i in range(2)
    ]
    assert configs[0].hash() == configs[1].hash()
    starts = []
    _failing_at(monkeypatch, None, None, starts)
    got = compute_betas(configs, k=2)
    monkeypatch.undo()
    assert starts == [False, warm]
    for result, config in zip(got, configs):
        _assert_same_point(result, compute_beta(config, k=2))


@pytest.mark.parametrize("exc_type", [MeshError, EigenSolverError, NotPositiveDefinite])
def test_failed_sweep_point_is_flagged_and_the_chain_goes_on_cold(exc_type, monkeypatch, capsys):
    from lbblab.cli import run_sv_sweep

    cfg = {
        "kind": "sv-sweep", "width": 4, "height": 1, "grids": [[8, 2]], "b": 0.4,
        "a_start": 0.0, "a_stop": 0.04, "a_step": 0.01, "k": 6,
    }
    starts = []
    _failing_at(monkeypatch, 0.02, exc_type, starts)
    rows = list(csv.DictReader(io.StringIO(run_sv_sweep(cfg).csv)))
    monkeypatch.undo()
    assert [r["flagged"] for r in rows] == ["0", "0", "1", "0", "0"]
    assert f"warning: sweep point failed: {exc_type.__name__}: injected" in capsys.readouterr().err
    # the point after the failure starts cold, the others from their predecessor
    if exc_type is MeshError:  # no solve at a = 0.02; a new chain after it
        assert starts == [False, True, False, True]
    else:
        assert starts == [False, True, True, False, True]
    for r in rows:
        if r["flagged"] == "0":
            want = compute_beta(_sv_chain(8, 2, (float(r["a"]),))[0], k=6)
            got = np.array([float(r[f"sigma_{j}"]) for j in range(1, 7)])
            big = np.abs(want.sigmas) > 1e-8
            assert np.all(np.abs(got - want.sigmas)[big] <= 1e-12 * want.sigmas[big])
            assert np.all(np.abs(got - want.sigmas)[~big] <= 1e-12)


@pytest.mark.parametrize(
    "grids", [[[4, 1], [8, 2]], [[8, 2], [4, 1]]], ids=["4x1-first", "8x2-first"]
)
def test_nan_slope_residual_fails_the_linearity_check(grids, monkeypatch):
    # a failed point in the window makes its grid's residual NaN, and the
    # check must fail wherever that grid sits in the list
    from lbblab.cli import run_sv_sweep

    cfg = {
        "kind": "sv-sweep", "width": 4, "height": 1, "grids": grids, "b": 0.4,
        "a_start": 0.02, "a_stop": 0.04, "a_step": 0.01, "k": 3,
    }
    _failing_at(monkeypatch, 0.03, MeshError, [], grid=(8, 2))
    out = run_sv_sweep(cfg)
    slopes = csv.DictReader(io.StringIO(out.extra_csv["slopes"]))
    rel = {r["mesh"]: r["relative_residual"] for r in slopes}
    assert rel["8x2"] == "nan" and rel["4x1"] != "nan"
    (check,) = [c for c in out.checks if c.name == "linear-near-zero"]
    assert not check.passed
    assert check.detail == "max relative residual nan < 0.2"


def test_failure_at_a_chains_first_point_flags_only_that_point(monkeypatch):
    # the first point's system cannot be built: that point is flagged, and
    # the next point starts a new chain from its own mesh
    configs = _sv_chain(4, 1, (0.1, 0.2, 0.3))
    real = infsup.assemble_system
    assembled = []

    def assemble(dof_v, dof_p, **kwargs):
        assembled.append(dof_v.mesh)
        if dof_v.mesh is configs[0].velocity_mesh:
            raise NotPositiveDefinite("injected")
        return real(dof_v, dof_p, **kwargs)

    monkeypatch.setattr(infsup, "assemble_system", assemble)
    got = compute_betas(configs, k=4, failures=(NotPositiveDefinite,))
    monkeypatch.undo()
    assert isinstance(got[0], NotPositiveDefinite)
    assert assembled == [config.velocity_mesh for config in configs]
    for result, config in zip(got[1:], configs[1:]):
        _assert_same_point(result, compute_beta(config, k=4))


def test_unlisted_failure_propagates_from_a_chain(monkeypatch):
    starts = []
    _failing_at(monkeypatch, None, EigenSolverError, starts)
    with pytest.raises(EigenSolverError, match="injected"):
        compute_betas(_sv_chain(4, 1, (0.1, 0.2, 0.3, 0.4)), k=3)


def test_warm_start_keeps_every_eigenvalue():
    # on 8x2 the 6 smallest include the near-double pair 0.0528959 and
    # 0.0528962, and at |a| = 0.45 sigma_1 nears the sigma_2 cluster; a warm
    # start must lose none of them (the dense route is the reference)
    a_values = (0.02, 0.03, 0.04, 0.44, 0.45, -0.44, -0.45)
    configs = _sv_chain(8, 2, a_values)
    chained = compute_betas(configs, k=6)
    assert chained[0].sigmas[2:4] == pytest.approx([0.0528959, 0.0528962], abs=5e-8)
    for config, got in zip(configs, chained):
        assert got.method == "arpack"
        mesh = config.velocity_mesh
        sys_ = assemble_system(build_dof_map(mesh, P4), build_dof_map(mesh, P3DC))
        op = SchurOperator(sys_.C, factorize_spd(sys_.Ahat), sys_.D, sys_.E)
        vectors = spectral._dense_eig_path(op, sys_.Mp, 6, sys_.m, SolverOptions())
        dense = spectral._finish(op, sys_.Mp, vectors, "dense")
        assert np.abs(got.sigmas - dense.values).max() <= 1e-10


def test_chain_with_every_element_moved_matches_fresh_points():
    # a global decentering moves every apex, so every element of the later
    # meshes differs from the first mesh's
    configs = [
        PairConfig(velocity_space=P4, pressure_space=P3DC, velocity_mesh=sv_mesh(4, 1, 8, 2, b=b))
        for b in (0.3, 0.35, 0.4)
    ]
    chained = compute_betas(configs, k=6)
    for got, config in zip(chained, configs):
        _assert_same_point(got, compute_beta(config, k=6))


# ----------------------------------------------------------------------
# numpy's OpenBLAS held to one thread while compute_betas runs
# ----------------------------------------------------------------------

needs_numpy_blas = pytest.mark.skipif(
    spectral._numpy_blas() is None, reason="numpy without its bundled OpenBLAS"
)


@pytest.fixture
def numpy_threads():
    """numpy's (get, set) thread-count functions, with the pool at 2 threads
    for the test and the caller's count restored after it."""
    get, set_ = spectral._numpy_blas()
    before = get()
    set_(2)
    yield get, set_
    set_(before)


def _threads_at_assembly(monkeypatch, get, on_call=lambda: None):
    """Record numpy's thread count at every assembly inside a solve."""
    seen = []
    real = infsup.assemble_system

    def assemble(*args, **kwargs):
        on_call()
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(infsup, "assemble_system", assemble)
    return seen


@needs_numpy_blas
def test_numpy_blas_runs_one_thread_inside_a_solve(numpy_threads, monkeypatch):
    get, _ = numpy_threads
    seen = _threads_at_assembly(monkeypatch, get)
    compute_betas(_sv_chain(4, 1, (0.1, 0.2)), k=3)
    assert seen == [1, 1]
    assert get() == 2


@needs_numpy_blas
def test_numpy_blas_threads_come_back_after_a_raised_error(numpy_threads, monkeypatch):
    get, _ = numpy_threads
    _failing_at(monkeypatch, None, EigenSolverError, [])
    with pytest.raises(EigenSolverError, match="injected"):
        compute_betas(_sv_chain(4, 1, (0.1, 0.2, 0.3)), k=3)
    assert get() == 2


@needs_numpy_blas
def test_overlapping_solves_share_one_hold(numpy_threads, monkeypatch):
    # A enters, then B; A returns while B is still inside; B must still run
    # on one thread, and the caller's 2 come back only after B returns
    get, _ = numpy_threads
    both_inside = threading.Barrier(2, timeout=60)
    a_returned = threading.Event()
    after_a = {}

    def on_call():
        both_inside.wait()
        if threading.current_thread().name == "B":
            assert a_returned.wait(timeout=60)

    seen = _threads_at_assembly(monkeypatch, get, on_call)
    config = _quad_pair(3, 1, rect_grid(1, 1, 1, 1))
    results = {}

    def solve():
        name = threading.current_thread().name
        results[name] = compute_beta(config, k=2)
        if name == "A":
            after_a["threads"] = get()
            a_returned.set()

    threads = [threading.Thread(target=solve, name=name) for name in "AB"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert set(results) == {"A", "B"}
    assert seen == [1, 1]
    assert after_a["threads"] == 1
    assert get() == 2


@needs_numpy_blas
def test_hold_under_thread_stress(numpy_threads):
    # more threads than cores entering and leaving the hold, with frequent
    # thread switches: a lost update of the shared depth would let some
    # holder see 2 threads or leave the pool at 1
    get, _ = numpy_threads
    seen = []
    start = threading.Barrier(8, timeout=60)

    def worker():
        start.wait()
        for _ in range(10000):
            with spectral._ONE_BLAS_THREAD:
                seen.append(get())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 10000 and set(seen) == {1}
    assert get() == 2


@needs_numpy_blas
def test_without_numpy_openblas_the_hold_does_nothing(numpy_threads, monkeypatch):
    get, _ = numpy_threads
    config = _quad_pair(3, 1, rect_grid(1, 1, 1, 1))
    held = compute_beta(config, k=2)
    monkeypatch.setattr(spectral, "_numpy_blas", lambda: None)
    seen = _threads_at_assembly(monkeypatch, get)
    free = compute_beta(config, k=2)
    assert seen == [2]
    assert get() == 2
    assert np.array_equal(free.sigmas, held.sigmas)


@needs_numpy_blas
def test_sigmas_do_not_depend_on_the_callers_numpy_threads(numpy_threads):
    # the dense route's products on Q8-Q7dc round differently on 1 and 2
    # numpy threads; held, the caller's count cannot reach them
    _, set_ = numpy_threads
    config = _quad_pair(8, 7, rect_grid(2, 1, 2, 2))
    set_(2)
    two = compute_beta(config, k=3)
    set_(1)
    one = compute_beta(config, k=3)
    set_(2)
    assert two.method == one.method == "dense"
    assert np.array_equal(two.sigmas, one.sigmas)


# ----------------------------------------------------------------------
# scipy's OpenBLAS on one thread too, except inside the dense route's eigh
# ----------------------------------------------------------------------

needs_both_blas = pytest.mark.skipif(
    spectral._numpy_blas() is None or spectral._scipy_blas() is None,
    reason="numpy or scipy without its bundled OpenBLAS",
)


@pytest.fixture
def scipy_threads():
    """scipy's (get, set) thread-count functions, with both pools at 2
    threads for the test and the caller's counts restored after it."""
    pools = (spectral._numpy_blas(), spectral._scipy_blas())
    before = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(2)
    yield pools[1]
    for (_, set_), count in zip(pools, before):
        set_(count)


def _threads_at_shifted_solves(monkeypatch, get):
    """Record scipy's thread count at every shift-invert solve."""
    seen = []
    real = spectral._shifted_solver

    def shifted_solver(*args, **kwargs):
        solve = real(*args, **kwargs)

        def recorded(b):
            seen.append(get())
            return solve(b)

        return recorded

    monkeypatch.setattr(spectral, "_shifted_solver", shifted_solver)
    return seen


def _threads_at_eigh(monkeypatch, get, on_call=lambda: None):
    """Record scipy's thread count at every dense eigh."""
    seen = []
    real = spectral.eigh

    def eigh(*args, **kwargs):
        on_call()
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigh", eigh)
    return seen


@needs_both_blas
def test_scipy_blas_runs_one_thread_at_every_shift_invert_solve(scipy_threads, monkeypatch):
    get, _ = scipy_threads
    solves = _threads_at_shifted_solves(monkeypatch, get)
    eighs = _threads_at_eigh(monkeypatch, get)
    (result,) = compute_betas(_sv_chain(8, 2, (0.1,)), k=6)
    assert result.method == "arpack"
    assert len(solves) > 10 and set(solves) == {1}
    assert eighs == []
    assert get() == 2


@needs_both_blas
def test_dense_eigh_keeps_the_callers_scipy_threads(scipy_threads, monkeypatch):
    get, _ = scipy_threads
    eighs = _threads_at_eigh(monkeypatch, get)
    (result,) = compute_betas(_sv_chain(4, 1, (0.1,)), k=6)
    assert result.method == "dense"
    assert eighs == [2]
    assert get() == 2


@needs_both_blas
def test_budgeted_point_falls_back_to_eigh_on_the_callers_threads(scipy_threads, monkeypatch):
    # a budget of one solve per Lanczos vector is spent before 8x2 converges
    get, _ = scipy_threads
    monkeypatch.setattr(spectral, "_SOLVES_PER_LANCZOS_VECTOR", 1)
    solves = _threads_at_shifted_solves(monkeypatch, get)
    eighs = _threads_at_eigh(monkeypatch, get)
    (result,) = compute_betas(_sv_chain(8, 2, (0.1,)), k=6)
    assert result.method == "dense"
    assert len(solves) > 10 and set(solves) == {1}
    assert eighs == [2]
    assert get() == 2


@needs_both_blas
@pytest.mark.parametrize("grid", [(4, 1), (8, 2)], ids=["in-eigh", "in-arpack"])
def test_scipy_blas_threads_come_back_after_a_raised_error(grid, scipy_threads, monkeypatch):
    get, _ = scipy_threads
    numpy_get, _ = spectral._numpy_blas()

    def fail(*args, **kwargs):
        raise EigenSolverError("injected")

    monkeypatch.setattr(spectral, "eigh", fail)
    monkeypatch.setattr(spectral, "eigsh", fail)
    with pytest.raises(EigenSolverError, match="injected"):
        compute_betas(_sv_chain(*grid, (0.1,)), k=6)
    assert (get(), numpy_get()) == (2, 2)
    # and the next solve is held again
    monkeypatch.undo()
    solves = _threads_at_shifted_solves(monkeypatch, get)
    assert compute_beta(_sv_chain(8, 2, (0.1,))[0], k=6).method == "arpack"
    assert set(solves) == {1}


@needs_both_blas
def test_overlapping_eighs_keep_the_callers_threads_until_the_last_leaves(
    scipy_threads, monkeypatch
):
    # A and B enter eigh together; A leaves it while B is still inside and
    # must leave scipy's pool at the caller's 2, and only B's leaving puts
    # the pool back on one thread, for the rest of B's hold
    get, _ = scipy_threads
    both_inside = threading.Barrier(2, timeout=60)
    a_left = threading.Event()
    left = {}

    def on_call():
        both_inside.wait()
        if threading.current_thread().name == "B":
            assert a_left.wait(timeout=60)

    eighs = _threads_at_eigh(monkeypatch, get, on_call)
    real_finish = spectral._finish

    def finish(*args):  # the first call after the eigh's release
        name = threading.current_thread().name
        left[name] = get()
        if name == "A":
            a_left.set()
        return real_finish(*args)

    monkeypatch.setattr(spectral, "_finish", finish)
    config = _quad_pair(3, 1, rect_grid(1, 1, 1, 1))
    results = {}

    def solve():
        results[threading.current_thread().name] = compute_beta(config, k=2)

    threads = [threading.Thread(target=solve, name=name) for name in "AB"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert {r.method for r in results.values()} == {"dense"}
    assert eighs == [2, 2]
    assert left == {"A": 2, "B": 1}
    assert get() == 2


@needs_both_blas
def test_hold_and_release_under_thread_stress(scipy_threads):
    # eight threads alternate a plain hold with a hold around a release:
    # inside its own release a thread must see scipy at the caller's 2,
    # inside a plain hold numpy at 1, and both pools end at 2
    get, _ = scipy_threads
    numpy_get, _ = spectral._numpy_blas()
    hold = spectral._ONE_BLAS_THREAD
    held, released = [], []
    start = threading.Barrier(8, timeout=60)

    def worker():
        start.wait()
        for i in range(5000):
            with hold:
                if i % 2:
                    with hold.release():
                        released.append((numpy_get(), get()))
                else:
                    held.append(numpy_get())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(held) == len(released) == 8 * 2500
    assert set(held) == {1} and set(released) == {(1, 2)}
    assert (get(), numpy_get()) == (2, 2)


@needs_both_blas
@pytest.mark.parametrize("caller", [1, 2])
def test_release_outside_a_hold_does_nothing(caller, scipy_threads):
    get, set_ = scipy_threads
    set_(caller)
    with spectral._ONE_BLAS_THREAD.release():
        assert get() == caller
    assert get() == caller


def _hold_orders():
    """Every order, on one thread, of two nested holds (H+ H+ H- H-) and one
    release (R+ before R-), a release before the first hold included."""
    for start, stop in itertools.combinations(range(6), 2):
        holds = iter(["H+", "H+", "H-", "H-"])
        yield [{start: "R+", stop: "R-"}.get(i) or next(holds) for i in range(6)]


@needs_both_blas
@pytest.mark.parametrize("caller", [1, 2])
@pytest.mark.parametrize("order", list(_hold_orders()), ids=" ".join)
def test_the_hold_follows_its_rule_after_every_step(order, caller, scipy_threads, monkeypatch):
    # numpy's pool is at one thread exactly while a hold is active, scipy's
    # while a hold is active and no release is, each else at the caller's
    # count; a pool is set only when the rule's verdict on it changes
    pools = {"numpy": spectral._numpy_blas(), "scipy": spectral._scipy_blas()}
    sets = []
    for name, (get, set_) in pools.items():
        set_(caller)

        def recorded(n, name=name, set_=set_):
            sets.append((name, n))
            set_(n)

        monkeypatch.setattr(spectral, f"_{name}_blas", lambda get=get, s=recorded: (get, s))
    hold = spectral._ONE_BLAS_THREAD
    release = hold.release()
    run = {"H+": hold.__enter__, "H-": lambda: hold.__exit__(None, None, None),
           "R+": release.__enter__, "R-": lambda: release.__exit__(None, None, None)}
    holds = releases = 0
    before = (False, False)
    for step in order:
        sets.clear()
        run[step]()
        holds += {"H+": 1, "H-": -1}.get(step, 0)
        releases += {"R+": 1, "R-": -1}.get(step, 0)
        held = (holds > 0, holds > 0 and releases == 0)
        threads = [1 if h else caller for h in held]
        assert [get() for get, _ in pools.values()] == threads, step
        assert sets == [(name, n) for name, n, h, was in zip(pools, threads, held, before)
                        if h != was], step
        before = held


@needs_both_blas
def test_arpack_sigmas_do_not_depend_on_the_callers_scipy_threads(scipy_threads):
    _, set_ = scipy_threads
    config = _sv_chain(8, 2, (0.1,))[0]
    set_(2)
    two = compute_beta(config, k=6)
    set_(1)
    one = compute_beta(config, k=6)
    set_(2)
    assert two.method == one.method == "arpack"
    assert np.array_equal(two.sigmas, one.sigmas)
