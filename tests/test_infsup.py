import csv
import dataclasses
import io
import math

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
    eigenfunction_export,
    schur_spectrum,
    usc_check,
)
from lbblab.spectral import (
    EigenSolverError,
    NotPositiveDefinite,
    SchurOperator,
    SolverOptions,
    factorize_spd,
    smallest_generalized_eigs,
)

from conftest import brute_force_sigmas

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


def test_no_deflation_reports_sigma0():
    cfg = PairConfig(
        velocity_space=ElementSpace(Family.QUAD, 3, Continuity.C0, BoundaryCondition.ZERO_TRACE),
        pressure_space=ElementSpace(Family.QUAD, 1, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
        velocity_mesh=rect_grid(1, 1, 1, 1),
        deflate_constants=False,
    )
    r = compute_beta(cfg, k=3)
    assert abs(r.sigmas[0]) <= 1e-10
    deflated = compute_beta(_quad_pair(3, 1, rect_grid(1, 1, 1, 1)), k=2)
    assert r.beta == pytest.approx(deflated.beta, abs=1e-10)


def test_dimension_zero_error():
    mesh = rect_grid(1, 1, 1, 1)
    cfg = _quad_pair(2, 0, mesh)  # one P0 dof, empty after deflation
    with pytest.raises(DimensionZeroError):
        compute_beta(cfg)
    # without deflation the one dof is the constant mode, with no sigma_1
    with pytest.raises(DimensionZeroError):
        compute_beta(dataclasses.replace(cfg, deflate_constants=False))


def test_schur_spectrum_bounds():
    cfg = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(2, 1, 2, 1, b=0.4, a=0.4),
    )
    sig = schur_spectrum(cfg, k=8)
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
    sig = schur_spectrum(cfg, k=60)
    low, high = cosserat_interval(math.pi / 2)
    inside = ((sig >= low) & (sig <= high)).sum()
    assert inside >= 5


def test_usc_check_examples():
    ok = usc_check(
        PairConfig(velocity_space=P4, pressure_space=P3DC,
                   velocity_mesh=sv_mesh(4, 1, 8, 2, b=0.4, a=0.4)),
        beta_ref=0.218444, slack=0.005,
    )
    assert ok.passed

    ok2 = usc_check(
        PairConfig(velocity_space=P4, pressure_space=P3DC,
                   velocity_mesh=sv_mesh(2, 1, 4, 2, b=0.4, a=0.4)),
        beta_ref=0.387262, slack=0.005,
    )
    assert ok2.passed

    ok3 = usc_check(
        PairConfig(velocity_space=P4, pressure_space=P3DC,
                   velocity_mesh=regular_polygon_mesh(16, 1)),
        beta_ref=1 / math.sqrt(2), slack=0.005,
    )
    assert ok3.passed

    bad = usc_check(
        PairConfig(velocity_space=P4, pressure_space=P3DC,
                   velocity_mesh=sv_mesh(4, 1, 4, 1, b=0.4, a=0.4)),
        beta_ref=0.05, slack=0.001,
    )
    assert not bad.passed
    assert "FAIL" in str(bad)


def test_eigenfunction_export(tmp_path):
    cfg = PairConfig(
        velocity_space=P4, pressure_space=P3DC,
        velocity_mesh=sv_mesh(2, 1, 2, 1, b=0.4, a=0.3),
    )
    r = compute_beta(cfg, k=2)
    q = r.eigenfunction
    dv = build_dof_map(cfg.velocity_mesh, cfg.velocity_space)
    dp = build_dof_map(cfg.velocity_mesh, cfg.pressure_space)
    sys_ = assemble_system(dv, dp)
    assert q @ (sys_.Mp @ q) == pytest.approx(1.0, abs=1e-10)
    assert abs(sys_.m @ q) <= 1e-9
    nz = q[np.abs(q) > 1e-12 * np.abs(q).max()]
    assert nz[0] > 0  # canonical sign

    path = tmp_path / "eig.csv"
    eigenfunction_export(r, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == dp.n_global  # discontinuous: one row per dof
    row = rows[17]
    g = int(row["global_dof"])
    assert float(row["coefficient"]) == pytest.approx(q[g], rel=1e-15)
    assert float(row["x"]) == pytest.approx(dp.dof_points[g, 0], rel=1e-15)


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
    from lbblab.spectral import mixed_block_eigs

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

        def sv_mesh_failing(width, height, nx, ny, b, a=None, special=None):
            if a == target and grid in (None, (nx, ny)):
                raise MeshError("injected")
            return real_mesh(width, height, nx, ny, b, a, special)

        monkeypatch.setattr(cli, "sv_mesh", sv_mesh_failing)
    real_eigs = infsup.smallest_generalized_eigs

    def eigs(op, Mp, k, deflate=None, options=None, start=None):
        starts.append(start is not None)
        if exc_type not in (None, MeshError) and len(starts) == 3:
            raise exc_type("injected")
        return real_eigs(op, Mp, k, deflate=deflate, options=options, start=start)

    monkeypatch.setattr(infsup, "smallest_generalized_eigs", eigs)


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
        dense = spectral._finish(op, sys_.Mp, vectors, "dense", 1e-10)
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
