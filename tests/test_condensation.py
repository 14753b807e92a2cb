"""Static condensation of the interior velocity dofs: those inside one
element, and on nested pairs those inside one pressure element.

The production Schur operator is D + C Ahat^{-1} C^T on the skeleton dofs
(`AssembledSystem`); the uncondensed B A^{-1} B^T of the full (A, B) is
its oracle, together with `brute_force_sigmas` and the QZ route, which
both see only the full forms.
"""

import numpy as np
import pytest

from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    assembly,
    build_dof_map,
)
from lbblab.geometry import (
    SvSplitParams,
    make_mesh,
    rect_grid,
    refine_chain,
    regular_polygon_mesh,
    sv_split,
)
from lbblab.infsup import PairConfig, compute_beta
from lbblab import spectral
from lbblab.spectral import (
    NotPositiveDefinite,
    SchurOperator,
    SolverOptions,
    dense_schur,
    factorize_spd,
    smallest_generalized_eigs,
)

from conftest import brute_force_sigmas, mixed_block_eigs

DC, C0 = Continuity.DISCONTINUOUS, Continuity.C0


def _spaces(family, vdeg, pdeg, pcont=DC):
    return (
        ElementSpace(family, vdeg, C0, BoundaryCondition.ZERO_TRACE),
        ElementSpace(family, pdeg, pcont, BoundaryCondition.NONE),
    )


def _system(v_mesh, vdeg, pdeg, pcont=DC, p_mesh=None, parent_map=None):
    family = Family.QUAD if v_mesh.is_quad else Family.TRIANGLE
    vs, ps = _spaces(family, vdeg, pdeg, pcont)
    dv = build_dof_map(v_mesh, vs)
    dp = build_dof_map(p_mesh or v_mesh, ps)
    return assemble_system(dv, dp, parent_map=parent_map)


def _condensed(system):
    return SchurOperator(system.C, factorize_spd(system.Ahat), system.D, system.E)


def _full(system):
    return SchurOperator(system.B, factorize_spd(system.A))


def _sv():
    return sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3, special=(1, -0.2)))


def _perturbed_quads():
    grid = rect_grid(2, 1, 2, 2)
    rng = np.random.default_rng(7)
    inner = ~np.isin(np.arange(len(grid.points)), grid.boundary_edges[:, :2])
    pts = grid.points + rng.uniform(-0.15, 0.15, grid.points.shape) * inner[:, None]
    return make_mesh(pts, grid.elements)


def _nested(coarse, vdeg, pdeg, levels=2, pcont=DC):
    fine, pm = refine_chain(coarse, levels)
    return _system(fine, vdeg, pdeg, pcont, p_mesh=coarse, parent_map=pm)


CASES = {
    **{f"SV P{k}-P{k - 1}dc": (lambda k=k: _system(_sv(), k, k - 1)) for k in range(1, 7)},
    **{
        f"Q{n}-Q{n - 1}dc": (lambda n=n: _system(_perturbed_quads(), n, n - 1))
        for n in range(1, 17)
    },
    "nested P3/P2dc": lambda: _nested(regular_polygon_mesh(5, 0), 3, 2),
    "nested Q3/Q2dc": lambda: _nested(_perturbed_quads(), 3, 2),
    "nested Q2/Q1dc": lambda: _nested(_perturbed_quads(), 2, 1),
    "nested Q2/Q1": lambda: _nested(rect_grid(2, 1, 2, 1), 2, 1, pcont=C0),
    "nested Q2/Q1dc on one pressure element": lambda: _nested(rect_grid(2, 1, 1, 1), 2, 1),
    "P2-P1": lambda: _system(_sv(), 2, 1, C0),
    "P3-P2": lambda: _system(_sv(), 3, 2, C0),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_condensed_schur_matches_full(build):
    system = build()
    S = dense_schur(_condensed(system))
    S_full = dense_schur(_full(system))
    assert np.abs(S - S_full).max() <= 1e-13 * np.abs(S_full).max()
    Dd = system.D.toarray()
    scale = np.abs(Dd).max(initial=0.0)
    assert np.abs(Dd - Dd.T).max() <= 1e-15 * scale
    assert np.abs(Dd - (system.E.T @ system.E).toarray()).max() <= 1e-14 * scale
    assert np.abs(Dd[system.Mp.toarray() == 0]).max(initial=0.0) == 0.0  # Mp's pattern


@pytest.mark.parametrize("k", [1, 2])
def test_no_interior_nodes_is_the_full_system(k):
    # P1 and P2 have no interior Lagrange nodes: the same code path returns
    # the full forms and a zero D
    system = _system(_sv(), k, k - 1)
    assert (system.Ahat != system.A).nnz == 0
    assert (system.C != system.B).nnz == 0
    assert system.E.shape[0] == 0 and not system.D.toarray().any()


def test_skeleton_counts():
    # Q16 on 2x2 quads: of 961 free dofs per component, 900 lie inside one
    # element and 61 on the skeleton
    system = _system(rect_grid(2, 1, 2, 2), 16, 15)
    assert system.A.shape[0] == 1922 and system.Ahat.shape[0] == 122
    assert system.E.shape[0] == 1922 - 122


@pytest.mark.parametrize(
    "coarse, levels, pcont, n_velocity, n_skeleton",
    [
        (rect_grid(2, 1, 8, 4), 3, DC, 16002, 1602),
        (rect_grid(2, 1, 2, 1), 2, C0, 210, 14),
        (rect_grid(2, 1, 1, 1), 2, DC, 98, 0),
    ],
    ids=["Q2/Q1dc 8x4 depth 3", "Q2/Q1 2x1 depth 2", "Q2/Q1dc 1x1 depth 2"],
)
def test_nested_skeleton_counts(coarse, levels, pcont, n_velocity, n_skeleton):
    # on nested pairs only the velocity dofs on the pressure elements'
    # boundaries stay: 801 per component on 8x4, the 7 on the middle line of
    # 2x1, none on one pressure element; every other velocity dof is a row
    # of E
    system = _nested(coarse, 2, 1, levels, pcont)
    assert system.n_velocity == n_velocity and system.Ahat.shape[0] == n_skeleton
    assert system.E.shape[0] == n_velocity - n_skeleton


@pytest.mark.parametrize("grid", [(2, 1), (4, 2)], ids=["2x1", "4x2"])
def test_nested_velocity_spaces_never_lower_beta(grid):
    # a finer velocity mesh inside the same pressure mesh nests the velocity
    # spaces: beta is an inf over the same pressures of a sup over more
    # velocities, so it cannot fall with depth (it rises by 3e-6 to 5e-4 a
    # level here, far above roundoff)
    coarse = rect_grid(2, 1, *grid)
    vs, ps = _spaces(Family.QUAD, 2, 1)
    betas = []
    for depth in range(1, 5):
        fine, pm = refine_chain(coarse, depth)
        config = PairConfig(
            velocity_space=vs, pressure_space=ps, velocity_mesh=fine, pressure_mesh=coarse,
            parent_map=pm,
        )
        betas.append(compute_beta(config, k=1).beta)
    assert (np.diff(betas) >= 0).all(), betas


ORACLE_CASES = {
    "SV P4-P3dc": lambda: _system(sv_mesh(4, 1, 4, 1, 0.4, 0.15), 4, 3),
    "P3-P2": lambda: _system(_sv(), 3, 2, C0),
    "nested Q3/Q2dc": lambda: _nested(_perturbed_quads(), 3, 2, levels=1),
    "nested Q3/Q2dc depth 2": lambda: _nested(_perturbed_quads(), 3, 2, levels=2),
}


@pytest.mark.parametrize("build", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
@pytest.mark.parametrize("options", [None, SolverOptions(dense_cap=1)], ids=["dense", "arpack"])
def test_condensed_routes_match_oracles(build, options):
    system = build()
    k = 4
    res = smallest_generalized_eigs(
        _condensed(system), system.Mp, k, deflate=system.m, options=options
    )
    assert res.method == ("dense" if options is None else "arpack")
    oracle = brute_force_sigmas(system, deflate=True)[:k]
    qz = mixed_block_eigs(system.A, system.B, system.Mp, k, deflate=system.m).values
    assert np.allclose(res.values, oracle, atol=1e-10)
    assert np.allclose(res.values, qz, atol=1e-10)


def test_spurious_mode_stays_at_the_roundoff_floor():
    # Q_n-Q_(n-1)dc has a pressure mode with B^T q = 0; applying D through
    # its factor E keeps its Rayleigh quotient nonnegative and near eps^2
    # (the assembled D gives about -5e-17)
    system = _system(rect_grid(2, 1, 2, 2), 8, 7)
    res = smallest_generalized_eigs(_condensed(system), system.Mp, 2, deflate=system.m)
    assert 0.0 <= res.values[0] <= 1e-26


def test_compute_beta_routes_unchanged():
    # the route rule compares the condensed skeleton with the pressure
    # space: 4 n_s = 488 <= n_p = 1024 on Q16-Q15dc 2x2 and 896 <= 900 on
    # Q10-Q9dc 3x3 keep them dense; on Q9-Q8dc 3x3, 800 > 729 sends it to
    # ARPACK.  Every route must find the dense route's sigmas.
    cases = [
        (sv_mesh(4, 1, 8, 2, 0.4, 0.04), Family.TRIANGLE, 4, 3, "arpack"),
        (rect_grid(2, 1, 2, 2), Family.QUAD, 16, 15, "dense"),
        (rect_grid(2, 1, 3, 3), Family.QUAD, 10, 9, "dense"),
        (rect_grid(2, 1, 3, 3), Family.QUAD, 9, 8, "arpack"),
    ]
    options = SolverOptions()
    for mesh, family, vdeg, pdeg, method in cases:
        vs, ps = _spaces(family, vdeg, pdeg)
        config = PairConfig(velocity_space=vs, pressure_space=ps, velocity_mesh=mesh)
        result = compute_beta(config, k=3)
        assert result.method == method
        system = _system(mesh, vdeg, pdeg)
        op = _condensed(system)
        vectors = spectral._dense_eig_path(op, system.Mp, 3, system.m, options)
        dense = spectral._finish(op, system.Mp, vectors, "dense")
        assert np.abs(result.sigmas - dense.values).max() <= 1e-10


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nnz_of_A_without_building_A(build):
    system = build()
    assert system.n_velocity == system.A.shape[0]


def test_solve_path_builds_no_uncondensed_matrices(monkeypatch):
    builds = []

    def counted(name):
        build = getattr(assembly, name)

        def wrapper(blocks):
            builds.append(name)
            return build(blocks)

        return wrapper

    for name in ("_uncondensed_stiffness", "_uncondensed_coupling"):
        monkeypatch.setattr(assembly, name, counted(name))
    cases = [
        (sv_mesh(4, 1, 8, 2, 0.4, 0.04), Family.TRIANGLE, 4, 3),
        (rect_grid(2, 1, 2, 2), Family.QUAD, 16, 15),
    ]
    for mesh, family, vdeg, pdeg in cases:
        vs, ps = _spaces(family, vdeg, pdeg)
        compute_beta(PairConfig(velocity_space=vs, pressure_space=ps, velocity_mesh=mesh), k=3)
    coarse = rect_grid(2, 1, 4, 2)
    fine, pm = refine_chain(coarse, 2)
    vs, ps = _spaces(Family.QUAD, 2, 1)
    nested = PairConfig(
        velocity_space=vs, pressure_space=ps, velocity_mesh=fine, pressure_mesh=coarse,
        parent_map=pm,
    )
    compute_beta(nested, k=3)
    assert builds == []
    # the oracles' A and B are built once each, on first access
    system = _system(rect_grid(2, 1, 2, 2), 3, 2)
    assert system.A is system.A and system.B is system.B
    assert builds == ["_uncondensed_stiffness", "_uncondensed_coupling"]


@pytest.mark.parametrize(
    "build, n_solves",
    [
        (lambda: _system(rect_grid(2, 1, 2, 2), 16, 15), lambda op: op.factor.n),
        (lambda: _system(sv_mesh(4, 1, 8, 2, 0.4, 0.04), 4, 3), lambda op: op.shape[0]),
    ],
    ids=["Q16-Q15dc skeleton side", "SV P4-P3dc 8x2 column side"],
)
def test_dense_schur_sides_agree(build, n_solves, monkeypatch):
    op = _condensed(build())
    columns = []
    solve = op.factor.solve

    def counted_solve(b):
        columns.append(b.shape[1])
        return solve(b)

    monkeypatch.setattr(op.factor, "solve", counted_solve)
    S = dense_schur(op)
    assert sum(columns) == n_solves(op)  # the side the rule picks
    sides = []
    for ratio in (0, op.shape[0] + 1):  # always the skeleton side, never
        monkeypatch.setattr(spectral, "_SKELETON_SIDE", ratio)
        sides.append(dense_schur(op))
    assert np.abs(sides[0] - sides[1]).max() <= 1e-13 * np.abs(sides[1]).max()
    assert any(np.array_equal(S, side) for side in sides)


def test_indefinite_interior_block_is_not_positive_definite(monkeypatch):
    # A is SPD iff every interior block and Ahat are; a failed batched
    # Cholesky of one element's interior block is classified, not a LinAlgError
    stiffness = assembly._stiffness_blocks

    def broken(dof_v, *args):
        K = stiffness(dof_v, *args).copy()
        kinds = assembly.reference_element(dof_v.space.family, dof_v.space.degree).kind
        i = np.flatnonzero(kinds == "i")[0]
        K[0, i, i] = -K[0, i, i]
        return K

    monkeypatch.setattr(assembly, "_stiffness_blocks", broken)
    vs, ps = _spaces(Family.TRIANGLE, 4, 3)
    config = PairConfig(
        velocity_space=vs, pressure_space=ps, velocity_mesh=sv_mesh(4, 1, 4, 1, 0.4, 0.2)
    )
    with pytest.raises(NotPositiveDefinite, match="interior stiffness block"):
        compute_beta(config)
