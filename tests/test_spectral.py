import numpy as np
import pytest
from scipy import sparse

from lbblab import spectral
from lbblab.cli import sv_mesh
from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)
from lbblab.geometry import SvSplitParams, rect_grid, regular_polygon_mesh, sv_split
from lbblab.spectral import (
    EigenSolverError,
    NotPositiveDefinite,
    SchurOperator,
    SolverOptions,
    _block_inverse,
    _pressure_blocks,
    dense_schur,
    factorize_spd,
    smallest_generalized_eigs,
)

from conftest import brute_force_sigmas, mixed_block_eigs, quad_pair_system

# the same calls on the dense route and, forced by dense_cap, on ARPACK
ROUTES = pytest.mark.parametrize(
    "options", [None, SolverOptions(dense_cap=1)], ids=["dense", "arpack"]
)


# ------------------------------------------------------------ factorization


def test_factorize_identity():
    F = factorize_spd(np.eye(5))
    b = np.arange(5.0)
    assert np.allclose(F.solve(b), b)


def test_factorize_2x2():
    F = factorize_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(F.solve(np.array([3.0, 3.0])), [1.0, 1.0])


def test_factorize_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        factorize_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        factorize_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric


def test_factorize_large_spd_residual():
    # 1D Laplacian of size 800: one SuperLU factor, one and several right-hand sides
    n = 800
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    A = sparse.diags([off, main, off], [-1, 0, 1], format="csr")
    F = factorize_spd(A)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    x = F.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    # multiple right-hand sides
    B = rng.standard_normal((n, 3))
    X = F.solve(B)
    assert np.linalg.norm(A @ X - B) <= 1e-12 * np.linalg.norm(B)


def test_factorize_large_rejects_indefinite():
    n = 700
    A = sparse.diags([np.ones(n - 1), -0.5 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
    with pytest.raises(NotPositiveDefinite):
        factorize_spd(A.tocsr())


def test_factorize_rejects_off_diagonal_pivot():
    # symmetric indefinite with a zero diagonal: every pivot must come from
    # off the diagonal, so the row and column permutations differ
    A = sparse.block_diag([np.array([[0.0, 1.0], [1.0, 0.0]])] * 400, format="csr")
    with pytest.raises(NotPositiveDefinite):
        factorize_spd(A)


def test_factorize_rejects_singular_psd():
    with pytest.raises(NotPositiveDefinite):
        factorize_spd(np.ones((4, 4)))


def test_block_inverse_mixed_block_sizes():
    rng = np.random.default_rng(3)
    blocks = []
    for size in (2, 1, 3, 2, 1, 3):
        G = rng.standard_normal((size, size))
        blocks.append(G @ G.T + size * np.eye(size))
    perm = rng.permutation(12)
    Mp = sparse.block_diag(blocks, format="csr")[perm][:, perm]
    inv = _block_inverse(Mp, _pressure_blocks(Mp))
    assert inv.nnz == Mp.nnz
    assert np.abs((inv @ Mp).toarray() - np.eye(12)).max() <= 1e-12
    assert _pressure_blocks(sparse.csr_matrix(np.ones((3, 3)))) is None


# ------------------------------------------------------------ Schur operator


def test_schur_operator_symmetric_psd():
    sys_ = quad_pair_system(3, 2)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.standard_normal(op.shape[0])
        p = rng.standard_normal(op.shape[0])
        asym = abs(p @ op.apply(q) - q @ op.apply(p))
        assert asym <= 1e-10 * np.linalg.norm(q) * np.linalg.norm(p)
        assert q @ op.apply(q) >= -1e-12


def test_schur_operator_identity_trick():
    # B = Mp, A = Mp gives S q = Mp q: all generalized eigenvalues are 1
    sys_ = quad_pair_system(3, 2)
    op = SchurOperator(sys_.Mp, factorize_spd(sys_.Mp))
    res = smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m)
    assert np.allclose(res.values, 1.0, atol=1e-10)


def test_dense_schur_small_and_caps():
    sys_ = quad_pair_system(2, 0)  # single pressure dof
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    S = dense_schur(op)
    assert S.shape == (1, 1)
    e0 = np.array([1.0])
    assert S[0, 0] == pytest.approx(float(op.apply(e0)[0]), rel=1e-13)
    with pytest.raises(EigenSolverError):
        dense_schur(op, cap=0)


def test_dense_schur_symmetry_q3_q2():
    sys_ = quad_pair_system(3, 2)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    S = dense_schur(op)
    assert np.abs(S - S.T).max() <= 1e-11 * np.abs(S).max()


def _condensed_op(sys_):
    return SchurOperator(sys_.C, factorize_spd(sys_.Ahat), sys_.D, sys_.E)


@pytest.mark.parametrize(
    "build",
    [
        lambda: quad_pair_system(3, 2),
        lambda: _sv_system(4, 4, 0.02, 4, 3, Continuity.DISCONTINUOUS),
    ],
    ids=["q3q2", "sv-p4p3dc"],
)
def test_dense_schur_symmetry_contract_is_bitwise_the_strided_one(build, monkeypatch):
    # the contract reads one contiguous copy of S.T; the values are those
    # of the strided S.T, so check and result are bit for bit the same
    raw = []
    contract = spectral._symmetric_part
    monkeypatch.setattr(spectral, "_symmetric_part", lambda S: contract(raw.append(S.copy()) or S))
    S = dense_schur(_condensed_op(build()))
    (R,) = raw
    assert np.array_equal(S, 0.5 * (R + R.T))
    assert np.abs(R - R.T.copy()).max() == np.abs(R - R.T).max()


# ------------------------------------------------------------ eigen paths


def test_dense_path_matches_brute_force():
    sys_ = quad_pair_system(3, 1)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m)
    oracle = brute_force_sigmas(sys_, deflate=True)
    assert np.allclose(res.values, oracle[:3], atol=1e-10)


@pytest.mark.parametrize(
    "pair", [("sv", 4, 3), ("quad", 3, 2)], ids=["SV-P4-P3dc", "Q3-Q2dc"]
)
def test_dense_route_gives_the_whole_zero_mean_spectrum(pair, sv_unit_square):
    # at k = n - 1 every zero-mean eigenpair comes back, the spurious
    # Q_n-Q_(n-1)dc zero included, and never the constant mode shifted to 2
    kind, vdeg, pdeg = pair
    if kind == "sv":
        family, mesh = Family.TRIANGLE, sv_unit_square
    else:
        family, mesh = Family.QUAD, rect_grid(1, 1, 2, 2)
    sys_ = assemble_system(
        build_dof_map(mesh, ElementSpace(family, vdeg, Continuity.C0,
                                         BoundaryCondition.ZERO_TRACE)),
        build_dof_map(mesh, ElementSpace(family, pdeg, Continuity.DISCONTINUOUS,
                                         BoundaryCondition.NONE)),
    )
    n = sys_.n_pressure
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, n - 1, deflate=sys_.m)
    assert res.method == "dense"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True), atol=1e-10)
    assert res.values.max() <= 1.0 + 1e-10
    assert np.abs(sys_.m @ res.vectors).max() <= 1e-10


def test_dense_route_deflates_in_a_basis_that_does_not_sum_to_one():
    # in the basis recombined by T the constant pressure has coefficients
    # T^-T 1, not 1, and its mean vector T m: at k = n - 1 a shift scaled
    # for 1 would leave the constant mode in, as sigma = 0
    sys_ = quad_pair_system(3, 1, grid=(2, 2))
    n = sys_.n_pressure
    T = np.random.default_rng(5).standard_normal((n, n)) + 3.0 * np.eye(n)
    op = SchurOperator(T @ sys_.B.toarray(), factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, T @ sys_.Mp.toarray() @ T.T, n - 1, deflate=T @ sys_.m)
    assert res.method == "dense"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True), atol=1e-10)


@ROUTES
@pytest.mark.parametrize("scale", [0.0, -1.0], ids=["zero", "negative"])
def test_deflation_vector_without_a_positive_sum_is_rejected(options, scale):
    sys_ = quad_pair_system(3, 1, grid=(2, 2))
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    with pytest.raises(ValueError, match="^deflation vector must have a positive sum$"):
        smallest_generalized_eigs(op, sys_.Mp, 2, deflate=scale * sys_.m, options=options)


@pytest.mark.parametrize("a", [0.15, 0.0])
def test_arpack_path_matches_dense(a):
    # force the iterative route on a desk-size instance; at a = 0 a spurious
    # mode with sigma_1 ~ 1e-30 sits beside the deflated constant mode
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.3, special=(0, a)))
    dv = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 3, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 2, Continuity.DISCONTINUOUS, BoundaryCondition.NONE)
    )
    sys_ = assemble_system(dv, dp)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    dense = smallest_generalized_eigs(op, sys_.Mp, 5, deflate=sys_.m)
    iterative = smallest_generalized_eigs(
        op, sys_.Mp, 5, deflate=sys_.m, options=SolverOptions(dense_cap=1)
    )
    assert iterative.method == "arpack"
    assert np.allclose(dense.values, iterative.values, atol=1e-10)
    assert iterative.residuals.max() <= 1e-10


def _pair_system(mesh, vdeg, pdeg, pcont=Continuity.DISCONTINUOUS):
    family = Family.QUAD if mesh.is_quad else Family.TRIANGLE
    dv = build_dof_map(
        mesh, ElementSpace(family, vdeg, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(mesh, ElementSpace(family, pdeg, pcont, BoundaryCondition.NONE))
    return assemble_system(dv, dp)


def _sv_system(width, nx, a, vdeg, pdeg, pcont):
    mesh = sv_split(rect_grid(width, 1, nx, 1), SvSplitParams(b=0.4, special=(0, a)))
    return _pair_system(mesh, vdeg, pdeg, pcont)


def test_arpack_saddle_route_continuous_pressure():
    # P2-P1 with continuous pressures: Mp is one block, so the shift-invert
    # solves go through the saddle-point LU instead of Woodbury
    sys_ = _sv_system(2, 2, 0.15, 2, 1, Continuity.C0)
    assert _pressure_blocks(sys_.Mp) is None
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    dense = smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m)
    iterative = smallest_generalized_eigs(
        op, sys_.Mp, 4, deflate=sys_.m, options=SolverOptions(dense_cap=1)
    )
    assert iterative.method == "arpack"
    oracle = brute_force_sigmas(sys_, deflate=True)
    assert np.allclose(iterative.values, dense.values, atol=1e-10)
    assert np.allclose(iterative.values, oracle[:4], atol=1e-10)


def test_arpack_woodbury_route_paper_pair():
    # the paper's P4-P3dc pair: Mp has one 10x10 block per triangle
    sys_ = _sv_system(4, 4, 0.02, 4, 3, Continuity.DISCONTINUOUS)
    inverse = _block_inverse(sys_.Mp, _pressure_blocks(sys_.Mp))
    assert inverse.nnz == 100 * (sys_.Mp.shape[0] // 10)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(
        op, sys_.Mp, 6, deflate=sys_.m, options=SolverOptions(dense_cap=1)
    )
    assert res.method == "arpack"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True)[:6], atol=1e-10)
    assert res.residuals.max() <= 1e-10


def _fig3_system(nx, ny):
    # the Fig. 3 family: P4-P3dc on the split 4x1 rectangle, b = 0.4
    mesh = sv_split(rect_grid(4, 1, nx, ny), SvSplitParams(b=0.4, special=(0, 0.04)))
    return _pair_system(mesh, 4, 3)


@pytest.mark.parametrize("nx, ny", [(8, 2), (12, 3)])
def test_route_rule_sends_low_order_mid_size_to_arpack(nx, ny):
    # 640 and 1440 pressure dofs against 562 and 1322 skeleton velocity dofs,
    # below dense_cap: ARPACK is predicted cheaper
    sys_ = _fig3_system(nx, ny)
    op = _condensed_op(sys_)
    res = smallest_generalized_eigs(op, sys_.Mp, 6, deflate=sys_.m)
    assert res.method == "arpack"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True)[:6], atol=1e-10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: quad_pair_system(12, 11, width=2.0, grid=(2, 2)),
        # 1024 pressure dofs, but only 122 skeleton velocity dofs
        lambda: quad_pair_system(16, 15, width=2.0, grid=(2, 2)),
        # 613 continuous pressures: Mp is one block, so no Woodbury solves
        lambda: _pair_system(
            sv_split(rect_grid(4, 2, 24, 12), SvSplitParams(b=0.4)), 2, 1, Continuity.C0
        ),
    ],
    ids=["Q12-Q11dc", "Q16-Q15dc", "P2-P1"],
)
def test_route_rule_keeps_high_order_and_continuous_dense(build):
    sys_ = build()
    op = _condensed_op(sys_)
    assert smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m).method == "dense"


def test_route_budget_falls_back_to_dense(monkeypatch):
    # the fan's D_32 symmetry gives sigma_2 = sigma_3: Lanczos converges
    # slowly on the pair, trips the solve budget, and the point is solved
    # on the dense route exactly as without the ARPACK attempt
    sys_ = _pair_system(regular_polygon_mesh(32, 1), 4, 3)
    op = _condensed_op(sys_)
    applies = []
    real_eigsh = spectral.eigsh

    def counting_eigsh(*args, OPinv, **kwargs):
        def matvec(b):
            applies.append(1)
            return OPinv.matvec(b)

        wrapped = spectral.LinearOperator(OPinv.shape, matvec=matvec, dtype=float)
        return real_eigsh(*args, OPinv=wrapped, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counting_eigsh)
    res = smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m)
    ncv = spectral._lanczos_basis_size(4, op.shape[0] - 1)
    budget = spectral._arpack_budget(op, _pressure_blocks(sys_.Mp), ncv)
    assert budget is not None and len(applies) == budget + 1  # the refused solve
    vecs = spectral._dense_eig_path(op, sys_.Mp, 4, sys_.m, SolverOptions())
    dense = spectral._finish(op, sys_.Mp, vecs, "dense")
    assert res.method == "dense"
    assert np.array_equal(res.values, dense.values)
    assert np.array_equal(res.vectors, dense.vectors)
    assert res.values[2] - res.values[1] <= 1e-12 * res.values[1]


def test_route_non_convergence_below_cap_falls_back_to_dense(monkeypatch):
    # one Lanczos restart cannot converge six pairs of P3-P2dc (864 pressure
    # dofs) on the 12x3 split with a = 0; below dense_cap that is a dense
    # point, not a failed one (above it: test_cli's failed-point test)
    sys_ = _pair_system(sv_mesh(4, 1, 12, 3, 0.4, 0.0), 3, 2)
    op = _condensed_op(sys_)
    ncv = spectral._lanczos_basis_size(6, op.shape[0] - 1)
    assert spectral._arpack_budget(op, _pressure_blocks(sys_.Mp), ncv) is not None
    monkeypatch.setattr(spectral, "_LANCZOS_RESTARTS", 1)
    res = smallest_generalized_eigs(op, sys_.Mp, 6, deflate=sys_.m)
    assert res.method == "dense"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True)[:6], atol=1e-10)


def test_arpack_deterministic_given_seed():
    sys_ = quad_pair_system(4, 3, grid=(2, 2))
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    opts = SolverOptions(dense_cap=1, seed=42)
    r1 = smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m, options=opts)
    r2 = smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m, options=opts)
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)


def test_mixed_block_agrees_with_schur_path():
    sys_ = quad_pair_system(3, 1)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    a = smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m)
    b = mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 3, deflate=sys_.m)
    assert np.allclose(a.values, b.values, atol=1e-10)


def test_qn_qn_minus_one_degenerates():
    sys_ = quad_pair_system(4, 3)
    res = mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 2, deflate=sys_.m)
    assert res.values[0] <= 1e-16


def test_k_dimension_guard():
    sys_ = quad_pair_system(2, 1)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    with pytest.raises(EigenSolverError):
        smallest_generalized_eigs(op, sys_.Mp, 4, deflate=sys_.m)  # dim = 3


@pytest.mark.parametrize("route", ["dense", "arpack", "qz"])
def test_residual_breach_raises(route, monkeypatch):
    # every route ends in the same finisher, whose residual contract holds
    sys_ = quad_pair_system(4, 2, grid=(2, 2))
    options = SolverOptions(dense_cap=1 if route == "arpack" else 4000)
    monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 1e-30)
    with pytest.raises(EigenSolverError, match=f"{route} eigen residuals"):
        if route == "qz":
            mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 3, deflate=sys_.m)
        else:
            op = SchurOperator(sys_.B, factorize_spd(sys_.A))
            smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m, options=options)


def test_nan_residual_breaches_the_contract():
    # a NaN in one eigenvector makes its residual NaN, which no tolerance admits
    sys_ = _pair_system(sv_mesh(4, 1, 4, 1, 0.4, 0.0), 2, 1)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    vecs = spectral._dense_eig_path(op, sys_.Mp, 3, sys_.m, SolverOptions())
    vecs[0, 2] = np.nan
    with pytest.raises(EigenSolverError, match="dense eigen residuals nan exceed"):
        spectral._finish(op, sys_.Mp, vecs, "dense")


def test_mixed_cap_guard():
    sys_ = quad_pair_system(3, 2)
    with pytest.raises(EigenSolverError):
        mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 2, cap=3)


# ------------------------------------------------------------ invariants


def test_rayleigh_quotient_consistency():
    sys_ = quad_pair_system(4, 2, width=2.0, grid=(2, 1))
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 5, deflate=sys_.m)
    for sig, q in zip(res.values, res.vectors.T):
        rq = (q @ op.apply(q)) / (q @ (sys_.Mp @ q))
        assert abs(rq - sig) <= 1e-9


@ROUTES
def test_deflation_orthogonality_and_gram(options):
    sys_ = quad_pair_system(4, 2, grid=(2, 2))
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 5, deflate=sys_.m, options=options)
    for q in res.vectors.T:
        qn = np.sqrt(q @ (sys_.Mp @ q))
        assert abs(sys_.m @ q) <= 1e-9 * qn
    G = res.vectors.T @ (sys_.Mp @ res.vectors)
    assert np.abs(G - np.eye(5)).max() <= 1e-10


def test_pressure_space_monotonicity():
    # enlarging the pressure space cannot increase the smallest eigenvalue
    mesh = sv_split(rect_grid(2, 1, 2, 1), SvSplitParams(b=0.4))
    dv = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, 4, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    sig = {}
    for deg in (1, 2):
        dp = build_dof_map(
            mesh,
            ElementSpace(Family.TRIANGLE, deg, Continuity.DISCONTINUOUS, BoundaryCondition.NONE),
        )
        sys_ = assemble_system(dv, dp)
        op = SchurOperator(sys_.B, factorize_spd(sys_.A))
        sig[deg] = smallest_generalized_eigs(op, sys_.Mp, 1, deflate=sys_.m).values[0]
    assert sig[2] <= sig[1] + 1e-9


def test_scaling_relations():
    # corrected family: common scaling of (A, B, Mp) leaves sigma unchanged;
    # scaling Mp alone divides sigma by t; scaling (A, B) multiplies it by t
    sys_ = quad_pair_system(3, 1)
    t = 3.7
    base = smallest_generalized_eigs(
        SchurOperator(sys_.B, factorize_spd(sys_.A)), sys_.Mp, 3, deflate=sys_.m
    ).values

    all_scaled = smallest_generalized_eigs(
        SchurOperator(t * sys_.B, factorize_spd(t * sys_.A)),
        t * sys_.Mp,
        3,
        deflate=t * sys_.m,
    ).values
    assert np.allclose(all_scaled, base, atol=1e-10)

    mp_scaled = smallest_generalized_eigs(
        SchurOperator(sys_.B, factorize_spd(sys_.A)), t * sys_.Mp, 3, deflate=t * sys_.m
    ).values
    assert np.allclose(mp_scaled, base / t, atol=1e-10)

    ab_scaled = smallest_generalized_eigs(
        SchurOperator(t * sys_.B, factorize_spd(t * sys_.A)), sys_.Mp, 3, deflate=sys_.m
    ).values
    assert np.allclose(ab_scaled, t * base, atol=1e-9)


def test_dense_cap_default():
    assert SolverOptions().dense_cap == 4000
    assert SolverOptions(dense_cap=7).dense_cap == 7


@pytest.mark.parametrize("field", ["dense_cap", "seed"])
@pytest.mark.parametrize(
    "value", [-1, 2.0, "3", None, True, False],
    ids=["negative", "float", "str", "none", "true", "false"],
)
def test_solver_options_reject_a_non_integer_or_negative_value(field, value):
    with pytest.raises(ValueError, match=f"solver option '{field}' must be a non-negative integer"):
        SolverOptions(**{field: value})


def test_solver_options_take_integer_likes_as_ints():
    options = SolverOptions(dense_cap=np.int64(0), seed=np.uint8(5))
    assert options == SolverOptions(dense_cap=0, seed=5)
    assert type(options.dense_cap) is type(options.seed) is int


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_qn_qn_minus_one_mixed_route(n):
    sys_ = quad_pair_system(n, n - 1)
    res = mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 1, deflate=sys_.m)
    assert res.values[0] <= 1e-12


def test_qn_qn_minus_one_spurious_mode_multielement():
    # the degeneracy is not a single-element artifact: a checkerboard-type
    # zero-mean pressure mode with B^T q = 0 survives on multi-element
    # grids (kernel verified directly via SVD, independent of eigensolvers)
    from scipy.linalg import null_space

    sys_ = quad_pair_system(3, 2, width=2.0, grid=(2, 2))
    w = sys_.m / np.linalg.norm(sys_.m)
    Z = null_space(w[None, :])
    sv = np.linalg.svd(sys_.B.toarray().T @ Z, compute_uv=False)
    assert (sv < 1e-10 * sv.max()).sum() == 1
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 2, deflate=sys_.m)
    assert res.values[0] <= 1e-16


def test_mixed_route_without_deflation_reports_zero_mode():
    sys_ = quad_pair_system(3, 1)
    res = mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 2)
    assert abs(res.values[0]) <= 1e-12
    assert res.values[1] > 0.1
