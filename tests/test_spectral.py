import numpy as np
import pytest
from scipy import sparse

from lbblab.fem import (
    BoundaryCondition,
    Continuity,
    ElementSpace,
    Family,
    assemble_system,
    build_dof_map,
)
from lbblab.geometry import SvSplitParams, rect_grid, sv_split
from lbblab.spectral import (
    EigenSolverError,
    NotPositiveDefinite,
    SchurOperator,
    SolverOptions,
    _block_inverse,
    dense_schur,
    factorize_spd,
    mixed_block_eigs,
    smallest_generalized_eigs,
)

from conftest import brute_force_sigmas, quad_pair_system

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


def test_factorize_banded_path_residual():
    # 1D Laplacian of size 800 exercises the RCM + banded Cholesky route
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


def test_factorize_banded_rejects_indefinite():
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
    inv = _block_inverse(Mp)
    assert inv.nnz == Mp.nnz
    assert np.abs((inv @ Mp).toarray() - np.eye(12)).max() <= 1e-12
    assert _block_inverse(sparse.csr_matrix(np.ones((3, 3)))) is None


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


@ROUTES
def test_sigma0_without_deflation(options):
    sys_ = quad_pair_system(3, 1, grid=(2, 2))
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 2, options=options)
    assert abs(res.values[0]) <= 1e-10


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


# ------------------------------------------------------------ eigen paths


def test_dense_path_matches_brute_force():
    sys_ = quad_pair_system(3, 1)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m)
    oracle = brute_force_sigmas(sys_, deflate=True)
    assert np.allclose(res.values, oracle[:3], atol=1e-10)


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


def _sv_system(width, nx, a, vdeg, pdeg, pcont):
    mesh = sv_split(rect_grid(width, 1, nx, 1), SvSplitParams(b=0.4, special=(0, a)))
    dv = build_dof_map(
        mesh, ElementSpace(Family.TRIANGLE, vdeg, Continuity.C0, BoundaryCondition.ZERO_TRACE)
    )
    dp = build_dof_map(mesh, ElementSpace(Family.TRIANGLE, pdeg, pcont, BoundaryCondition.NONE))
    return assemble_system(dv, dp)


def test_arpack_saddle_route_continuous_pressure():
    # P2-P1 with continuous pressures: Mp is one block, so the shift-invert
    # solves go through the saddle-point LU instead of Woodbury
    sys_ = _sv_system(2, 2, 0.15, 2, 1, Continuity.C0)
    assert _block_inverse(sys_.Mp) is None
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
    assert _block_inverse(sys_.Mp).nnz == 100 * (sys_.Mp.shape[0] // 10)
    op = SchurOperator(sys_.B, factorize_spd(sys_.A))
    res = smallest_generalized_eigs(
        op, sys_.Mp, 6, deflate=sys_.m, options=SolverOptions(dense_cap=1)
    )
    assert res.method == "arpack"
    assert np.allclose(res.values, brute_force_sigmas(sys_, deflate=True)[:6], atol=1e-10)
    assert res.residuals.max() <= 1e-10


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
def test_residual_breach_raises(route):
    # every route ends in the same finisher, whose residual contract holds
    sys_ = quad_pair_system(4, 2, grid=(2, 2))
    options = SolverOptions(residual_tol=1e-30, dense_cap=1 if route == "arpack" else 4000)
    with pytest.raises(EigenSolverError, match=f"{route} eigen residuals"):
        if route == "qz":
            mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 3, deflate=sys_.m, options=options)
        else:
            op = SchurOperator(sys_.B, factorize_spd(sys_.A))
            smallest_generalized_eigs(op, sys_.Mp, 3, deflate=sys_.m, options=options)


def test_mixed_cap_guard():
    sys_ = quad_pair_system(3, 2)
    with pytest.raises(EigenSolverError):
        mixed_block_eigs(sys_.A, sys_.B, sys_.Mp, 2, options=SolverOptions(mixed_cap=3))


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
