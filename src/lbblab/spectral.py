"""Symmetric linear algebra for the pressure Schur eigenproblem.

Three routes to the same spectrum:

* ``smallest_generalized_eigs`` -- production path: dense generalized
  eigensolve below the dense cap, shift-invert Lanczos (ARPACK) above it.
  Its solves with S + tau Mp use the Woodbury identity when Mp is block
  diagonal (discontinuous pressures): W = (tau Mp)^{-1} is element-local
  and the augmented-Lagrangian matrix A + B^T W B is SPD.  Continuous
  pressures solve with the factorized saddle-point matrix instead.
* ``mixed_block_eigs`` -- cross-check path solving the structured block
  pencil directly with QZ.
* ``dense_schur`` -- explicit Schur matrix, the oracle building block.

With a mean vector m to deflate, every route solves on the zero-mean
pressures {q : m.q = 0}.  The dense and QZ routes need a basis of that
subspace and take it from a Householder reflector; the Lanczos route
projects its start vector and every shift-invert solve Mp-orthogonally
onto it.  All three end in ``_finish``: Rayleigh quotients, sorting and
the residual contract.

Every SPD matrix (A, and the augmented-Lagrangian matrix) goes through one
``SymFactorization``: a SuperLU factor with a minimum-degree ordering and
diagonal pivots, which doubles as the positive-definiteness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eig, eigh
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

__all__ = [
    "EigenSolverError",
    "GenEigResult",
    "NotPositiveDefinite",
    "SchurOperator",
    "SolverOptions",
    "SymFactorization",
    "dense_schur",
    "factorize_spd",
    "mixed_block_eigs",
    "smallest_generalized_eigs",
]

_SYMMETRY_TOL = 1e-10  # relative asymmetry accepted in A and in the dense Schur matrix
_LANCZOS_TOL = 1e-12  # ARPACK convergence tolerance


class NotPositiveDefinite(ArithmeticError):
    """A pivot <= 0 turned up: BC elimination bug or singular mesh."""


class EigenSolverError(RuntimeError):
    """Eigensolver failed to meet its residual contract."""


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and caps; the CLI's `solver` config block sets the same fields.

    Problems with more than dense_cap pressure dofs take the shift-invert
    Lanczos route; max_iterations caps its restarts.
    """

    residual_tol: float = 1e-10
    dense_cap: int = 4000
    mixed_cap: int = 3000
    seed: int = 0
    max_iterations: int = 20000


class SymFactorization:
    """Sparse LDL^T-type factorization of an SPD matrix.

    SuperLU orders the matrix by minimum degree on A + A^T and, in
    symmetric mode with a zero pivot threshold, keeps every pivot on the
    diagonal, so the factor is P A P^T = L U with U = D L^T.  By Sylvester's
    law of inertia A is positive definite iff every pivot is positive: an
    off-diagonal pivot (perm_r != perm_c), a pivot <= 0 on the diagonal of
    U or an exactly singular factor raises NotPositiveDefinite.
    """

    def __init__(self, A):
        A = sparse.csc_matrix(A)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        scale = abs(A).max() if A.nnz else 0.0
        asym = abs(A - A.T).max() if A.nnz else 0.0
        if asym > _SYMMETRY_TOL * max(scale, 1e-300):
            raise ValueError("matrix is not symmetric")
        self.matrix = A
        self.n = n
        try:
            lu = splu(
                A,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            raise NotPositiveDefinite(str(exc)) from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise NotPositiveDefinite("a zero diagonal pivot forced an off-diagonal one")
        if not (lu.U.diagonal() > 0).all():
            raise NotPositiveDefinite("non-positive pivot")
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))


def factorize_spd(A) -> SymFactorization:
    return SymFactorization(A)


class SchurOperator:
    """q -> B A^{-1} B^T q on the pressure space."""

    def __init__(self, B, factor: SymFactorization):
        self.B = sparse.csr_matrix(B)
        self.factor = factor
        if self.B.shape[1] != factor.n:
            raise ValueError("B column count does not match the factorization")
        self.shape = (self.B.shape[0], self.B.shape[0])

    def apply(self, q: np.ndarray) -> np.ndarray:
        return self.B @ self.factor.solve(self.B.T @ q)

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(self.shape, matvec=self.apply, dtype=float)


@dataclass(frozen=True)
class GenEigResult:
    """Ascending eigenvalues of S q = sigma Mp q with Mp-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    method: str


def dense_schur(op: SchurOperator, cap: int | None = None, batch: int = 256) -> np.ndarray:
    """Explicit Schur matrix from nP solves A z = B^T e_p (desk scale only)."""
    n = op.shape[0]
    cap = SolverOptions().dense_cap if cap is None else cap
    if n > cap:
        raise EigenSolverError(f"dense Schur matrix of size {n} exceeds cap {cap}")
    BT = op.B.T.tocsc()
    S = np.empty((n, n))
    for j0 in range(0, n, batch):
        j1 = min(j0 + batch, n)
        S[:, j0:j1] = op.B @ op.factor.solve(BT[:, j0:j1].toarray())
    scale = np.abs(S).max() or 1.0
    if np.abs(S - S.T).max() > _SYMMETRY_TOL * scale:
        raise EigenSolverError("dense Schur matrix failed its symmetry contract")
    return 0.5 * (S + S.T)


def _householder_to_e1(m: np.ndarray | None) -> np.ndarray | None:
    """Unit vector w with H m proportional to e_1, H = I - 2 w w^T.

    H's last n-1 columns span {q : m.q = 0}.  With nothing to deflate, w is
    None and the two helpers below are the identity.
    """
    if m is None:
        return None
    w = np.array(m, dtype=float)
    nrm = np.linalg.norm(w)
    if nrm == 0:
        raise ValueError("deflation vector is zero")
    w[0] += np.copysign(nrm, w[0] if w[0] != 0 else 1.0)
    return w / np.linalg.norm(w)


def _reflect_matrix(M: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """H M H without its first row and column, without forming H."""
    if w is None:
        return M
    Mw = M @ w
    wMw = w @ Mw
    return (M - 2.0 * np.outer(w, Mw) - 2.0 * np.outer(Mw, w) + 4.0 * wMw * np.outer(w, w))[1:, 1:]


def _expand_deflated(y: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Map reduced coordinates back: q = H [0; y]."""
    if w is None:
        return y
    full = np.concatenate([np.zeros((1, *y.shape[1:])), y])
    return full - 2.0 * np.outer(w, w @ full)


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if len(idx) and col[idx[0]] < 0:
            out[:, j] = -col
    return out


def _finish(op, Mp, vectors, method: str, tol: float) -> GenEigResult:
    """Sign-fix, Rayleigh-refine, sort and residual-check computed eigenvectors.

    The Rayleigh quotient is quadratically accurate in the eigenvector error,
    and exactly nonnegative for the Schur operator (the numerator is a
    squared A^{-1}-norm), so near-null modes come out at the roundoff floor
    instead of the eigensolver's backward-error level.  S is applied once
    per vector and serves both the quotient and the residual.
    """
    vecs = _canonical_sign(vectors)
    applied = [op.apply(q) for q in vecs.T]
    vals = np.array([float(q @ Sq) / float(q @ (Mp @ q)) for q, Sq in zip(vecs.T, applied)])
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    # residuals on the sorted copy, whose columns are contiguous: BLAS dot
    # products round differently on strided columns, and the recorded
    # residual_max values are the contiguous ones
    res = np.empty(len(vals))
    for j, (sig, q) in enumerate(zip(vals, vecs.T)):
        r = applied[order[j]] - sig * (Mp @ q)
        res[j] = np.linalg.norm(r) / max(float(np.sqrt(q @ (Mp @ q))), 1e-300)
    if (res > tol).any():
        raise EigenSolverError(
            f"{method} eigen residuals {res.max():.3e} exceed tolerance {tol:.1e}"
        )
    return GenEigResult(values=vals, vectors=vecs, residuals=res, method=method)


def _dense_eig_path(op, Mp, k, deflate, options):
    w = _householder_to_e1(deflate)
    S_red = _reflect_matrix(dense_schur(op, cap=options.dense_cap), w)
    M_red = _reflect_matrix(Mp.toarray(), w)
    _, y = eigh(S_red, M_red, subset_by_index=(0, k - 1))
    return _expand_deflated(y, w)


def _block_inverse(Mp) -> sparse.csr_matrix | None:
    """Mp^{-1} when Mp splits into several blocks, else None.

    The blocks are the connected components of Mp's graph: one per element
    for discontinuous pressures, so the inverse is as sparse as Mp and one
    batched dense inverse per block size builds it.  Continuous pressures
    couple everything into one block, whose inverse is dense.
    """
    ncomp, labels = connected_components(Mp, directed=False)
    if ncomp == 1:
        return None
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rows, cols, vals = [], [], []
    for s in np.unique(sizes):
        dofs = order[start[sizes == s][:, None] + np.arange(s)]  # one row per block
        r, c = np.repeat(dofs, s, axis=1).ravel(), np.tile(dofs, (1, s)).ravel()
        rows.append(r)
        cols.append(c)
        vals.append(np.linalg.inv(np.asarray(Mp[r, c]).reshape(-1, s, s)).ravel())
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=Mp.shape
    )


def _shifted_solver(op, Mp, tau):
    """b -> (S + tau Mp)^{-1} b.

    For block-diagonal Mp, Woodbury with W = (tau Mp)^{-1} gives
    (S + tau Mp)^{-1} = W - W B (A + B^T W B)^{-1} B^T W, and the augmented
    Lagrangian matrix A + B^T W B is SPD and couples only velocity dofs
    that share an element.  Otherwise the indefinite saddle-point matrix
    [[A, B^T], [B, -tau Mp]] is factorized and solved.
    """
    Mp_inv = _block_inverse(Mp)
    if Mp_inv is not None:
        W = Mp_inv / tau
        B = op.B
        al = factorize_spd(op.factor.matrix + B.T @ (W @ B))

        def solve(b):
            Wb = W @ b
            return Wb - W @ (B @ al.solve(B.T @ Wb))

        return solve
    nv = op.factor.n
    lu = splu(sparse.bmat([[op.factor.matrix, op.B.T], [op.B, -tau * Mp]], format="csc"))
    zeros_v = np.zeros(nv)

    def solve(b):
        return lu.solve(np.concatenate([zeros_v, -np.asarray(b, dtype=float)]))[nv:]

    return solve


def _arpack_eig_path(op, Mp, k, deflate, options):
    n = op.shape[0]
    dim = n - (1 if deflate is not None else 0)
    if k >= dim:
        raise EigenSolverError("problem too small for the iterative path")
    # dimensionless shift left of the spectrum of the (S, Mp) pencil
    tau = 0.05
    solve_shifted = _shifted_solver(op, Mp, tau)
    if deflate is not None:
        # Lanczos on the zero-mean subspace {m.q = 0}: c = (S + tau Mp)^{-1} m
        # is the constant mode (S c = 0, so one solve), and P x = x - c (m.x)/(m.c)
        # is the Mp-orthogonal projector onto that subspace, which the pencil
        # leaves invariant
        m = np.asarray(deflate, dtype=float)
        c = solve_shifted(m)
        mc = m @ c

    def project(x):
        return x if deflate is None else x - c * ((m @ x) / mc)

    opinv = LinearOperator((n, n), matvec=lambda b: project(solve_shifted(b)), dtype=float)
    rng = np.random.default_rng(options.seed)
    v0 = project(rng.standard_normal(n))
    # a roomy Lanczos basis keeps clustered near-degenerate modes (one per
    # symmetry orbit on symmetric meshes) from stalling the restarts
    ncv = min(dim, max(6 * k, 60))
    try:
        _, vecs = eigsh(
            op.as_linear_operator(),
            k=k,
            M=Mp,
            sigma=-tau,
            which="LM",
            OPinv=opinv,
            v0=v0,
            ncv=ncv,
            tol=_LANCZOS_TOL,
            maxiter=options.max_iterations,
        )
    except ArpackNoConvergence as exc:
        raise EigenSolverError(f"arpack route: {exc}") from exc
    return vecs


def smallest_generalized_eigs(
    op: SchurOperator,
    Mp,
    k: int,
    deflate: np.ndarray | None = None,
    options: SolverOptions | None = None,
) -> GenEigResult:
    """k smallest eigenvalues of S q = sigma Mp q, ascending.

    With `deflate` (the mean vector m), the problem is restricted to the
    zero-mean subspace {q : m.q = 0}, removing the trivial constant mode.
    Deterministic for a fixed options.seed.
    """
    options = options or SolverOptions()
    Mp = sparse.csr_matrix(Mp)
    n = op.shape[0]
    if Mp.shape != (n, n):
        raise ValueError("Mp dimension mismatch")
    dim = n - (1 if deflate is not None else 0)
    if k < 1 or k > dim:
        raise EigenSolverError(f"k={k} outside the available dimension {dim}")
    method = "dense" if n <= options.dense_cap else "arpack"
    route = _dense_eig_path if method == "dense" else _arpack_eig_path
    return _finish(op, Mp, route(op, Mp, k, deflate, options), method, options.residual_tol)


def mixed_block_eigs(
    A,
    B,
    Mp,
    k: int,
    deflate: np.ndarray | None = None,
    options: SolverOptions | None = None,
) -> GenEigResult:
    """Same spectrum via the block saddle pencil, solved densely with QZ.

    This is the cross-check route: it never forms the Schur complement.
    Desk-scale only (guarded by options.mixed_cap on the total dimension).
    """
    options = options or SolverOptions()
    A = sparse.csr_matrix(A)
    B = sparse.csr_matrix(B)
    Mp = sparse.csr_matrix(Mp)
    nv, n = A.shape[0], Mp.shape[0]
    if nv + n > options.mixed_cap:
        raise EigenSolverError(
            f"mixed pencil of size {nv + n} exceeds the desk-scale cap {options.mixed_cap}"
        )
    w = _householder_to_e1(deflate)
    Bd = B.toarray()
    if w is not None:
        Bd = (Bd - 2.0 * np.outer(w, w @ Bd))[1:, :]
    Mpd = _reflect_matrix(Mp.toarray(), w)
    m_red = Bd.shape[0]
    if k > m_red:
        raise EigenSolverError(f"k={k} outside the available dimension {m_red}")
    # equilibrate the two diagonal blocks before QZ
    sa = 1.0 / np.sqrt(abs(A).max())
    sp_ = 1.0 / np.sqrt(np.abs(Mpd).max())
    K = np.zeros((nv + m_red, nv + m_red))
    K[:nv, :nv] = sa * sa * A.toarray()
    K[:nv, nv:] = -(sa * sp_) * Bd.T
    K[nv:, :nv] = (sa * sp_) * Bd
    M = np.zeros_like(K)
    M[nv:, nv:] = sp_ * sp_ * Mpd
    wvals, vr = eig(K, M, right=True)
    finite = np.isfinite(wvals)
    real = np.abs(wvals.imag) <= 1e-8 * (1.0 + np.abs(wvals.real))
    idx = np.nonzero(finite & real)[0]
    order = idx[np.argsort(wvals.real[idx])]
    vecs = _expand_deflated(vr[:, order[:k]].real[nv:, :], w)
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs, Mp @ vecs)))
    vecs = vecs / np.where(norms > 0, norms, 1.0)
    op = SchurOperator(B, factorize_spd(A))
    return _finish(op, Mp, vecs, "qz", options.residual_tol)
