"""Symmetric linear algebra for the pressure Schur eigenproblem.

``smallest_generalized_eigs`` takes one of two routes to the same spectrum:

* shift-invert Lanczos (ARPACK) above the dense cap; below it, a dense
  generalized eigensolve unless a cost rule predicts ARPACK to be cheaper
  (see ``_arpack_budget``), in which case ARPACK runs on a budget of
  shift-invert solves and falls back to the dense route if it has not
  converged within it.  Its solves with S + tau Mp use the Woodbury
  identity when Mp is block diagonal (discontinuous pressures):
  W = (tau Mp + D)^{-1} is element-local and the augmented-Lagrangian
  matrix Ahat + C^T W C is SPD.  Continuous pressures solve with the
  factorized saddle-point matrix instead.
* the dense route on ``dense_schur``, the explicit Schur matrix.

The independent cross-checks (a QZ solve of the uncondensed block pencil
and a brute-force dense oracle) live with the tests, in
``tests/conftest.py``.

The Schur operator is S = D + C Ahat^{-1} C^T, the pressure Schur
complement of the statically condensed system (`lbblab.fem.AssembledSystem`):
Ahat acts on the skeleton velocity dofs only, and D = 0, C = B, Ahat = A
give the uncondensed B A^{-1} B^T.

Both routes solve on the zero-mean pressures {q : m.q = 0} for the mean
vector m.  The dense route takes a basis of that subspace from a
Householder reflector; the Lanczos route projects its start vector and
every shift-invert solve Mp-orthogonally onto it.  Both end in
``_finish``: Rayleigh quotients, sorting and the residual contract.

Every SPD matrix (Ahat, and the augmented-Lagrangian matrix) goes through one
``SymFactorization``: a SuperLU factor with a minimum-degree ordering and
diagonal pivots, which doubles as the positive-definiteness check.

Along a sweep of nearby systems the ARPACK route can start from the
eigenvectors of the previous system.

BLAS threads follow the rule of ``_OneBlasThread`` (held by `infsup.compute_betas`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import operator
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse
from scipy.linalg import eigh
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
    "smallest_generalized_eigs",
]

_SYMMETRY_TOL = 1e-10  # relative asymmetry accepted in A and in the dense Schur matrix
_LANCZOS_TOL = 1e-12  # ARPACK convergence tolerance
_LANCZOS_RESTARTS = 20000  # ARPACK restart cap
_RESIDUAL_TOL = 1e-10  # largest accepted eigen-residual (the residual contract)
# Cost rule below the dense cap, fitted on 2-core timings of SV P4-P3dc,
# Q_n-Q_kdc and polygon-fan systems, and not refitted since.  The fit
# predates both one-thread holds (_ONE_BLAS_THREAD): its timings ran numpy's
# and scipy's BLAS on 2 threads, which slowed the dense route's products on
# Q_n-Q_kdc and at times stalled ARPACK's eigenvector extraction.  The dense
# route costs n_p solves with Ahat (n_s on a small skeleton, see
# dense_schur) plus an n_p^3 eigh; ARPACK costs the augmented-Lagrangian
# factor plus about two solves per Lanczos vector when it converges well.
_DOFS_PER_LANCZOS_VECTOR = 10  # ARPACK first only above this many pressure dofs per vector
_SOLVES_PER_LANCZOS_VECTOR = 3  # shift-invert solve budget before the dense fallback
# a skeleton is small when this many skeleton dofs still number at most the
# pressure dofs (high-order quads): dense_schur then takes the skeleton side
# (n_s solves and dense products) and the dense route stays first; on larger
# skeletons the n_p sparse column solves are cheaper (SV P4-P3dc, polygon fans)
_SKELETON_SIDE = 4
_SCHUR_BATCH = 256  # pressure columns per solve on dense_schur's pressure side


class NotPositiveDefinite(ArithmeticError):
    """A pivot <= 0 turned up: BC elimination bug or singular mesh."""


class EigenSolverError(RuntimeError):
    """Eigensolver failed to meet its residual contract."""


class _OverBudget(Exception):
    """A budgeted ARPACK run has not converged within its shift-invert solves."""


@dataclass(frozen=True)
class SolverOptions:
    """The route's cap and the start vector's seed; the CLI's `solver` config
    block sets the same fields.

    Problems with more than dense_cap pressure dofs take the shift-invert
    Lanczos route with no solve budget.  Both are non-negative integers;
    a bool is not one.
    """

    dense_cap: int = 4000
    seed: int = 0

    def __post_init__(self):
        for name in ("dense_cap", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not hasattr(type(value), "__index__")
                    or operator.index(value) < 0):
                raise ValueError(f"solver option {name!r} must be a non-negative integer, "
                                 f"got {value!r}")
            object.__setattr__(self, name, operator.index(value))  # a numpy integer as int


def _bundled_openblas(module, suffix: str):
    """The (get, set) thread-count functions of the OpenBLAS that `module`'s
    wheel bundles in `<module>.libs`, or None where it uses another BLAS."""
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
            get = getattr(dll, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(dll, f"scipy_openblas_set_num_threads{suffix}")
        except (AttributeError, OSError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _numpy_blas():
    """numpy's pool: the ILP64 OpenBLAS in `numpy.libs`, or None."""
    return _bundled_openblas(np, "64_")


@functools.cache
def _scipy_blas():
    """scipy's pool (SuperLU, ARPACK, eigh): the LP64 OpenBLAS in `scipy.libs`, or None."""
    return _bundled_openblas(scipy, "")


class _OneBlasThread:
    """Context that holds numpy's and scipy's bundled OpenBLAS pools by one rule:

        numpy's pool runs on one thread while a hold is active; scipy's runs
        on one thread while a hold is active and no `release()` is.

    Otherwise each pool runs at the count it had when the first of the
    holds in flight entered.  A pool that is not found (MKL, Accelerate) is
    skipped.  Holds and releases may overlap across threads and nest in
    any order; outside a hold a release changes nothing.

    numpy and scipy each load their own OpenBLAS, and the spinning workers
    of one pool starve the other when a solve moves between numpy products
    (assembly, dense_schur) and scipy calls (SuperLU, ARPACK, eigh): on 2
    cores a Fig. 5 p-sweep took twice as long with both pools at 2
    threads, and ARPACK's second thread mostly spins.  The dense route's
    `eigh` runs inside a release: it is the one scipy call here whose bits
    depend on the thread count, and the one that gains from a second
    thread.  The known gap: OpenBLAS threads ARPACK's vector work above
    10000 pressure dofs, so such a point that overlaps another thread's
    `eigh` (as under the CLI's --jobs) may round differently from a serial run.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holds = self._releases = 0  # in flight
        self._saved = (None, None)  # (set, count at the first hold's entry) per pool

    def _held(self):
        """Whether the rule holds numpy's and scipy's pool at one thread."""
        return self._holds > 0, self._holds > 0 and self._releases == 0

    def _step(self, holds=0, releases=0):
        """Move the counts in flight; set each pool whose place under the rule changed."""
        with self._lock:
            before = self._held()
            if self._holds == 0 and holds > 0:
                self._saved = tuple(blas and (blas[1], blas[0]())
                                    for blas in (_numpy_blas(), _scipy_blas()))
            self._holds += holds
            self._releases += releases
            for saved, was, now in zip(self._saved, before, self._held()):
                if saved and was != now:
                    saved[0](1 if now else saved[1])

    def __enter__(self):
        self._step(holds=1)

    def __exit__(self, *exc):
        self._step(holds=-1)

    @contextlib.contextmanager
    def release(self):
        self._step(releases=1)
        try:
            yield
        finally:
            self._step(releases=-1)


_ONE_BLAS_THREAD = _OneBlasThread()


class SymFactorization:
    """Sparse LDL^T-type factorization of an SPD matrix.

    SuperLU orders the matrix by minimum degree on A + A^T and, in
    symmetric mode with a zero pivot threshold, keeps every pivot on the
    diagonal, so the factor is P A P^T = L U with U = D L^T.  By Sylvester's
    law of inertia A is positive definite iff every pivot is positive: an
    off-diagonal pivot (perm_r != perm_c), a pivot <= 0 on the diagonal of
    U or an exactly singular factor raises NotPositiveDefinite.  `matrix`
    is A in CSC form, or None with keep_matrix=False: factors that nothing
    reads the matrix of do not hold it.
    """

    def __init__(self, A, keep_matrix: bool = True):
        A = sparse.csc_matrix(A)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        # on the stored values: abs() of a sparse matrix copies its pattern too
        scale = np.abs(A.data).max(initial=0.0)
        asym = np.abs((A - A.T).data).max(initial=0.0)
        if asym > _SYMMETRY_TOL * max(scale, 1e-300):
            raise ValueError("matrix is not symmetric")
        self.matrix = A if keep_matrix else None
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


def factorize_spd(A, keep_matrix: bool = True) -> SymFactorization:
    return SymFactorization(A, keep_matrix)


class SchurOperator:
    """q -> D q + C Ahat^{-1} C^T q on the pressure space.

    `factor` holds the SPD velocity matrix Ahat and C is the
    pressure-velocity coupling of the condensed system of
    `lbblab.fem.AssembledSystem`; D = E^T E comes with its factor E, and D q
    is applied as E^T (E q) so that q.Sq stays at the roundoff floor squared
    on near-null modes.  Without D and E this is B A^{-1} B^T for the full
    (A, B).
    """

    def __init__(self, C, factor: SymFactorization, D=None, E=None):
        self.C = sparse.csr_matrix(C)
        self.factor = factor
        if self.C.shape[1] != factor.n:
            raise ValueError("C column count does not match the factorization")
        n = self.C.shape[0]
        self.shape = (n, n)
        if (D is None) != (E is None):
            raise ValueError("D and its factor E come together")
        self.D = sparse.csr_matrix(self.shape) if D is None else sparse.csr_matrix(D)
        self.E = sparse.csr_matrix((0, n)) if E is None else sparse.csr_matrix(E)
        if self.D.shape != self.shape or self.E.shape[1] != n:
            raise ValueError("D or E dimension mismatch")

    def apply(self, q: np.ndarray) -> np.ndarray:
        return self.E.T @ (self.E @ q) + self.C @ self.factor.solve(self.C.T @ q)


@dataclass(frozen=True)
class GenEigResult:
    """Ascending eigenvalues of S q = sigma Mp q with Mp-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    method: str


def dense_schur(op: SchurOperator, cap: int | None = None) -> np.ndarray:
    """Explicit Schur matrix D + C Ahat^{-1} C^T (desk scale only).

    From the side with fewer solves: with a small skeleton
    (`_small_skeleton`) F = Ahat^{-1} from n_s solves and
    S = D + (C F) C^T by dense products; otherwise n_p solves
    Ahat z = C^T e_p in batches of _SCHUR_BATCH columns.
    """
    n = op.shape[0]
    cap = SolverOptions().dense_cap if cap is None else cap
    if n > cap:
        raise EigenSolverError(f"dense Schur matrix of size {n} exceeds cap {cap}")
    S = op.D.toarray()
    if _small_skeleton(op):
        Cd = op.C.toarray()
        S += (Cd @ op.factor.solve(np.eye(op.factor.n))) @ Cd.T
    else:
        CT = op.C.T.tocsc()
        for j0 in range(0, n, _SCHUR_BATCH):
            j1 = min(j0 + _SCHUR_BATCH, n)
            S[:, j0:j1] += op.C @ op.factor.solve(CT[:, j0:j1].toarray())
    return _symmetric_part(S)


def _small_skeleton(op: SchurOperator) -> bool:
    """Whether _SKELETON_SIDE n_s <= n_p for the n_s velocity dofs of Ahat."""
    return _SKELETON_SIDE * op.factor.n <= op.shape[0]


def _symmetric_part(S: np.ndarray) -> np.ndarray:
    """0.5 (S + S^T) after checking that S is symmetric to _SYMMETRY_TOL.

    One contiguous transpose serves both passes: read in place, S.T strides
    by a whole row.  The values are those of S.T bit for bit, and the sum
    is formed in that copy, so no more n x n arrays are alive at once than
    S and two temporaries.
    """
    scale = np.abs(S).max() or 1.0
    ST = S.T.copy()
    gap = S - ST
    if np.abs(gap, out=gap).max() > _SYMMETRY_TOL * scale:
        raise EigenSolverError("dense Schur matrix failed its symmetry contract")
    del gap
    ST += S
    ST *= 0.5
    return ST


def _householder_to_e1(m: np.ndarray) -> np.ndarray:
    """Unit vector w with H m proportional to e_1, H = I - 2 w w^T.

    H's last n-1 columns span {q : m.q = 0}.
    """
    w = np.array(m, dtype=float)
    nrm = np.linalg.norm(w)
    if nrm == 0:
        raise ValueError("deflation vector is zero")
    w[0] += np.copysign(nrm, w[0] if w[0] != 0 else 1.0)
    return w / np.linalg.norm(w)


def _reflect_matrix(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H M H without its first row and column, without forming H.

    For symmetric M, H M H = M - w v^T - v w^T with v = 2 M w - 2 (w.Mw) w:
    one rank-2 update, on the trailing block only.
    """
    Mw = M @ w
    v = 2.0 * Mw - (2.0 * (w @ Mw)) * w
    out = M[1:, 1:] - np.outer(w[1:], v[1:])
    out -= np.outer(v[1:], w[1:])
    return out


def _expand_deflated(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Map reduced coordinates back: q = H [0; y]."""
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


def _finish(op, Mp, vectors, method: str) -> GenEigResult:
    """Sign-fix, Rayleigh-refine, sort and residual-check computed eigenvectors.

    The Rayleigh quotient is quadratically accurate in the eigenvector error,
    and nonnegative for the Schur operator (the numerator is |E q|^2 plus a
    squared Ahat^{-1}-norm), so near-null modes come out at the roundoff
    floor instead of the eigensolver's backward-error level.  S is applied once
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
    if not (res <= _RESIDUAL_TOL).all():  # a NaN residual fails too
        raise EigenSolverError(
            f"{method} eigen residuals {res.max():.3e} exceed tolerance {_RESIDUAL_TOL:.1e}"
        )
    return GenEigResult(values=vals, vectors=vecs, residuals=res, method=method)


def _dense_eig_path(op, Mp, k, deflate, options):
    w = _householder_to_e1(deflate)
    S_red = _reflect_matrix(dense_schur(op, cap=options.dense_cap), w)
    M_red = _reflect_matrix(Mp.toarray(), w)
    with _ONE_BLAS_THREAD.release():
        _, y = eigh(S_red, M_red, subset_by_index=(0, k - 1))
    return _expand_deflated(y, w)


def _pressure_blocks(Mp) -> np.ndarray | None:
    """Block label of every pressure dof when Mp splits into several blocks.

    The blocks are the connected components of Mp's graph: one per element
    for discontinuous pressures.  Continuous pressures couple everything
    into one block, and the answer is None.
    """
    ncomp, labels = connected_components(Mp, directed=False)
    return labels if ncomp > 1 else None


def _block_inverse(Mp, labels: np.ndarray) -> sparse.csr_matrix:
    """Mp^{-1} for block-diagonal Mp with the block labels of `_pressure_blocks`.

    The inverse is as sparse as Mp, and one batched dense inverse per block
    size builds it.
    """
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


def _shifted_solver(op, Mp, tau, labels):
    """b -> (S + tau Mp)^{-1} b for S = D + C Ahat^{-1} C^T.

    S + tau Mp = M + C Ahat^{-1} C^T with M = tau Mp + D, which has Mp's
    sparsity pattern.  For block-diagonal Mp (block labels given), Woodbury
    with W = M^{-1} gives (S + tau Mp)^{-1} = W - W C (Ahat + C^T W C)^{-1} C^T W,
    and the augmented Lagrangian matrix Ahat + C^T W C is SPD and couples
    only skeleton velocity dofs that share an element.  Otherwise the
    indefinite saddle-point matrix [[Ahat, C^T], [C, -M]] is factorized and
    solved.
    """
    M = tau * Mp + op.D
    C, Ahat = op.C, op.factor.matrix
    if labels is not None:
        W = _block_inverse(M, labels)
        al = factorize_spd(Ahat + C.T @ (W @ C), keep_matrix=False)

        CT = C.T  # one transposed view, not one per solve

        def solve(b):
            Wb = W @ b
            return Wb - W @ (C @ al.solve(CT @ Wb))

        return solve
    nv = op.factor.n
    lu = splu(sparse.bmat([[Ahat, C.T], [C, -M]], format="csc"))
    zeros_v = np.zeros(nv)

    def solve(b):
        return lu.solve(np.concatenate([zeros_v, -np.asarray(b, dtype=float)]))[nv:]

    return solve


def _lanczos_basis_size(k: int, dim: int) -> int:
    # a roomy Lanczos basis keeps clustered near-degenerate modes (one per
    # symmetry orbit on symmetric meshes) from stalling the restarts
    return min(dim, max(6 * k, 60))


def _arpack_budget(op, labels, ncv: int) -> int | None:
    """Shift-invert solve budget when ARPACK is predicted cheaper, else None.

    Only for block-diagonal Mp (the Woodbury solves), many pressure dofs per
    Lanczos vector and a skeleton that is not small (`_small_skeleton`): on
    high-order quads the dense route wins.
    """
    if (
        labels is not None
        and op.shape[0] > _DOFS_PER_LANCZOS_VECTOR * ncv
        and not _small_skeleton(op)
    ):
        return _SOLVES_PER_LANCZOS_VECTOR * ncv
    return None


def _arpack_eig_path(op, Mp, k, deflate, options, labels, ncv, budget, start=None):
    """Shift-invert Lanczos; with a budget, raises _OverBudget instead of
    running past that many shift-invert solves or failing to converge.

    The start vector is the seeded random vector r, or, with the
    eigenvectors x_j of a nearby system (`start`),
    sum_j x_j / |x_j|_Mp + 1e-3 r / |r|_Mp: close to the wanted eigenspace,
    and with a component along every eigenvector.
    """
    n = op.shape[0]
    if k >= n - 1:
        raise EigenSolverError("problem too small for the iterative path")
    # dimensionless shift left of the spectrum of the (S, Mp) pencil
    tau = 0.05
    solve_shifted = _shifted_solver(op, Mp, tau, labels)
    # Lanczos on the zero-mean subspace {m.q = 0}: c = (S + tau Mp)^{-1} m
    # is the constant mode (S c = 0, so one solve), and P x = x - c (m.x)/(m.c)
    # is the Mp-orthogonal projector onto that subspace, which the pencil
    # leaves invariant
    m = np.asarray(deflate, dtype=float)
    c = solve_shifted(m)
    mc = m @ c

    def project(x):
        return x - c * ((m @ x) / mc)

    solves = 0

    def opinv_matvec(b):
        nonlocal solves
        if budget is not None and solves >= budget:
            raise _OverBudget
        solves += 1
        return project(solve_shifted(b))

    opinv = LinearOperator((n, n), matvec=opinv_matvec, dtype=float)
    # Mp as a sparse matrix would reach ARPACK through the multi-vector
    # product, three wrapper calls deeper, once per Lanczos step
    mass = LinearOperator((n, n), matvec=lambda x: Mp @ x, dtype=float)
    rng = np.random.default_rng(options.seed)
    v0 = rng.standard_normal(n)
    if start is not None:
        norms = np.sqrt(np.einsum("ij,ij->j", start, Mp @ start))
        v0 = start @ (1.0 / norms) + 1e-3 * v0 / np.sqrt(v0 @ (Mp @ v0))
    v0 = project(v0)
    try:
        _, vecs = eigsh(
            LinearOperator(op.shape, matvec=op.apply, dtype=float),
            k=k,
            M=mass,
            sigma=-tau,
            which="LM",
            OPinv=opinv,
            v0=v0,
            ncv=ncv,
            tol=_LANCZOS_TOL,
            maxiter=_LANCZOS_RESTARTS,
        )
    except ArpackNoConvergence as exc:
        if budget is not None:
            raise _OverBudget from exc
        raise EigenSolverError(f"arpack route: {exc}") from exc
    return vecs


def smallest_generalized_eigs(
    op: SchurOperator,
    Mp,
    k: int,
    deflate: np.ndarray,
    options: SolverOptions | None = None,
    start: np.ndarray | None = None,
) -> GenEigResult:
    """k smallest eigenvalues of S q = sigma Mp q, ascending.

    The problem is restricted to the zero-mean subspace {q : m.q = 0} of
    the mean vector m (`deflate`), removing the trivial constant mode.
    Deterministic for a fixed options.seed and start.  `method` names the route whose vectors were
    returned: a budgeted ARPACK run that fell back reports "dense".  The
    ARPACK route starts from `start`, the eigenvectors of a nearby system
    (the previous point of a sweep), when they are given.
    """
    options = options or SolverOptions()
    Mp = sparse.csr_matrix(Mp)
    n = op.shape[0]
    if Mp.shape != (n, n):
        raise ValueError("Mp dimension mismatch")
    dim = n - 1
    if k < 1 or k > dim:
        raise EigenSolverError(f"k={k} outside the available dimension {dim}")
    labels = _pressure_blocks(Mp)
    ncv = _lanczos_basis_size(k, dim)
    budget = None if n > options.dense_cap else _arpack_budget(op, labels, ncv)
    method = "arpack" if n > options.dense_cap or budget is not None else "dense"
    if method == "arpack":
        try:
            vecs = _arpack_eig_path(op, Mp, k, deflate, options, labels, ncv, budget, start)
        except _OverBudget:
            method = "dense"
    if method == "dense":
        vecs = _dense_eig_path(op, Mp, k, deflate, options)
    return _finish(op, Mp, vecs, method)
