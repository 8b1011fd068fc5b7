"""Compressed-row sparse matrices and the linear solvers used by the pipeline.

CsrMatrix is a thin immutable wrapper over the canonical CSR triple
(offsets, column indices, values); scipy.sparse does the heavy lifting
behind the module surface. The conjugate-gradient solver is written out
explicitly because it must report iteration counts and detect negative
curvature (an indefinite operator signals invalid stabilisation or
penalty parameters). It is preconditioned by Jacobi or by a geometric
multigrid V-cycle on nested meshes.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse


class SingularMatrixError(RuntimeError):
    """Raised when a direct factorisation meets a negligible pivot."""


@dataclass(frozen=True)
class CsrMatrix:
    """Sparse matrix in compressed-row form.

    Invariants: offsets nondecreasing with offsets[-1] == nnz, column
    indices strictly increasing within each row, and no explicitly
    stored zeros.
    """

    offsets: np.ndarray  # (rows + 1,) int
    indices: np.ndarray  # (nnz,) int
    values: np.ndarray   # (nnz,) float
    shape: tuple[int, int]

    def __post_init__(self):
        self.offsets.flags.writeable = False
        self.indices.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def nnz(self) -> int:
        return int(self.offsets[-1])

    @classmethod
    def from_scipy(cls, mat) -> CsrMatrix:
        # copy so canonicalisation never mutates (or freezes) caller arrays
        mat = scipy.sparse.csr_matrix(mat, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        return cls(
            offsets=mat.indptr.astype(np.int64),
            indices=mat.indices.astype(np.int64),
            values=mat.data.astype(float),
            shape=mat.shape,
        )

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> CsrMatrix:
        coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape)
        return cls.from_scipy(coo)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> CsrMatrix:
        return cls.from_scipy(scipy.sparse.csr_matrix(np.asarray(arr, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> CsrMatrix:
        return cls.from_scipy(scipy.sparse.identity(n, format="csr"))

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.values, self.indices, self.offsets), shape=self.shape
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def diagonal(self) -> np.ndarray:
        return self.to_scipy().diagonal()


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve."""

    iterations: int
    relative_residual: float
    converged: bool
    wall_time: float  # seconds in the solve, including the preconditioner set-up
    indefinite: bool = False
    preconditioner: str | None = None  # "jacobi", "multigrid"; None if unnamed
    mg_levels: int = 0  # levels of the multigrid hierarchy; 0 without one


def spmv(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product a @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],):
        raise ValueError(f"shape mismatch: {a.shape} @ {x.shape}")
    return a.to_scipy() @ x


def transpose(a: CsrMatrix) -> CsrMatrix:
    return CsrMatrix.from_scipy(a.to_scipy().T)


def sparse_triple_product(a: CsrMatrix, dinv: np.ndarray, b: CsrMatrix) -> CsrMatrix:
    """Compute a @ diag(dinv) @ b.T as a sparse matrix."""
    dinv = np.asarray(dinv, dtype=float)
    if a.shape[1] != dinv.shape[0] or b.shape[1] != dinv.shape[0]:
        raise ValueError(
            f"shape mismatch in triple product: {a.shape}, diag {dinv.shape}, {b.shape}"
        )
    scaled = a.to_scipy() @ scipy.sparse.diags(dinv)
    return CsrMatrix.from_scipy(scaled @ b.to_scipy().T)


def add_scaled(alpha: float, a: CsrMatrix, beta: float, b: CsrMatrix) -> CsrMatrix:
    """Compute alpha * a + beta * b."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} + {b.shape}")
    return CsrMatrix.from_scipy(alpha * a.to_scipy() + beta * b.to_scipy())


def cg_solve(
    a: CsrMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    maxit: int = 20000,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for SPD systems.

    `precond` maps a residual r to z = M^-1 r for an SPD M; None uses
    Jacobi, M = diag(a), and names it in the report. A caller passing its
    own preconditioner names it there (see `cli.solve_level`), and times
    its set-up. Converged means ||b - a x|| / ||b|| <= tol.
    Returns early with indefinite=True if a search direction has
    non-positive curvature or a residual has r.z <= 0, which an SPD
    operator with an SPD preconditioner never gives.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    mat = a.to_scipy()
    t0 = time.perf_counter()
    label = "jacobi" if precond is None else None
    if precond is None:
        diag = mat.diagonal()
        inv_diag = 1.0 / np.where(diag > 0.0, diag, 1.0)  # skip non-positive entries

        def precond(res):
            return inv_diag * res

    def report(iterations, rel, converged, indefinite=False):
        return SolveReport(iterations, float(rel), converged, time.perf_counter() - t0,
                           indefinite, label)

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), report(0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    p = None
    iterations = 0
    while iterations < maxit:
        z = precond(r)
        rz = r @ z
        if not rz > 0.0:
            return x, report(iterations, np.linalg.norm(r) / norm_b, False, True)
        p = z.copy() if p is None else z + (rz / rz_prev) * p
        iterations += 1
        ap = mat @ p
        curvature = p @ ap
        if curvature <= 0.0:
            return x, report(iterations, np.linalg.norm(r) / norm_b, False, True)
        step = rz / curvature
        x += step * p
        r -= step * ap
        rz_prev = rz
        if np.linalg.norm(r) <= tol * norm_b:
            # the recurrence residual can drift from the true one near
            # machine precision; only the true residual decides, and a
            # residual replacement restarts the search if it disagrees
            true_r = b - mat @ x
            if np.linalg.norm(true_r) <= tol * norm_b:
                break
            r = true_r
            p = None

    rel = float(np.linalg.norm(b - mat @ x) / norm_b)
    return x, report(iterations, rel, rel <= tol)


class IndefiniteOperatorError(RuntimeError):
    """Raised when a multigrid hierarchy meets a coarse operator that is not SPD."""


@dataclass(frozen=True)
class MultigridPreconditioner:
    """Symmetric V-cycle on a hierarchy of Galerkin operators, finest first.

    Calling it with a residual r returns one V-cycle's approximation of
    K^-1 r from a zero initial guess: one l1-Jacobi sweep before and one
    after the coarse-grid correction on every level but the coarsest,
    which is solved exactly by its Cholesky factor. The pre- and
    post-smoother are the same SPD matrix diag(sum_j |K_ij|), and
    diag(sum_j |K_ij|) - K is positive semidefinite by Gershgorin, so
    the cycle is an SPD preconditioner without any damping parameter.
    """

    operators: tuple            # K_0 = K, K_l+1 = P_l^T K_l P_l (scipy CSR)
    inv_l1_diag: tuple          # 1 / row sums of |K_l| for every level but the last
    prolongations: tuple        # P_l: level l+1 -> level l
    restrictions: tuple         # P_l^T in CSR form
    coarse_factor: tuple        # scipy.linalg.cho_factor of the coarsest operator

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.prolongations):
            return scipy.linalg.cho_solve(self.coarse_factor, r)
        k = self.operators[level]
        inv_d = self.inv_l1_diag[level]
        x = inv_d * r
        coarse = self._cycle(level + 1, self.restrictions[level] @ (r - k @ x))
        x += self.prolongations[level] @ coarse
        x += inv_d * (r - k @ x)
        return x


def multigrid_preconditioner(
    k: CsrMatrix, prolongations: Sequence[scipy.sparse.spmatrix]
) -> MultigridPreconditioner:
    """Set up a V-cycle preconditioner for K from nested prolongations.

    `prolongations[l]` interpolates from level l+1 to level l, finest
    first (see `mesh.prolongation`). Raises IndefiniteOperatorError if the
    coarsest Galerkin operator has no Cholesky factor, i.e. K is not SPD.
    """
    operators = [k.to_scipy()]
    prolongations = [scipy.sparse.csr_matrix(p) for p in prolongations]
    restrictions = []
    for p in prolongations:
        if p.shape[0] != operators[-1].shape[0]:
            raise ValueError(
                f"prolongation {p.shape} does not match operator {operators[-1].shape}"
            )
        restriction = p.T.tocsr()
        operators.append(restriction @ (operators[-1] @ p))
        restrictions.append(restriction)
    inv_l1_diag = [1.0 / np.asarray(abs(op).sum(axis=1)).ravel() for op in operators[:-1]]
    try:
        factor = scipy.linalg.cho_factor(operators[-1].toarray())
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperatorError(
            "coarsest multigrid operator is not positive definite"
        ) from exc
    return MultigridPreconditioner(
        operators=tuple(operators),
        inv_l1_diag=tuple(inv_l1_diag),
        prolongations=tuple(prolongations),
        restrictions=tuple(restrictions),
        coarse_factor=factor,
    )


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve of a dense square system by LU with partial pivoting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"shape mismatch: {a.shape} with rhs {b.shape}")
    with warnings.catch_warnings():
        # the pivot check below turns exact singularity into an exception
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    row_scale = np.abs(a).max(axis=1).max()
    pivots = np.abs(np.diag(lu))
    if row_scale == 0.0 or np.any(pivots < 1e-14 * row_scale):
        raise SingularMatrixError("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), b)


def write_matrix_market(a: CsrMatrix, path: str | Path, symmetric: bool = False) -> Path:
    """Write a CsrMatrix in MatrixMarket coordinate/real format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    symmetry = "symmetric" if symmetric else "general"
    mat = a.to_scipy()
    if symmetric:
        mat = scipy.sparse.tril(mat)
    scipy.io.mmwrite(str(path), mat, field="real", symmetry=symmetry)
    return path
