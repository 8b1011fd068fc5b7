"""Canonical sparse matrices and the linear solvers used by the pipeline.

Every sparse matrix the pipeline stores (the assembled blocks and the
condensed K) is a `scipy.sparse.csr_array` that has passed through
`canonical()`: duplicates summed, stored zeros dropped, column indices
sorted and its arrays read-only. Everything else is plain scipy. The
conjugate-gradient solver is written out explicitly because it must
report iteration counts and detect negative curvature (an indefinite
operator signals invalid stabilisation or penalty parameters). It is
preconditioned by Jacobi or by a geometric multigrid V-cycle on nested
meshes.
"""

from __future__ import annotations

import math
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


def canonical(mat) -> scipy.sparse.csr_array:
    """A canonical, read-only CSR copy of a sparse (or dense) matrix.

    Duplicates are summed, explicitly stored zeros dropped and column
    indices sorted within each row, so nnz counts true nonzeros. The
    caller's arrays are copied, never mutated or frozen. Indices are
    32-bit wherever they fit, as scipy's sparse matrices pick them:
    sparse arrays keep the 64-bit indices of the mesh's triangles, which
    would widen every product and SpMV built on the blocks.
    """
    out = scipy.sparse.csr_array(mat, copy=True)
    try:
        out.indices, out.indptr = scipy.sparse.safely_cast_index_arrays(out, np.int32)
    except ValueError:  # too large for 32-bit indices
        pass
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    for arr in (out.data, out.indices, out.indptr):
        arr.flags.writeable = False
    return out


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


def cg_solve(
    a: scipy.sparse.csr_array,
    b: np.ndarray,
    tol: float = 1e-12,
    maxit: int = 20000,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for SPD systems.

    `precond` maps a residual r to z = M^-1 r for an SPD M; None uses
    Jacobi, M = diag(a), and names it in the report. A caller passing its
    own preconditioner names it there (see `cli.solve_level`), and times
    its set-up. Converged means ||b - a x|| / ||b|| <= tol. Any finite
    b is solved alike, however tiny or large: CG iterates on b scaled
    by a power of two to order one. Raises ValueError, before any work,
    unless a is square and b has one finite entry per row.
    Returns early with indefinite=True if a search direction has
    non-positive curvature or a residual has r.z <= 0, which an SPD
    operator with an SPD preconditioner never gives.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: matrix {a.shape} with right-hand side {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    t0 = time.perf_counter()
    label = "jacobi" if precond is None else None
    if precond is None:
        diag = a.diagonal()
        inv_diag = 1.0 / np.where(diag > 0.0, diag, 1.0)  # skip non-positive entries

        def precond(res):
            return inv_diag * res

    # iterate on b / 2^e with max |b / 2^e| in [1/2, 1): inner products of
    # a tiny b underflowed to 0 (reported as indefinite) and of a huge b
    # overflowed. A power of two scales every iterate exactly, so iterates
    # and counts are unchanged for data in the normal range
    _, exponent = math.frexp(np.abs(b).max(initial=0.0))
    b = np.ldexp(b, -exponent)

    def report(x, iterations, rel, converged, indefinite=False):
        return np.ldexp(x, exponent), SolveReport(
            iterations, float(rel), converged, time.perf_counter() - t0, indefinite, label
        )

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return report(np.zeros_like(b), 0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    p = None
    iterations = 0
    while iterations < maxit:
        z = precond(r)
        rz = r @ z
        if not rz > 0.0:
            return report(x, iterations, np.linalg.norm(r) / norm_b, False, True)
        p = z.copy() if p is None else z + (rz / rz_prev) * p
        iterations += 1
        ap = a @ p
        curvature = p @ ap
        if curvature <= 0.0:
            return report(x, iterations, np.linalg.norm(r) / norm_b, False, True)
        step = rz / curvature
        x += step * p
        r -= step * ap
        rz_prev = rz
        if np.linalg.norm(r) <= tol * norm_b:
            # the recurrence residual can drift from the true one near
            # machine precision; only the true residual decides, and a
            # residual replacement restarts the search if it disagrees
            true_r = b - a @ x
            if np.linalg.norm(true_r) <= tol * norm_b:
                break
            r = true_r
            p = None

    rel = float(np.linalg.norm(b - a @ x) / norm_b)
    return report(x, iterations, rel, rel <= tol)


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
    k: scipy.sparse.csr_array, prolongations: Sequence[scipy.sparse.csr_array]
) -> MultigridPreconditioner:
    """Set up a V-cycle preconditioner for K from nested prolongations.

    `prolongations[l]` interpolates from level l+1 to level l, finest
    first (see `mesh.prolongation`). Raises IndefiniteOperatorError if the
    coarsest Galerkin operator has no Cholesky factor, i.e. K is not SPD.
    """
    operators = [k]
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


def write_matrix_market(
    a: scipy.sparse.csr_array, path: str | Path, symmetric: bool = False
) -> Path:
    """Write a sparse matrix in MatrixMarket coordinate/real format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    symmetry = "symmetric" if symmetric else "general"
    mat = scipy.sparse.tril(a) if symmetric else a
    scipy.io.mmwrite(str(path), mat, field="real", symmetry=symmetry)
    return path
