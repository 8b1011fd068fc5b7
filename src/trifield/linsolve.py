"""Canonical sparse matrices and the linear solvers used by the pipeline.

Every sparse matrix the pipeline stores (the assembled blocks, the
condensed K and the multigrid transfers) is a `scipy.sparse.csr_array`
that has passed through `canonical()`: duplicates summed, stored zeros
dropped, column indices sorted, 32-bit indices and its arrays
read-only. The Galerkin products of these keep 32-bit indices.
Everything else is plain scipy. The conjugate-gradient solver is
written out explicitly because it must report iteration counts and
detect negative curvature (an indefinite operator signals invalid
stabilisation or penalty parameters). It is preconditioned by Jacobi or
by a geometric multigrid V-cycle on nested meshes, which applies each
fine operator once per level.
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
    initial_residual: float = 1.0  # ||b - a x0|| / ||b|| of the start; 1 from zero


def cg_solve(
    a: scipy.sparse.csr_array,
    b: np.ndarray,
    tol: float = 1e-12,
    maxit: int = 20000,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for SPD systems.

    `precond` maps a residual r to z = M^-1 r for an SPD M; None uses
    Jacobi, M = diag(a), and names it in the report. A caller passing its
    own preconditioner names it there (see `cli._solve_condensed`), and times
    its set-up. `x0` starts the iteration (None starts from zero); the
    report gives the true relative residual of the start, and a start
    that already meets `tol` returns after 0 iterations. Converged means
    ||b - a x|| / ||b|| <= tol, from any start. A true residual that
    misses `tol` replaces the recurrence one; one no smaller than at the
    last replacement has stagnated, and returns not converged. `maxit`
    caps a CG that does neither. Any finite b is solved alike, however
    tiny or large: CG iterates on b and x0 scaled by the same power of
    two, which brings b to order one. b = 0 returns x = 0 at once.
    Raises ValueError, before any work, unless a is square, b and any x0
    have one finite entry per row, and maxit is an integer >= 1.
    Returns early with indefinite=True if a search direction has
    non-positive curvature or a residual has r.z <= 0, which an SPD
    operator with an SPD preconditioner never gives.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")
    if not isinstance(maxit, (int, np.integer)) or isinstance(maxit, bool) or maxit < 1:
        raise ValueError(f"maxit must be an integer >= 1, got {maxit!r}")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: matrix {a.shape} with right-hand side {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"shape mismatch: matrix {a.shape} with start {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("start has non-finite entries")
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
            iterations, float(rel), converged, time.perf_counter() - t0, indefinite,
            label, initial_residual=float(initial),
        )

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        initial = 0.0
        return report(np.zeros_like(b), 0, 0.0, True)

    # from zero, r = b costs no product with a
    x = np.zeros_like(b) if x0 is None else np.ldexp(x0, -exponent)
    r = b.copy() if x0 is None else b - a @ x
    # a start that already solves the system has r = 0, hence r.z = 0,
    # which the loop would report as negative curvature
    initial = np.linalg.norm(r) / norm_b
    if initial <= tol:
        return report(x, 0, initial, True)
    p = None
    iterations = 0
    replaced = np.inf  # true residual norm at the last residual replacement
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
            # residual replacement restarts the search if it disagrees.
            # A true residual no smaller than at the last replacement has
            # reached the accuracy rounding allows: CG has stagnated
            r = b - a @ x
            true_norm = np.linalg.norm(r)
            converged = bool(true_norm <= tol * norm_b)
            if converged or true_norm >= replaced:
                return report(x, iterations, true_norm / norm_b, converged)
            replaced = true_norm
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
    Each level applies K_l once: the residual after the coarse
    correction P_l c is the one before it less (K_l P_l) c.
    """

    operators: tuple            # K_0 = K, K_l+1 = P_l^T K_l P_l (scipy CSR)
    inv_l1_diag: tuple          # 1 / row sums of |K_l| for every level but the last
    prolongations: tuple        # P_l: level l+1 -> level l
    restrictions: tuple         # P_l^T in CSR form
    operator_prolongations: tuple  # K_l P_l, formed for the Galerkin product
    coarse_factor: tuple        # scipy.linalg.cho_factor of the coarsest operator

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.prolongations):
            return scipy.linalg.cho_solve(self.coarse_factor, r)
        inv_d = self.inv_l1_diag[level]
        x = inv_d * r
        res = r - self.operators[level] @ x
        coarse = self._cycle(level + 1, self.restrictions[level] @ res)
        x += self.prolongations[level] @ coarse
        res -= self.operator_prolongations[level] @ coarse
        x += inv_d * res
        return x


def multigrid_preconditioner(
    k: scipy.sparse.csr_array, prolongations: Sequence[scipy.sparse.csr_array]
) -> MultigridPreconditioner:
    """Set up a V-cycle preconditioner for K from nested prolongations.

    `prolongations[l]` interpolates from level l+1 to level l, finest
    first (see `mesh.prolongation`). K and the prolongations are used as
    given, never copied; canonical ones give a hierarchy of 32-bit
    indices. The l1 row sums are read from each operator's stored values,
    so every row must hold its diagonal, as in any SPD operator. Raises
    IndefiniteOperatorError if the coarsest Galerkin operator has no
    Cholesky factor, i.e. K is not SPD.
    """
    operators = [k]
    inv_l1_diag = []
    restrictions = []
    products = []
    for p in prolongations:
        op = operators[-1]
        if p.shape[0] != op.shape[0]:
            raise ValueError(f"prolongation {p.shape} does not match operator {op.shape}")
        inv_l1_diag.append(1.0 / np.add.reduceat(np.abs(op.data), op.indptr[:-1]))
        products.append(op @ p)
        restrictions.append(canonical(p.T))
        operators.append(restrictions[-1] @ products[-1])
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
        operator_prolongations=tuple(products),
        coarse_factor=factor,
    )


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve of a dense square system by LU with partial pivoting.

    A Fortran-ordered float64 `a` is consumed: LU overwrites it in place,
    so it holds the factor afterwards. Any other `a` is copied into
    Fortran order and left as it was.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"shape mismatch: {a.shape} with rhs {b.shape}")
    # max |a_ij| without a full-size |a| temporary, read before the
    # factor overwrites a
    largest_entry = max(a.max(), -a.min())
    with warnings.catch_warnings():
        # the pivot check below turns exact singularity into an exception
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True)
    pivots = np.abs(np.diag(lu))
    if largest_entry == 0.0 or np.any(pivots < 1e-14 * largest_entry):
        raise SingularMatrixError("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), b)


def write_matrix_market(a: scipy.sparse.csr_array, path: str | Path) -> Path:
    """Write a sparse matrix in MatrixMarket coordinate/real general format.

    Every stored entry is written, so the file reads back bitwise, K
    included. Raises OSError if the file cannot be opened for writing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # opened here: given a path that is a directory, mmwrite writes nothing
    # and raises nothing
    with open(path, "wb") as stream:
        scipy.io.mmwrite(stream, a, field="real", symmetry="general")
    return path
