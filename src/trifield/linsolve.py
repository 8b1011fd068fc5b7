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

LAPACK (`scipy.linalg`) and MatrixMarket I/O (`scipy.io`) load on first
use: the oracle's banded LU imports `scipy.linalg`, the matrix export
`scipy.io`. A study of any size that does neither never loads them;
they hold about a seventh of a small study's peak memory.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse


class SingularMatrixError(RuntimeError):
    """Raised when a direct factorisation meets an exactly zero pivot."""


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
    own preconditioner names it there (see `cli.solve_level`), and times
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
    which is solved exactly by its stored inverse. The pre- and
    post-smoother are the same SPD matrix diag(sum_j |K_ij|), and
    diag(sum_j |K_ij|) - K is positive semidefinite by Gershgorin, so
    the cycle is an SPD preconditioner without any damping parameter.
    Each level applies K_l once: the residual after the coarse
    correction P_l c is the one before it less (K_l P_l) c.

    `levels` holds one record (K_l, 1 / row sums of |K_l|, P_l, P_l^T in
    CSR, K_l P_l) per level but the coarsest, finest first, where K_0 = K
    and K_l+1 = P_l^T (K_l P_l). Of the coarsest operator only its inverse
    is kept.
    """

    levels: tuple  # one record per level but the coarsest, finest first
    coarse_inverse: np.ndarray  # dense symmetric inverse of the coarsest operator

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse_inverse @ r
        k, inv_d, p, restriction, kp = self.levels[level]
        x = inv_d * r
        res = r - k @ x
        coarse = self._cycle(level + 1, restriction @ res)
        x += p @ coarse
        res -= kp @ coarse
        x += inv_d * res
        return x


def multigrid_preconditioner(
    k: scipy.sparse.csr_array, prolongations: Sequence[scipy.sparse.csr_array]
) -> MultigridPreconditioner:
    """Set up a V-cycle preconditioner for K from nested prolongations.

    `prolongations[l]` interpolates from level l+1 to level l, finest
    first (see `mesh.prolongation`). Each prolongation adds one record
    (K_l, 1 / row sums of |K_l|, P_l, P_l^T, K_l P_l) to the hierarchy,
    and K_l+1 = P_l^T (K_l P_l) goes on to the next. K and the
    prolongations are used as given, never copied; canonical ones give a
    hierarchy of 32-bit indices. The l1 row sums are read from each
    operator's stored values, so every row must hold its diagonal, as in
    any SPD operator. Raises IndefiniteOperatorError if the coarsest
    Galerkin operator has no Cholesky factor L, i.e. K is not SPD. That
    operator is small (at most 33^2 unknowns from
    `cli.multigrid_hierarchy`), so the V-cycle keeps only its dense
    inverse, as L^-T L^-1, which is exactly symmetric.
    """
    levels = []
    for p in prolongations:
        if p.shape[0] != k.shape[0]:
            raise ValueError(f"prolongation {p.shape} does not match operator {k.shape}")
        # |K_l| is a temporary as large as K_l's values: made before P_l^T
        # and K_l P_l exist, it keeps the set-up's peak at 0.94 times K's
        # bytes at n=64, against 1.26 when made after them
        inv_d = 1.0 / np.add.reduceat(np.abs(k.data), k.indptr[:-1])
        kp = k @ p
        restriction = canonical(p.T)
        levels.append((k, inv_d, p, restriction, kp))
        k = restriction @ kp
    try:
        factor = np.linalg.cholesky(k.toarray())
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperatorError(
            "coarsest multigrid operator is not positive definite"
        ) from exc
    inverse_factor = np.linalg.inv(factor)
    return MultigridPreconditioner(tuple(levels), inverse_factor.T @ inverse_factor)


def dense_lu_solve(a: np.ndarray | scipy.sparse.sparray, b: np.ndarray) -> np.ndarray:
    """Direct solve of a square system by banded LU with partial pivoting.

    `a` is a dense array or a `scipy.sparse` matrix; neither it nor `b`
    is changed. The bandwidths kl and ku are read from the nonzeros of
    `a`, after duplicates are summed and stored zeros dropped, and one
    LAPACK call (`dgbsv`) factorises and solves the band alone: its storage
    is (2 kl + ku + 1) x n, so a dense copy of a banded `a` is never made,
    and a sparse `a` and its dense copy give bitwise the same x. Raises
    ValueError, before LAPACK runs, unless `a` is square and non-empty,
    `b` has one row per row of `a` and both are finite. Singularity is
    LAPACK's verdict alone: an exactly zero pivot raises
    SingularMatrixError, and a nonsingular `a` is solved however badly
    scaled. The name predates the band storage and is kept while
    `perfbench/tracer.py` wraps this function by it. The first call
    loads `scipy.linalg`.
    """
    from scipy.linalg.lapack import dgbsv

    if not scipy.sparse.issparse(a):
        a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or n == 0 or b.shape[0] != n:
        raise ValueError(f"shape mismatch: {a.shape} with rhs {b.shape}")
    a = canonical(a)
    if not (np.isfinite(a.data).all() and np.isfinite(b).all()):
        raise ValueError("matrix or right-hand side has non-finite entries")
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    offset = rows - a.indices  # below the diagonal > 0, above it < 0
    kl = int(offset.max(initial=0))
    ku = int(-offset.min(initial=0))
    # LAPACK's band layout: a[i, j] sits at row kl + ku + i - j of column
    # j; the kl rows above it hold the fill that row interchanges make
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl + ku + offset, a.indices] = a.data
    x, info = dgbsv(kl, ku, band, b, overwrite_ab=True)[2:]
    if info > 0:
        raise SingularMatrixError(f"matrix is singular: pivot {info} of {n} is exactly zero")
    return x


def write_matrix_market(a: scipy.sparse.csr_array, path: str | Path) -> Path:
    """Write a sparse matrix in MatrixMarket coordinate/real general format.

    Every stored entry is written, so the file reads back bitwise, K
    included. Raises OSError if the file cannot be opened for writing.
    The first call loads `scipy.io`.
    """
    import scipy.io

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # opened here: given a path that is a directory, mmwrite writes nothing
    # and raises nothing
    with open(path, "wb") as stream:
        scipy.io.mmwrite(stream, a, field="real", symmetry="general")
    return path
