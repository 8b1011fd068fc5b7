"""Static condensation of the block system and recovery of the eliminated fields.

The diagonal dual pairing D lets the gradient and multiplier unknowns
be eliminated exactly:

    K = (1-r) S + alpha C - A D^-1 B^T - B D^-1 A^T + r B D^-1 M D^-1 B^T
    F = f1_source + alpha f1_penalty - B D^-1 f2

after which x_sigma = D^-1 B^T x_u realises the biorthogonal projection
of the gradient and D^-1 (A^T x_u - r M x_sigma - f2) restores the
multiplier coefficients. The blocks are free of r and alpha: both
weights enter here, in `condense`, `recover_phi` and
`solve_full_saddle`, so one assembly serves any (r, alpha). A direct
solve of the full indefinite block system is kept as a verification
oracle: its matrix is assembled from the stored sparse blocks, numbered
vertex by vertex so that it is banded, equilibrated by powers of two,
and factorised by LU in band storage; it is never made dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .assembly import BlockSystem
from .linsolve import canonical, dense_lu_solve


@dataclass(frozen=True)
class CondensedSystem:
    """Sparse primal system K x_u = F."""

    K: scipy.sparse.csr_array
    F: np.ndarray

    def __post_init__(self):
        self.F.flags.writeable = False


def _check_weights(r: float, alpha: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError(f"stabilisation weight r must lie in (0, 1), got {r}")
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"penalty weight must be finite and nonnegative, got {alpha}")


def condense(blocks: BlockSystem, r: float, alpha: float) -> CondensedSystem:
    """Eliminate the gradient and multiplier blocks into K x_u = F.

    With G = B D^-1 A^T and H = B D^-1 M D^-1 B^T, K = (1-r) S + alpha C
    - G - G^T + r H: B D^-1 is formed once, F and the 7-point terms come
    first, H is scaled in place and added once, and K is canonicalised
    once. Each intermediate is dropped before the next product, so the
    peak is the H product, not the sum of every term. r and alpha may be
    any weights in range: the blocks carry neither.
    """
    _check_weights(r, alpha)
    b_dinv = blocks.B @ scipy.sparse.diags_array(1.0 / blocks.D)
    f = blocks.f1(alpha) - b_dinv @ blocks.f2
    g = b_dinv @ blocks.A.T
    local = (1.0 - r) * blocks.S + alpha * blocks.C - g - g.T
    del g
    # (B D^-1 M) D^-1 B^T: the other association rounds differently
    dinv_bt = b_dinv.T.tocsr()
    b_dinv_m = b_dinv @ blocks.M
    del b_dinv
    h = b_dinv_m @ dinv_bt
    del b_dinv_m, dinv_bt
    h.data *= r
    k = h + local
    del h, local
    return CondensedSystem(K=canonical(k), F=f)


def recover_sigma(blocks: BlockSystem, x_u: np.ndarray) -> np.ndarray:
    """Projected gradient coefficients x_sigma = D^-1 B^T x_u."""
    return (1.0 / blocks.D) * (blocks.B.T @ x_u)


def recover_phi(
    blocks: BlockSystem, x_u: np.ndarray, x_sigma: np.ndarray, r: float
) -> np.ndarray:
    """Multiplier coefficients making the second block equation exact."""
    return (1.0 / blocks.D) * (blocks.A.T @ x_u - r * (blocks.M @ x_sigma) - blocks.f2)


#: largest structured-grid level n the oracle accepts: it refuses block
#: systems of more than (n+1)^2 vertices. At n = 64 the band that the LU
#: stores takes ~170 MB
ORACLE_MAX_LEVEL = 64


def solve_full_saddle(
    blocks: BlockSystem, r: float, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the uncondensed block system directly (verification oracle).

    The 5N x 5N operator is assembled from the sparse blocks and never
    made dense. Its unknowns are renumbered vertex by vertex, from
    f N + v to 5 v + f for field f of vertex v, which makes it banded
    (kl = ku = 94 at n = 16), and `dense_lu_solve` factorises the band.
    Row and column i are first scaled by the same power of two,
    2^-floor(e_i / 2) where 2^e_i bounds the largest |entry| of row i:
    exact, and it keeps the banded LU componentwise backward stable
    however far alpha C outweighs the other blocks. The solution is
    unscaled and returned in block order, as (u, sigma, phi).
    """
    _check_weights(r, alpha)
    n = blocks.n_primal
    limit = (ORACLE_MAX_LEVEL + 1) ** 2
    if n > limit:
        raise ValueError(f"full saddle solve is a desk-scale oracle (N = {n} > {limit})")

    d = scipy.sparse.diags_array(blocks.D)
    full = scipy.sparse.block_array(
        [
            [(1.0 - r) * blocks.S + alpha * blocks.C, -blocks.A, -blocks.B],
            [-blocks.A.T, r * blocks.M, d],
            [-blocks.B.T, d, None],
        ],
        format="coo",
    )
    rhs = np.concatenate([blocks.f1(alpha), -blocks.f2, np.zeros(2 * n)])
    # block index f N + v -> vertex index 5 v + f; a vector is renumbered
    # by reshape(5, n).T and back by reshape(n, 5).T
    vertex_order = np.arange(5 * n).reshape(n, 5).T.ravel()
    row, col = vertex_order[full.row], vertex_order[full.col]
    row_max = np.zeros(5 * n)
    np.maximum.at(row_max, row, np.abs(full.data))
    scale = np.ldexp(1.0, -(np.frexp(row_max)[1] // 2))
    scaled = scipy.sparse.coo_array(
        (full.data * scale[row] * scale[col], (row, col)), shape=full.shape
    )
    del full
    rhs = rhs.reshape(5, n).T.ravel()
    x = scale * dense_lu_solve(scaled, scale * rhs)
    sol = x.reshape(n, 5).T.ravel()
    return sol[:n], sol[n : 3 * n], sol[3 * n :]
