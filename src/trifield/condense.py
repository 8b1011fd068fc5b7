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
solve of the full indefinite block system is kept as a desk-scale
verification oracle: its matrix is assembled from the stored sparse
blocks and made dense once, and LU factorises it in place.
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


#: largest structured-grid level n the dense oracle accepts: it refuses
#: block systems of more than (n+1)^2 vertices
ORACLE_MAX_LEVEL = 16


def solve_full_saddle(
    blocks: BlockSystem, r: float, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the uncondensed block system directly (verification oracle).

    Desk-scale only: the 5N x 5N operator is assembled from the sparse
    blocks and made dense once, in Fortran order, so that LU factorises
    it in place and the peak is that one matrix.
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
        ]
    )
    rhs = np.concatenate([blocks.f1(alpha), -blocks.f2, np.zeros(2 * n)])
    sol = dense_lu_solve(full.toarray(order="F"), rhs)
    return sol[:n], sol[n : 3 * n], sol[3 * n :]
