"""Static condensation of the block system and recovery of the eliminated fields.

The diagonal dual pairing D lets the gradient and multiplier unknowns
be eliminated exactly:

    K = (1-r) S + alpha C - A D^-1 B^T - B D^-1 A^T + r B D^-1 M D^-1 B^T
    F = f1 - B D^-1 f2

after which x_sigma = D^-1 B^T x_u realises the biorthogonal projection
of the gradient and x_phi = D^-1 (A^T x_u - r M x_sigma - f2) restores
the multiplier. A dense solve of the full indefinite block system is
kept as a desk-scale verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .assembly import BlockSystem
from .linsolve import CsrMatrix, dense_lu_solve, spmv


@dataclass(frozen=True)
class CondensedSystem:
    """Sparse primal system K x_u = F with its stabilisation parameters."""

    K: CsrMatrix
    F: np.ndarray
    r: float
    alpha: float

    def __post_init__(self):
        self.F.flags.writeable = False


def _check_r(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError(f"stabilisation weight r must lie in (0, 1), got {r}")


def _dinv(blocks: BlockSystem) -> np.ndarray:
    if np.any(blocks.D <= 0.0):
        raise ValueError("dual pairing has a non-positive diagonal entry; "
                         "biorthogonality is broken")
    return 1.0 / blocks.D


def condense(blocks: BlockSystem, r: float, alpha: float) -> CondensedSystem:
    """Eliminate the gradient and multiplier blocks into K x_u = F.

    With G = B D^-1 A^T and H = B D^-1 M D^-1 B^T, K = (1-r) S + alpha C
    - G - G^T + r H: B D^-1 is formed once, and K is canonicalised once.
    """
    _check_r(r)
    dinv = _dinv(blocks)

    b_dinv = blocks.B.to_scipy() @ scipy.sparse.diags(dinv)
    g = b_dinv @ blocks.A.to_scipy().T
    h = b_dinv @ blocks.M.to_scipy() @ b_dinv.T
    k = (1.0 - r) * blocks.S.to_scipy() + alpha * blocks.C.to_scipy() - g - g.T + r * h

    f = blocks.f1 - b_dinv @ blocks.f2
    return CondensedSystem(K=CsrMatrix.from_scipy(k), F=f, r=r, alpha=alpha)


def recover_sigma(blocks: BlockSystem, x_u: np.ndarray) -> np.ndarray:
    """Projected gradient coefficients x_sigma = D^-1 B^T x_u."""
    dinv = _dinv(blocks)
    return dinv * (blocks.B.to_scipy().T @ x_u)


def recover_phi(
    blocks: BlockSystem, x_u: np.ndarray, x_sigma: np.ndarray, r: float
) -> np.ndarray:
    """Multiplier coefficients making the second block equation exact."""
    dinv = _dinv(blocks)
    return dinv * (
        blocks.A.to_scipy().T @ x_u - r * spmv(blocks.M, x_sigma) - blocks.f2
    )


#: dense oracle refuses systems larger than this (5N unknowns)
_FULL_SOLVE_LIMIT = 2500


def solve_full_saddle(
    blocks: BlockSystem, r: float, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the uncondensed block system directly (verification oracle).

    Desk-scale only: builds the dense 5N x 5N operator and factorises it.
    """
    _check_r(r)
    n = blocks.n_primal
    if 5 * n > _FULL_SOLVE_LIMIT:
        raise ValueError(
            f"full saddle solve is a desk-scale oracle (5N = {5 * n} > {_FULL_SOLVE_LIMIT})"
        )

    s = blocks.S.to_dense()
    m = blocks.M.to_dense()
    a = blocks.A.to_dense()
    b = blocks.B.to_dense()
    c = blocks.C.to_dense()
    d = np.diag(blocks.D)
    zero = np.zeros((2 * n, 2 * n))

    full = np.block(
        [
            [(1.0 - r) * s + alpha * c, -a, -b],
            [-a.T, r * m, d],
            [-b.T, d, zero],
        ]
    )
    rhs = np.concatenate([blocks.f1, -blocks.f2, np.zeros(2 * n)])
    sol = dense_lu_solve(full, rhs)
    return sol[:n], sol[n : 3 * n], sol[3 * n :]
