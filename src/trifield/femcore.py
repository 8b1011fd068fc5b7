"""P1 shape functions, the biorthogonal dual basis, and quadrature rules.

The dual basis mu_i = 3*lambda_i - lambda_j - lambda_k is the unique
P1-spanned basis that is biorthogonal to the barycentric basis element
by element (integral of rho_i * mu_j over T equals |T|/3 * delta_ij)
while still summing to one pointwise. Everything here is pure; the
quadrature rules are built once per degree and shared, read-only.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .mesh import ElementGeometry, Mesh

#: mu_i expressed in the barycentric monomials: row i holds the
#: coefficients of (lambda_1, lambda_2, lambda_3) in mu_i.
DUAL_COEFFICIENTS = np.array(
    [
        [3.0, -1.0, -1.0],
        [-1.0, 3.0, -1.0],
        [-1.0, -1.0, 3.0],
    ]
)
DUAL_COEFFICIENTS.flags.writeable = False


@dataclass(frozen=True)
class DualBasis:
    """Element-local dual basis, optionally rescaled by a positive factor."""

    coefficients: np.ndarray = field(default_factory=lambda: DUAL_COEFFICIENTS)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate (mu_1, mu_2, mu_3) at barycentric points (..., 3)."""
        return np.asarray(points) @ self.coefficients.T

    def scaled(self, gamma: float) -> DualBasis:
        if gamma <= 0.0:
            raise ValueError("dual basis scaling must be positive")
        return DualBasis(coefficients=gamma * np.asarray(self.coefficients))


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or reference edge.

    Triangle points are barycentric triples and weights sum to 1/2;
    edge points live in [0,1] and weights sum to 1. A rule of degree d
    integrates polynomials of total degree <= d exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


def p1_shape(points: np.ndarray) -> np.ndarray:
    """P1 shape values at barycentric points: the coordinates themselves."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (3,):
        raise ValueError(f"barycentric points need 3 coordinates, got shape {points.shape}")
    if not (np.all(points >= -1e-12) and np.allclose(points.sum(axis=-1), 1.0)):
        raise ValueError("barycentric points must be nonnegative and sum to 1")
    return points


def p1_grad(geom: ElementGeometry) -> np.ndarray:
    """Constant P1 shape gradients (3, 2) on the element."""
    return geom.grad_lambda


def dual_basis_values(points: np.ndarray, basis: DualBasis | None = None) -> np.ndarray:
    """Dual basis values mu_i = 3*lambda_i - lambda_j - lambda_k at (..., 3) points."""
    return (basis or DualBasis()).values(points)


# Symmetric rules on the reference triangle, stored as barycentric points
# with weights normalised to sum to 1; scaled to the 1/2 convention below.
def _tri_points(groups):
    pts, wts = [], []
    for kind, coords, w in groups:
        if kind == "center":
            perms = [(coords[0],) * 3]
        elif kind == "sym3":
            a, b = coords
            perms = [(b, a, a), (a, b, a), (a, a, b)]
        else:  # full orbit of (a, b, c) with distinct entries
            a, b, c = coords
            perms = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
        pts.extend(perms)
        wts.extend([w] * len(perms))
    return np.array(pts), np.array(wts)


_TRIANGLE_RULES = {
    # midpoint rule: exact for quadratics, enough for P1 x P1 products
    2: _tri_points([("sym3", (0.5, 0.0), 1.0 / 3.0)]),
    4: _tri_points(
        [
            ("sym3", (0.445948490915965, 0.108103018168070), 0.223381589678011),
            ("sym3", (0.091576213509771, 0.816847572980459), 0.109951743655322),
        ]
    ),
    6: _tri_points(
        [
            ("sym3", (0.063089014491502, 0.873821971016996), 0.050844906370207),
            ("sym3", (0.249286745170910, 0.501426509658179), 0.116786275726379),
            (
                "sym6",
                (0.310352451033785, 0.053145049844816, 0.636502499121399),
                0.082851075618374,
            ),
        ]
    ),
}


@cache
def triangle_quadrature(degree: int) -> QuadratureRule:
    """Symmetric rule on the reference triangle, exact to the given degree.

    Built once per degree; every call returns the same read-only rule.
    """
    if degree not in _TRIANGLE_RULES:
        raise ValueError(
            f"unsupported triangle quadrature degree {degree}; "
            f"available: {sorted(_TRIANGLE_RULES)}"
        )
    points, weights = _TRIANGLE_RULES[degree]
    return QuadratureRule(points=points.copy(), weights=0.5 * weights, degree=degree)


@cache
def edge_quadrature(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0,1], exact to the given degree.

    Built once per degree; every call returns the same read-only rule.
    """
    if degree < 1:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    npts = degree // 2 + 1
    points, weights = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(
        points=0.5 * (points + 1.0), weights=0.5 * weights, degree=2 * npts - 1
    )


#: triangles per block of `quadrature_blocks`. Evaluating a field on all
#: points of a large mesh at once makes every numpy temporary a multi-MB
#: array that misses cache; blocks keep them cache-sized. On example 2 at
#: n=256 (degree 6, one BLAS thread, fastest of 9 interleaved rounds, two
#: runs), the load integral plus the three error norms took 250-259 ms in
#: blocks of 512, 237-267 of 1024, 240-265 of 2048, 226-254 of 4096,
#: 249-290 of 8192, and 511-670 ms in one block. 1024-4096 are level
#: within the noise; 2048 keeps every level n <= 32 in one block.
QUADRATURE_BLOCK = 2048


def quadrature_blocks(
    mesh: Mesh, rule: QuadratureRule
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Physical coordinates of the rule points, block by block of triangles.

    Yields (blk, x, y) for consecutive blocks of at most QUADRATURE_BLOCK
    triangles: blk is the slice of `mesh.triangles` and x, y are
    contiguous (len(blk), q) arrays of the coordinates of the q rule
    points on each of its triangles. A mesh with at most one block
    yields all triangles at once.
    """
    tri = mesh.triangles
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    to_points = rule.points.T
    for start in range(0, len(tri), QUADRATURE_BLOCK):
        blk = slice(start, start + QUADRATURE_BLOCK)
        corners = tri[blk]
        yield blk, vx[corners] @ to_points, vy[corners] @ to_points
