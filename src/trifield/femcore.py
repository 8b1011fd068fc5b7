"""The paper's element: its dual basis, quadrature rules and their fixed degrees.

The dual basis mu_i = 3*lambda_i - lambda_j - lambda_k is the unique
P1-spanned basis that is biorthogonal to the barycentric basis element
by element (integral of rho_i * mu_j over T equals |T|/3 * delta_ij)
while still summing to one pointwise; it is fixed, not a parameter.
There are two triangle rules, one per fixed degree the pipeline uses.
Everything here is pure. The triangle rules are stored at import, the
edge rules built on first use; each degree has one shared, read-only rule.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .mesh import Mesh

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


def dual_values(points: np.ndarray) -> np.ndarray:
    """Evaluate (mu_1, mu_2, mu_3) at barycentric points (..., 3)."""
    return np.asarray(points) @ DUAL_COEFFICIENTS.T


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or reference edge.

    Triangle points are barycentric triples and weights sum to 1/2;
    edge points live in [0,1] and weights sum to 1. The rule built for
    degree d integrates polynomials of total degree <= d exactly.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


# Symmetric rules on the reference triangle, given as barycentric orbits
# with weights normalised to sum to 1 and stored in the 1/2 convention.
def _tri_points(groups) -> QuadratureRule:
    pts, wts = [], []
    for kind, coords, w in groups:
        if kind == "sym3":
            a, b = coords
            perms = [(b, a, a), (a, b, a), (a, a, b)]
        else:  # full orbit of (a, b, c) with distinct entries
            a, b, c = coords
            perms = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
        pts.extend(perms)
        wts.extend([w] * len(perms))
    return QuadratureRule(points=np.array(pts), weights=0.5 * np.array(wts))


_TRIANGLE_RULES = {
    # midpoint rule: exact for quadratics, enough for P1 x P1 products
    2: _tri_points([("sym3", (0.5, 0.0), 1.0 / 3.0)]),
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


def triangle_quadrature(degree: int) -> QuadratureRule:
    """Symmetric rule on the reference triangle, exact to the given degree.

    Every call returns the same read-only rule, stored once per degree.
    """
    if degree not in _TRIANGLE_RULES:
        raise ValueError(
            f"unsupported triangle quadrature degree {degree}; "
            f"available: {sorted(_TRIANGLE_RULES)}"
        )
    return _TRIANGLE_RULES[degree]


@cache
def edge_quadrature(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0,1], exact to the given degree.

    Built once per degree; every call returns the same read-only rule.
    """
    if degree < 1:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    npts = degree // 2 + 1
    points, weights = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(points=0.5 * (points + 1.0), weights=0.5 * weights)


#: degrees of the rules for the matrix integrands, which are products of
#: two P1 functions (or a P1 function and a dual function) and so have
#: degree 2: these rules integrate them exactly
P1_TRI_DEGREE = 2
P1_EDGE_DEGREE = 3

#: degrees of the rules for integrals of problem data, shared by the loads
#: and the error norms: the data are not polynomials, and these rules keep
#: the error of integrating them far below the discretisation error
DATA_TRI_DEGREE = 6
DATA_EDGE_DEGREE = 5


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


def edge_points(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Physical coordinates (E, k, 2) of the edge rule points on every boundary edge."""
    pa = mesh.vertices[mesh.boundary_edges[:, 0]]
    pb = mesh.vertices[mesh.boundary_edges[:, 1]]
    return pa[:, None, :] + rule.points[None, :, None] * (pb - pa)[:, None, :]


def edge_traces(rule: QuadratureRule) -> np.ndarray:
    """Traces of the two endpoint P1 functions at the edge rule points, (k, 2)."""
    return np.column_stack([1.0 - rule.points, rule.points])
