"""Structured triangulations of the unit square.

The grid is n x n square cells, each cut along the lower-left to
upper-right diagonal, giving 2*n^2 counterclockwise triangles. Vertices
are numbered row-major (x fastest). Boundary edges carry their owning
triangle, the outward unit normal of the square and the edge length h_e,
which the edge-wise boundary norms and the Nitsche terms need. Halving
the grid nests the triangulations, and `prolongation` gives the exact P1
interpolation between two nested levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of [0,1]^2 at refinement level n."""

    vertices: np.ndarray        # (V, 2) float
    triangles: np.ndarray       # (T, 3) int, counterclockwise
    boundary_edges: np.ndarray  # (E, 2) int, endpoint vertex indices
    boundary_owner: np.ndarray  # (E,) int, owning triangle index
    boundary_normal: np.ndarray # (E, 2) float, outward unit normal
    boundary_length: np.ndarray # (E,) float, edge length h_e
    level: int

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges,
                    self.boundary_owner, self.boundary_normal, self.boundary_length):
            arr.flags.writeable = False

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.vertices[self.triangles]  # (T, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(twice_area <= 0.0):
            raise ValueError("mesh contains a non-counterclockwise or degenerate triangle")

        grads = np.empty((self.num_triangles, 3, 2))
        # grad(lambda_a) = rot90(p_{a+2} - p_{a+1}) / (2 |T|)
        for a in range(3):
            e = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
            grads[:, a, 0] = -e[:, 1]
            grads[:, a, 1] = e[:, 0]
        grads /= twice_area[:, None, None]
        areas = 0.5 * twice_area
        areas.flags.writeable = False
        grads.flags.writeable = False
        return areas, grads

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]


@dataclass(frozen=True)
class ElementGeometry:
    """Area and barycentric-coordinate gradients of one triangle."""

    area: float
    grad_lambda: np.ndarray  # (3, 2), rows sum to zero


def build_structured_unit_square(n: int) -> Mesh:
    """Triangulate [0,1]^2 with an n x n grid of diagonally split cells."""
    if n < 1:
        raise ValueError(f"refinement level must be >= 1, got {n}")

    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cell c = j*n + i has lower-left vertex j*(n+1) + i and owns the
    # lower-right triangle 2c and the upper-left triangle 2c + 1
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    triangles = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)

    # sides in the order bottom (y = 0), right (x = 1), top (y = 1), left
    # (x = 0); edges run in the direction of increasing coordinate
    k = np.arange(n, dtype=np.int64)
    starts = np.concatenate([k, k * (n + 1) + n, n * (n + 1) + k, k * (n + 1)])
    steps = np.repeat([1, n + 1, 1, n + 1], n)
    boundary_edges = np.column_stack([starts, starts + steps])
    boundary_owner = np.concatenate([
        2 * k,                      # lower triangle of cell (k, 0)
        2 * (k * n + n - 1),        # lower triangle of cell (n-1, k)
        2 * ((n - 1) * n + k) + 1,  # upper triangle of cell (k, n-1)
        2 * (k * n) + 1,            # upper triangle of cell (0, k)
    ])
    boundary_normal = np.repeat(
        np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), n, axis=0
    )
    lengths = np.linalg.norm(
        vertices[boundary_edges[:, 1]] - vertices[boundary_edges[:, 0]], axis=1
    )

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary_edges,
        boundary_owner=boundary_owner,
        boundary_normal=boundary_normal,
        boundary_length=lengths,
        level=n,
    )


def element_geometry(mesh: Mesh, t: int) -> ElementGeometry:
    """Area and barycentric gradients of triangle t."""
    if not 0 <= t < mesh.num_triangles:
        raise IndexError(f"triangle index {t} out of range [0, {mesh.num_triangles})")
    areas, grads = all_element_geometry(mesh)
    return ElementGeometry(area=float(areas[t]), grad_lambda=grads[t])


def all_element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Areas (T,) and barycentric gradients (T, 3, 2) for every triangle.

    grad_lambda[t, a] is the constant gradient of the barycentric
    coordinate attached to local vertex a of triangle t. Computed on the
    first call and kept on the mesh; the arrays are read-only and every
    later call returns the same objects.
    """
    return mesh._geometry


def prolongation(n_coarse: int) -> scipy.sparse.csr_matrix:
    """P1 interpolation from grid n_coarse to grid 2 n_coarse, as a sparse matrix.

    Every coarse triangle is the union of four fine ones, so a coarse P1
    function is exactly P1 on the fine grid. A fine vertex on a coarse vertex
    takes its value (one entry of 1); the midpoint of a coarse horizontal,
    vertical or diagonal edge averages the two endpoints (two entries of 1/2).
    Rows are fine vertices and columns coarse ones, both numbered as in
    `build_structured_unit_square`.
    """
    if n_coarse < 1:
        raise ValueError(f"coarse refinement level must be >= 1, got {n_coarse}")
    n = 2 * n_coarse
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    i, j = i.ravel(), j.ravel()
    # the coarse endpoints of the edge through fine vertex (i, j): they run
    # along x for odd i, along y for odd j, along the lower-left to
    # upper-right diagonal for both, and coincide when i and j are even
    lower = (j // 2) * (n_coarse + 1) + i // 2
    upper = ((j + 1) // 2) * (n_coarse + 1) + (i + 1) // 2
    fine = np.arange((n + 1) ** 2)
    coo = scipy.sparse.coo_matrix(
        (np.full(2 * fine.size, 0.5), (np.concatenate([fine, fine]),
                                       np.concatenate([lower, upper]))),
        shape=((n + 1) ** 2, (n_coarse + 1) ** 2),
    )
    return coo.tocsr()  # sums the two halves on coarse vertices


def write_mesh_files(mesh: Mesh, directory: str | Path) -> tuple[Path, Path]:
    """Export plain-text node and element files for external visualisation.

    One vertex per line as "x y"; one triangle per line as "i j k" with
    zero-based indices. Returns the two paths written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_path = directory / f"mesh-n{mesh.level}.node"
    elem_path = directory / f"mesh-n{mesh.level}.ele"
    with open(node_path, "w") as fh:
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
    with open(elem_path, "w") as fh:
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
    return node_path, elem_path
