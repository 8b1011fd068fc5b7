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

    def vid(i: int, j: int) -> int:
        return j * (n + 1) + i

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    t = 0
    for j in range(n):
        for i in range(n):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            triangles[t] = (v00, v10, v11)      # lower-right triangle
            triangles[t + 1] = (v00, v11, v01)  # upper-left triangle
            t += 2

    def lower_tri(i: int, j: int) -> int:
        return 2 * (j * n + i)

    def upper_tri(i: int, j: int) -> int:
        return 2 * (j * n + i) + 1

    edges = []
    for i in range(n):  # bottom, y = 0
        edges.append((vid(i, 0), vid(i + 1, 0), lower_tri(i, 0), (0.0, -1.0)))
    for j in range(n):  # right, x = 1
        edges.append((vid(n, j), vid(n, j + 1), lower_tri(n - 1, j), (1.0, 0.0)))
    for i in range(n):  # top, y = 1
        edges.append((vid(i, n), vid(i + 1, n), upper_tri(i, n - 1), (0.0, 1.0)))
    for j in range(n):  # left, x = 0
        edges.append((vid(0, j), vid(0, j + 1), upper_tri(0, j), (-1.0, 0.0)))

    boundary_edges = np.array([(a, b) for a, b, _, _ in edges], dtype=np.int64)
    boundary_owner = np.array([o for _, _, o, _ in edges], dtype=np.int64)
    boundary_normal = np.array([nv for _, _, _, nv in edges], dtype=float)
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
    coordinate attached to local vertex a of triangle t.
    """
    p = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(twice_area <= 0.0):
        raise ValueError("mesh contains a non-counterclockwise or degenerate triangle")

    grads = np.empty((mesh.num_triangles, 3, 2))
    # grad(lambda_a) = rot90(p_{a+2} - p_{a+1}) / (2 |T|)
    for a in range(3):
        e = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
        grads[:, a, 0] = -e[:, 1]
        grads[:, a, 1] = e[:, 0]
    grads /= twice_area[:, None, None]
    return 0.5 * twice_area, grads


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
