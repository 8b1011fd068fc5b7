"""Triangulations of the unit square.

A mesh is its vertices and counterclockwise triangles. The structured
grid is n x n square cells, each cut along the lower-left to upper-right
diagonal, giving 2*n^2 triangles with vertices numbered row-major (x
fastest). The element geometry (`areas`, `gradients`), the P1 sparsity
pattern that assembly sums onto (`p1_pattern`), and the boundary edges
with their outward unit normals and lengths h_e (which the edge-wise
boundary norms and the Nitsche terms need) are read-only attributes,
derived from the triangles once per mesh, on first use.
Halving the grid nests the triangulations, and `prolongation` gives the
exact P1 interpolation between two nested levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse

from .linsolve import canonical


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation of [0,1]^2 at refinement level n.

    Meshes compare and hash by identity: two meshes with equal arrays are
    still two objects, each with its own derived data.
    """

    vertices: np.ndarray   # (V, 2) float
    triangles: np.ndarray  # (T, 3) int, counterclockwise
    level: int

    # derived from the triangles on first use, read-only
    boundary_edges = property(lambda self: self._boundary[0])   # (E, 2) int, ccw in triangle
    boundary_normal = property(lambda self: self._boundary[1])  # (E, 2) float, outward unit
    boundary_length = property(lambda self: self._boundary[2])  # (E,) float, edge length h_e

    def __post_init__(self):
        for arr in (self.vertices, self.triangles):
            arr.flags.writeable = False

    @cached_property
    def areas(self) -> np.ndarray:
        """Area of every triangle, (T,); raises ValueError unless all are
        positive, i.e. every triangle is counterclockwise and nondegenerate."""
        # (T, 3, 2); np.take gathers these rows ~6x faster than fancy indexing
        # (numpy 2.4, n=256: 0.9 against 6.3 ms)
        p = np.take(self.vertices, self.triangles, axis=0)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(twice_area <= 0.0):
            raise ValueError("mesh contains a non-counterclockwise or degenerate triangle")
        areas = 0.5 * twice_area
        areas.flags.writeable = False
        return areas

    @cached_property
    def gradients(self) -> np.ndarray:
        """Barycentric gradients (T, 3, 2): row [t, a] is the constant
        gradient of the barycentric coordinate of local vertex a of triangle t."""
        p = np.take(self.vertices, self.triangles, axis=0)
        grads = np.empty((self.num_triangles, 3, 2))
        # grad(lambda_a) = rot90(p_{a+2} - p_{a+1}) / (2 |T|)
        for a in range(3):
            e = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
            grads[:, a, 0] = -e[:, 1]
            grads[:, a, 1] = e[:, 0]
        grads /= (2.0 * self.areas)[:, None, None]
        grads.flags.writeable = False
        return grads

    @cached_property
    def p1_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR pattern (indptr, indices) of the P1 vertex adjacency, and the slot map.

        Row i holds every vertex that shares a triangle with vertex i,
        itself included, with column indices sorted. slot[9t + 3a + b] is
        the index into the pattern's data of the entry coupling local
        vertices a and b of triangle t, so an element matrix array
        (T, 3, 3) assembles as `np.bincount(slot, local.ravel(),
        minlength=indices.size)`, which sums the contributions to each
        entry in element order. Entries that cancel stay in the pattern as
        stored zeros. Built for any triangulation; the arrays are int32.
        """
        nvert = self.num_vertices
        tri = self.triangles.astype(np.int64, copy=False)
        # key of local entry (t, a, b) at flat index 9t + 3a + b
        keys = (tri[:, :, None] * nvert + tri[:, None, :]).ravel()
        order = np.argsort(keys, kind="stable")  # faster than quicksort here
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        slot = np.empty(keys.size, dtype=np.int32)
        slot[order] = np.cumsum(first, dtype=np.int32) - 1
        keys = keys[first]
        indices = (keys % nvert).astype(np.int32)
        indptr = np.zeros(nvert + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // nvert, minlength=nvert), out=indptr[1:])
        for arr in (indptr, indices, slot):
            arr.flags.writeable = False
        return indptr, indices, slot

    @cached_property
    def _boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self.areas  # outward normals need counterclockwise triangles
        _, indices, slot = self.p1_pattern
        slot = slot.reshape(-1, 9)
        # the edge a -> b of a triangle is interior when another triangle
        # has the edge b -> a: mark the pattern entries (b, a) of all the
        # local edges (0, 1), (1, 2), (2, 0), then look up the entries (a, b)
        reversed_seen = np.zeros(indices.size, dtype=bool)
        reversed_seen[slot[:, [3, 7, 2]]] = True
        t, k = np.nonzero(~reversed_seen[slot[:, [1, 5, 6]]])
        edges = np.column_stack([self.triangles[t, k], self.triangles[t, (k + 1) % 3]])
        pa, pb = self.vertices[edges[:, 0]], self.vertices[edges[:, 1]]
        lengths = np.linalg.norm(pb - pa, axis=1)
        # (dy, -dx) / h_e, with -dx as x_a - x_b so that no zero is negative
        normals = np.column_stack([pb[:, 1] - pa[:, 1], pa[:, 0] - pb[:, 0]])
        normals /= lengths[:, None]
        for arr in (edges, normals, lengths):
            arr.flags.writeable = False
        return edges, normals, lengths

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


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

    return Mesh(vertices=vertices, triangles=triangles, level=n)


def prolongation(n_coarse: int) -> scipy.sparse.csr_array:
    """P1 interpolation from grid n_coarse to grid 2 n_coarse, as a sparse matrix.

    Every coarse triangle is the union of four fine ones, so a coarse P1
    function is exactly P1 on the fine grid. A fine vertex on a coarse vertex
    takes its value (one entry of 1); the midpoint of a coarse horizontal,
    vertical or diagonal edge averages the two endpoints (two entries of 1/2).
    Rows are fine vertices and columns coarse ones, both numbered as in
    `build_structured_unit_square`. The matrix is canonical (see
    `linsolve.canonical`): 32-bit indices and read-only arrays.
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
    coo = scipy.sparse.coo_array(
        (np.full(2 * fine.size, 0.5), (np.concatenate([fine, fine]),
                                       np.concatenate([lower, upper]))),
        shape=((n + 1) ** 2, (n_coarse + 1) ** 2),
    )
    return canonical(coo)  # sums the two halves on coarse vertices


def write_mesh_files(mesh: Mesh, directory: str | Path) -> tuple[Path, Path]:
    """Export plain-text node and element files for external visualisation.

    One vertex per line as "x y"; one triangle per line as "i j k" with
    zero-based indices. Returns the two paths written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_path = directory / f"mesh-n{mesh.level}.node"
    elem_path = directory / f"mesh-n{mesh.level}.ele"
    node_path.write_text("".join(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()))
    elem_path.write_text("".join(f"{i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()))
    return node_path, elem_path
