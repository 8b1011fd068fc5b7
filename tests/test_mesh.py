import numpy as np
import pytest

from trifield.mesh import (
    Mesh,
    all_element_geometry,
    build_structured_unit_square,
    element_geometry,
    prolongation,
    write_mesh_files,
)


@pytest.mark.parametrize(
    "n,triangles,vertices,edges",
    [(1, 2, 4, 4), (2, 8, 9, 8), (64, 8192, 4225, 256)],
)
def test_entity_counts(n, triangles, vertices, edges):
    mesh = build_structured_unit_square(n)
    assert mesh.num_triangles == triangles == 2 * n * n
    assert mesh.num_vertices == vertices == (n + 1) ** 2
    assert mesh.num_boundary_edges == edges == 4 * n


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        build_structured_unit_square(0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_areas_cover_unit_square(n):
    mesh = build_structured_unit_square(n)
    areas, _ = all_element_geometry(mesh)
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_boundary_lengths_sum_to_perimeter(n):
    mesh = build_structured_unit_square(n)
    assert abs(mesh.boundary_length.sum() - 4.0) < 1e-12


def test_boundary_edges_lie_on_square_boundary():
    mesh = build_structured_unit_square(5)
    for (a, b), normal in zip(mesh.boundary_edges, mesh.boundary_normal):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        # both endpoints on the same side of the square
        on_side = [
            pa[0] == pb[0] == 0.0, pa[0] == pb[0] == 1.0,
            pa[1] == pb[1] == 0.0, pa[1] == pb[1] == 1.0,
        ]
        assert any(on_side)
        assert sorted(np.abs(normal)) == [0.0, 1.0]


def test_stored_edge_length_is_endpoint_distance():
    mesh = build_structured_unit_square(7)
    dist = np.linalg.norm(
        mesh.vertices[mesh.boundary_edges[:, 1]] - mesh.vertices[mesh.boundary_edges[:, 0]],
        axis=1,
    )
    np.testing.assert_allclose(mesh.boundary_length, dist, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(mesh.boundary_length, 1.0 / 7.0, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_normals_point_outward_from_owner(n):
    mesh = build_structured_unit_square(n)
    for (a, b), owner, normal in zip(
        mesh.boundary_edges, mesh.boundary_owner, mesh.boundary_normal
    ):
        midpoint = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        centroid = mesh.vertices[mesh.triangles[owner]].mean(axis=0)
        assert normal @ (midpoint - centroid) > 0.0
        # the owning triangle actually contains the edge
        assert {a, b} <= set(mesh.triangles[owner])


def test_element_geometry_structured_area():
    mesh = build_structured_unit_square(2)
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        assert abs(geom.area - 0.125) < 1e-15


def test_element_geometry_reference_triangle():
    # hand-built single reference triangle (0,0), (1,0), (0,1)
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.empty((0, 2), dtype=np.int64),
        boundary_owner=np.empty(0, dtype=np.int64),
        boundary_normal=np.empty((0, 2)),
        boundary_length=np.empty(0),
        level=0,
    )
    geom = element_geometry(mesh, 0)
    np.testing.assert_allclose(geom.grad_lambda[0], [-1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(geom.grad_lambda[1], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(geom.grad_lambda[2], [0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_barycentric_gradients_sum_to_zero(n):
    mesh = build_structured_unit_square(n)
    _, grads = all_element_geometry(mesh)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_element_geometry_is_row_of_all_element_geometry(n):
    mesh = build_structured_unit_square(n)
    areas, grads = all_element_geometry(mesh)
    for t in sorted({0, 1, mesh.num_triangles // 2, mesh.num_triangles - 1}):
        geom = element_geometry(mesh, t)
        assert geom.area == areas[t]
        np.testing.assert_array_equal(geom.grad_lambda, grads[t])


def test_element_geometry_is_cached_and_read_only():
    mesh = build_structured_unit_square(4)
    areas, grads = all_element_geometry(mesh)
    again = all_element_geometry(mesh)
    assert again[0] is areas and again[1] is grads
    assert element_geometry(mesh, 5).grad_lambda.base is grads
    for arr in (areas, grads):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_degenerate_mesh_is_rejected_by_geometry():
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 2, 1]]),  # clockwise
        boundary_edges=np.empty((0, 2), dtype=np.int64),
        boundary_owner=np.empty(0, dtype=np.int64),
        boundary_normal=np.empty((0, 2)),
        boundary_length=np.empty(0),
        level=0,
    )
    for _ in range(2):  # a failed computation is not cached
        with pytest.raises(ValueError):
            all_element_geometry(mesh)


def loop_built_square(n):
    """Triangles and boundary data of grid n, built cell by cell and side by side."""
    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            triangles.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            triangles.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    edges = []
    for i in range(n):  # bottom, y = 0
        edges.append((vid(i, 0), vid(i + 1, 0), 2 * i, (0.0, -1.0)))
    for j in range(n):  # right, x = 1
        edges.append((vid(n, j), vid(n, j + 1), 2 * (j * n + n - 1), (1.0, 0.0)))
    for i in range(n):  # top, y = 1
        edges.append((vid(i, n), vid(i + 1, n), 2 * ((n - 1) * n + i) + 1, (0.0, 1.0)))
    for j in range(n):  # left, x = 0
        edges.append((vid(0, j), vid(0, j + 1), 2 * j * n + 1, (-1.0, 0.0)))
    return {
        "triangles": np.array(triangles, dtype=np.int64),
        "boundary_edges": np.array([e[:2] for e in edges], dtype=np.int64),
        "boundary_owner": np.array([e[2] for e in edges], dtype=np.int64),
        "boundary_normal": np.array([e[3] for e in edges], dtype=float),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_numbering_matches_loop_built_reference(n):
    # prolongation, multigrid and exported meshes rely on this numbering
    mesh = build_structured_unit_square(n)
    for name, want in loop_built_square(n).items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_element_geometry_rejects_bad_index():
    mesh = build_structured_unit_square(2)
    with pytest.raises(IndexError):
        element_geometry(mesh, 8)
    with pytest.raises(IndexError):
        element_geometry(mesh, -1)


def test_mesh_is_immutable():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_mesh_export_round_trip(tmp_path):
    mesh = build_structured_unit_square(3)
    node_path, elem_path = write_mesh_files(mesh, tmp_path)
    nodes = np.loadtxt(node_path)
    elems = np.loadtxt(elem_path, dtype=np.int64)
    np.testing.assert_allclose(nodes, mesh.vertices, rtol=0.0, atol=0.0)
    np.testing.assert_array_equal(elems, mesh.triangles)


def coarse_p1_at(coarse_values, n_coarse, points):
    """Evaluate a P1 function of grid n_coarse at points, triangle by triangle."""
    scaled = points * n_coarse
    cell = np.minimum(np.floor(scaled).astype(int), n_coarse - 1)
    fx, fy = (scaled - cell).T
    i, j = cell.T

    def value(di, dj):
        return coarse_values[(j + dj) * (n_coarse + 1) + i + di]

    # the diagonal from (0,0) to (1,1) splits each cell; below it fx >= fy
    lower = value(0, 0) + fx * (value(1, 0) - value(0, 0)) + fy * (value(1, 1) - value(1, 0))
    upper = value(0, 0) + fx * (value(1, 1) - value(0, 1)) + fy * (value(0, 1) - value(0, 0))
    return np.where(fx >= fy, lower, upper)


@pytest.mark.parametrize("n_coarse", [1, 2, 3, 8])
def test_prolongation_reproduces_linear_functions(n_coarse):
    p = prolongation(n_coarse)
    coarse = build_structured_unit_square(n_coarse).vertices
    fine = build_structured_unit_square(2 * n_coarse).vertices
    assert p.shape == (fine.shape[0], coarse.shape[0])
    for a, b, c in [(1.0, 0.0, 0.0), (0.3, -2.0, 5.0), (-1.5, 4.0, 0.25)]:
        np.testing.assert_allclose(p @ (a + b * coarse[:, 0] + c * coarse[:, 1]),
                                   a + b * fine[:, 0] + c * fine[:, 1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert sorted(set(p.data)) == [0.5, 1.0]
    assert np.diff(p.indptr).max() <= 2


@pytest.mark.parametrize("n_coarse", [1, 3, 4])
def test_prolongation_interpolates_coarse_hat_functions(n_coarse):
    # a hat function is P1 only on the coarse triangles, so this pins the
    # diagonal midpoints to the lower-left to upper-right split
    p = prolongation(n_coarse)
    fine = build_structured_unit_square(2 * n_coarse).vertices
    for vertex in range((n_coarse + 1) ** 2):
        hat = np.zeros((n_coarse + 1) ** 2)
        hat[vertex] = 1.0
        np.testing.assert_allclose(p @ hat, coarse_p1_at(hat, n_coarse, fine),
                                   rtol=0, atol=1e-14)


def test_prolongation_rejects_level_zero():
    with pytest.raises(ValueError):
        prolongation(0)
