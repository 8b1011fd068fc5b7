import numpy as np
import pytest
import scipy.sparse

from trifield.linsolve import canonical
from trifield.mesh import Mesh, build_structured_unit_square, prolongation, write_mesh_files


@pytest.mark.parametrize(
    "n,triangles,vertices,edges",
    [(1, 2, 4, 4), (2, 8, 9, 8), (64, 8192, 4225, 256)],
)
def test_entity_counts(n, triangles, vertices, edges):
    mesh = build_structured_unit_square(n)
    assert mesh.num_triangles == triangles == 2 * n * n
    assert mesh.num_vertices == vertices == (n + 1) ** 2
    assert len(mesh.boundary_edges) == edges == 4 * n


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        build_structured_unit_square(0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_areas_cover_unit_square(n):
    mesh = build_structured_unit_square(n)
    areas = mesh.areas
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


def counterclockwise_edges(mesh):
    """Every directed edge a -> b of the triangles, mapped to its triangle."""
    return {(a, b): t for t, tri in enumerate(mesh.triangles.tolist())
            for a, b in zip(tri, tri[1:] + tri[:1])}


@pytest.mark.parametrize("n", [1, 2, 5])
def test_normals_point_outward_from_owner(n):
    mesh = build_structured_unit_square(n)
    directed = counterclockwise_edges(mesh)
    for (a, b), normal in zip(mesh.boundary_edges.tolist(), mesh.boundary_normal):
        # the edge runs counterclockwise in exactly one triangle, and no
        # triangle holds it the other way round
        assert (b, a) not in directed
        owner = directed[a, b]
        midpoint = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        centroid = mesh.vertices[mesh.triangles[owner]].mean(axis=0)
        assert normal @ (midpoint - centroid) > 0.0


def test_reference_triangle_boundary():
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        level=0,
    )
    np.testing.assert_array_equal(mesh.boundary_edges, [[0, 1], [1, 2], [2, 0]])
    np.testing.assert_allclose(
        mesh.boundary_normal, [[0.0, -1.0], [1.0, 1.0] / np.sqrt(2.0), [-1.0, 0.0]],
        rtol=0.0, atol=1e-15,
    )
    np.testing.assert_allclose(mesh.boundary_length, [1.0, np.sqrt(2.0), 1.0],
                               rtol=1e-15, atol=0.0)


def test_boundary_arrays_are_cached_and_read_only():
    mesh = build_structured_unit_square(3)
    for name in ("boundary_edges", "boundary_normal", "boundary_length"):
        arr = getattr(mesh, name)
        assert getattr(mesh, name) is arr, name
        with pytest.raises(ValueError):
            arr[0] = 0


def test_element_geometry_structured_area():
    mesh = build_structured_unit_square(2)
    areas = mesh.areas
    assert areas.shape == (mesh.num_triangles,)
    np.testing.assert_allclose(areas, 0.125, rtol=0, atol=1e-15)


def test_element_geometry_reference_triangle():
    # hand-built single reference triangle (0,0), (1,0), (0,1)
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        level=0,
    )
    areas, grads = mesh.areas, mesh.gradients
    assert areas[0] == 0.5
    np.testing.assert_allclose(grads[0, 0], [-1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(grads[0, 1], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(grads[0, 2], [0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_barycentric_gradients_sum_to_zero(n):
    mesh = build_structured_unit_square(n)
    grads = mesh.gradients
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_element_geometry_rows_match_each_triangle(n):
    # row t against the geometry of triangle t computed on its own: the
    # barycentric gradients are the rows of the inverse edge-vector matrix
    mesh = build_structured_unit_square(n)
    areas, grads = mesh.areas, mesh.gradients
    for t in sorted({0, 1, mesh.num_triangles // 2, mesh.num_triangles - 1}):
        p0, p1, p2 = mesh.vertices[mesh.triangles[t]]
        jac = np.column_stack([p1 - p0, p2 - p0])
        assert abs(areas[t] - 0.5 * np.linalg.det(jac)) < 1e-15
        inv = np.linalg.inv(jac)  # rows: grad lambda_1, grad lambda_2
        want = np.vstack([-inv.sum(axis=0), inv])
        np.testing.assert_allclose(grads[t], want, rtol=1e-13, atol=1e-12)


def test_element_geometry_is_cached_and_read_only():
    mesh = build_structured_unit_square(4)
    areas, grads = mesh.areas, mesh.gradients
    assert mesh.areas is areas and mesh.gradients is grads
    for arr in (areas, grads):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def clockwise_triangle():
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 2, 1]]),
        level=0,
    )


def test_degenerate_mesh_is_rejected_by_geometry():
    mesh = clockwise_triangle()
    for name in ("areas", "gradients", "areas"):  # a failed computation is not cached
        with pytest.raises(ValueError, match="counterclockwise"):
            getattr(mesh, name)


@pytest.mark.parametrize("name", ["boundary_edges", "boundary_normal", "boundary_length"])
def test_clockwise_mesh_has_no_boundary(name):
    # reversed triangles would otherwise get inward "outward" normals
    mesh = clockwise_triangle()
    for _ in range(2):
        with pytest.raises(ValueError, match="counterclockwise"):
            getattr(mesh, name)


def test_p1_pattern_is_cached_read_only_and_sorted():
    mesh = build_structured_unit_square(5)
    indptr, indices, slot = mesh.p1_pattern
    assert all(x is y for x, y in zip(mesh.p1_pattern, (indptr, indices, slot)))
    for arr in (indptr, indices, slot):
        assert arr.dtype == np.int32
        with pytest.raises(ValueError):
            arr[0] = 1
    assert slot.shape == (9 * mesh.num_triangles,)
    assert indptr[0] == 0 and indptr[-1] == indices.size
    for i in range(mesh.num_vertices):
        row = indices[indptr[i]:indptr[i + 1]]
        assert np.all(np.diff(row) > 0), i
        assert i in row, i


def shuffled(mesh, seed):
    """The same triangulation with its triangles permuted and each one's
    vertices cyclically rotated (orientation kept)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_triangles)
    shift = rng.integers(0, 3, mesh.num_triangles)
    local = (np.arange(3)[None, :] + shift[:, None]) % 3
    triangles = np.take_along_axis(mesh.triangles[perm], local, axis=1)
    return Mesh(vertices=mesh.vertices, triangles=triangles, level=mesh.level)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [None, 0])
def test_p1_slot_map_round_trips(n, seed):
    # the slot of entry id 9t + 3a + b holds (tri[t, a], tri[t, b]), and
    # scattering the entry ids through the slot map hits every pattern
    # entry: the pattern is exactly the vertex adjacency, whatever the
    # order of the triangles and of their vertices
    mesh = build_structured_unit_square(n)
    if seed is not None:
        structured = mesh.p1_pattern
        mesh = shuffled(mesh, seed)
    indptr, indices, slot = mesh.p1_pattern
    if seed is not None:
        np.testing.assert_array_equal(indptr, structured[0])
        np.testing.assert_array_equal(indices, structured[1])
    entry = np.arange(slot.size)
    t, a, b = entry // 9, entry // 3 % 3, entry % 3
    rows = np.repeat(np.arange(mesh.num_vertices), np.diff(indptr))
    np.testing.assert_array_equal(rows[slot], mesh.triangles[t, a])
    np.testing.assert_array_equal(indices[slot], mesh.triangles[t, b])
    owner = np.full(indices.size, -1)
    owner[slot] = entry
    assert np.all(owner >= 0)


def loop_built_square(n):
    """Triangles of grid n built cell by cell, and its boundary edges built
    side by side as {undirected edge: outward normal}."""
    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            triangles.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            triangles.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    boundary = {}
    for k in range(n):
        boundary[frozenset((vid(k, 0), vid(k + 1, 0)))] = (0.0, -1.0)  # bottom
        boundary[frozenset((vid(n, k), vid(n, k + 1)))] = (1.0, 0.0)   # right
        boundary[frozenset((vid(k, n), vid(k + 1, n)))] = (0.0, 1.0)   # top
        boundary[frozenset((vid(0, k), vid(0, k + 1)))] = (-1.0, 0.0)  # left
    return np.array(triangles, dtype=np.int64), boundary


def boundary_of(mesh):
    """The mesh's boundary as {undirected edge: outward normal}."""
    return {frozenset(e): tuple(normal) for e, normal in
            zip(mesh.boundary_edges.tolist(), mesh.boundary_normal.tolist())}


@pytest.mark.parametrize("n", range(1, 7))
def test_numbering_matches_loop_built_reference(n):
    # prolongation, multigrid and exported meshes rely on this numbering
    mesh = build_structured_unit_square(n)
    triangles, boundary = loop_built_square(n)
    assert mesh.triangles.dtype == triangles.dtype
    np.testing.assert_array_equal(mesh.triangles, triangles)
    assert len(mesh.boundary_edges) == len(boundary)
    assert boundary_of(mesh) == boundary
    np.testing.assert_allclose(mesh.boundary_length, 1.0 / n, rtol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_does_not_depend_on_triangle_order(seed):
    mesh = build_structured_unit_square(5)
    other = shuffled(mesh, seed)
    assert boundary_of(other) == boundary_of(mesh)
    directed = counterclockwise_edges(other)
    assert all(tuple(e) in directed for e in other.boundary_edges.tolist())


def test_jittered_interior_keeps_the_structured_boundary():
    n = 8
    mesh = build_structured_unit_square(n)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(3)
    vertices[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    jittered = Mesh(vertices=vertices, triangles=mesh.triangles, level=n)
    assert np.all(jittered.areas > 0.0)
    assert boundary_of(jittered) == loop_built_square(n)[1]
    np.testing.assert_allclose(jittered.boundary_length, 1.0 / n, rtol=1e-15)


def test_mesh_is_immutable():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_mesh_equality_is_identity():
    mesh, twin = build_structured_unit_square(2), build_structured_unit_square(2)
    assert mesh == mesh and mesh != twin
    assert hash(mesh) == hash(mesh)
    assert len({mesh, twin, mesh}) == 2


def test_mesh_export_text_at_level_one(tmp_path):
    node_path, elem_path = write_mesh_files(build_structured_unit_square(1), tmp_path)
    assert (node_path.name, elem_path.name) == ("mesh-n1.node", "mesh-n1.ele")
    assert node_path.read_text() == "0.0 0.0\n1.0 0.0\n0.0 1.0\n1.0 1.0\n"
    assert elem_path.read_text() == "0 1 3\n0 3 2\n"


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


@pytest.mark.parametrize("n_coarse", [1, 8, 128])
def test_prolongation_is_canonical_and_read_only(n_coarse):
    # 32-bit indices keep every Galerkin product of the V-cycle 32-bit
    p = prolongation(n_coarse)
    assert isinstance(p, scipy.sparse.csr_array)
    assert p.indices.dtype == p.indptr.dtype == np.int32
    again = canonical(p)
    for got, want in zip((p.data, p.indices, p.indptr),
                         (again.data, again.indices, again.indptr)):
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_prolongation_rejects_level_zero():
    with pytest.raises(ValueError):
        prolongation(0)
