"""Assembly checks against straight-loop quadrature evaluators.

The evaluators below integrate each bilinear form element by element
(edge by edge) with explicit Python loops; the assembled matrices must
reproduce them as quadratic forms.
"""

import numpy as np
import pytest
import scipy.linalg
from test_mesh import shuffled

from trifield.assembly import assemble
from trifield.femcore import dual_values, edge_quadrature, edge_traces, triangle_quadrature
from trifield.linsolve import canonical
from trifield.mesh import build_structured_unit_square
from trifield.problems import example1, example2, linear_patch


def eval_grad_grad(mesh, x_dofs, y_dofs):
    areas, grads = mesh.areas, mesh.gradients
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        gu = sum(x_dofs[tri[a]] * grads[t, a] for a in range(3))
        gv = sum(y_dofs[tri[a]] * grads[t, a] for a in range(3))
        total += areas[t] * (gu @ gv)
    return total


def eval_vector_mass(mesh, x_vec, y_vec):
    nvert = mesh.num_vertices
    areas = mesh.areas
    rule = triangle_quadrature(2)
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        for q, w in enumerate(rule.weights):
            lam = rule.points[q]
            for c in range(2):
                u = sum(x_vec[c * nvert + tri[a]] * lam[a] for a in range(3))
                v = sum(y_vec[c * nvert + tri[a]] * lam[a] for a in range(3))
                total += 2.0 * areas[t] * w * u * v
    return total


def eval_dual_vector_pairing(mesh, tau_vec, phi_vec):
    nvert = mesh.num_vertices
    areas = mesh.areas
    rule = triangle_quadrature(2)
    mu = dual_values(rule.points)
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        for q, w in enumerate(rule.weights):
            lam = rule.points[q]
            for c in range(2):
                tau = sum(tau_vec[c * nvert + tri[a]] * lam[a] for a in range(3))
                phi = sum(phi_vec[c * nvert + tri[a]] * mu[q, a] for a in range(3))
                total += 2.0 * areas[t] * w * tau * phi
    return total


def eval_grad_dual(mesh, v_dofs, phi_vec):
    nvert = mesh.num_vertices
    areas, grads = mesh.areas, mesh.gradients
    rule = triangle_quadrature(2)
    mu = dual_values(rule.points)
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        gv = sum(v_dofs[tri[a]] * grads[t, a] for a in range(3))
        for q, w in enumerate(rule.weights):
            phi = np.array([
                sum(phi_vec[c * nvert + tri[a]] * mu[q, a] for a in range(3))
                for c in range(2)
            ])
            total += 2.0 * areas[t] * w * (gv @ phi)
    return total


def eval_boundary_flux(mesh, sigma_vec, v_dofs):
    nvert = mesh.num_vertices
    rule = edge_quadrature(3)
    total = 0.0
    for (a, b), normal, h in zip(
        mesh.boundary_edges, mesh.boundary_normal, mesh.boundary_length
    ):
        for s, w in zip(rule.points, rule.weights):
            tr = (1.0 - s, s)
            v = tr[0] * v_dofs[a] + tr[1] * v_dofs[b]
            sig = np.array([
                tr[0] * sigma_vec[c * nvert + a] + tr[1] * sigma_vec[c * nvert + b]
                for c in range(2)
            ])
            total += h * w * (sig @ normal) * v
    return total


def eval_penalty(mesh, u_dofs, v_dofs):
    rule = edge_quadrature(3)
    total = 0.0
    for (a, b), h in zip(mesh.boundary_edges, mesh.boundary_length):
        for s, w in zip(rule.points, rule.weights):
            u = (1.0 - s) * u_dofs[a] + s * u_dofs[b]
            v = (1.0 - s) * v_dofs[a] + s * v_dofs[b]
            total += (1.0 / h) * h * w * u * v
    return total


def triplet_reference(mesh, local):
    """Dense sum of element matrices (T, 3, 3) built from COO triplets
    (tri[t, a], tri[t, b], local[t, a, b]), added in triplet order."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    dense = np.zeros((mesh.num_vertices, mesh.num_vertices))
    np.add.at(dense, (rows, cols), local.ravel())
    return dense


def pairing_reference(mesh):
    """Dense full pairing int_Omega rho_i mu_j dx, all nine local couplings
    summed, so that its off-diagonal entries are measured, not assumed zero."""
    areas = mesh.areas
    rule = triangle_quadrature(2)
    local = np.einsum("q,qa,qb->ab", rule.weights, rule.points, dual_values(rule.points))
    return triplet_reference(mesh, (2.0 * areas)[:, None, None] * local)


def boundary_vertex_mask(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


@pytest.fixture(scope="module")
def system_n3():
    mesh = build_structured_unit_square(3)
    return mesh, assemble(mesh, example2())


def _close(got, want, tol=1e-12):
    assert abs(got - want) <= tol * max(1.0, abs(want))


def test_matrix_form_agreement(system_n3):
    mesh, blocks = system_n3
    nvert = mesh.num_vertices
    rng = np.random.default_rng(101)
    for _ in range(5):
        x = rng.standard_normal(nvert)
        y = rng.standard_normal(nvert)
        xv = rng.standard_normal(2 * nvert)
        yv = rng.standard_normal(2 * nvert)

        _close(x @ blocks.S @ y, eval_grad_grad(mesh, x, y))
        _close(xv @ blocks.M @ yv, eval_vector_mass(mesh, xv, yv))
        _close(xv @ (blocks.D * yv), eval_dual_vector_pairing(mesh, xv, yv))
        _close(x @ blocks.A @ xv, eval_boundary_flux(mesh, xv, x))
        _close(x @ blocks.B @ yv, eval_grad_dual(mesh, x, yv))
        _close(x @ blocks.C @ y, eval_penalty(mesh, x, y))


def test_symmetry_and_row_sums(system_n3):
    _, blocks = system_n3
    for mat in (blocks.S, blocks.M, blocks.C):
        dense = mat.toarray()
        scale = np.abs(dense).max()
        assert np.abs(dense - dense.T).max() <= 1e-13 * scale
    assert np.abs(blocks.S.sum(axis=1)).max() < 1e-12


def test_stiffness_and_mass_positive_semidefinite(system_n3):
    _, blocks = system_n3
    for mat in (blocks.S, blocks.M):
        eigs = np.linalg.eigvalsh(mat.toarray())
        assert eigs.min() >= -1e-12 * max(1.0, eigs.max())


def test_boundary_structure(system_n3):
    mesh, blocks = system_n3
    interior = ~boundary_vertex_mask(mesh)
    c_dense = blocks.C.toarray()
    assert np.all(c_dense[interior, :] == 0.0)
    assert np.all(c_dense[:, interior] == 0.0)
    a_dense = blocks.A.toarray()
    assert np.all(a_dense[interior, :] == 0.0)


def test_dual_pairing_diagonal_value(system_n3):
    mesh, blocks = system_n3
    nvert = mesh.num_vertices
    areas = mesh.areas
    want = np.zeros(nvert)
    for t, tri in enumerate(mesh.triangles):
        for a in range(3):
            want[tri[a]] += areas[t] / 3.0
    assert np.all(blocks.D > 0.0)
    np.testing.assert_allclose(blocks.D[:nvert], want, rtol=1e-13)
    np.testing.assert_allclose(blocks.D[nvert:], want, rtol=1e-13)


@pytest.mark.parametrize("n", [2, 8])
def test_biorthogonality_of_assembled_pairing(n):
    mesh = build_structured_unit_square(n)
    pairing = pairing_reference(mesh)
    diag = np.diag(pairing).copy()
    off = pairing - np.diag(diag)
    assert np.abs(off).max() <= 1e-13

    areas = mesh.areas
    want = np.zeros(mesh.num_vertices)
    for t, tri in enumerate(mesh.triangles):
        want[tri] += areas[t] / 3.0
    np.testing.assert_allclose(diag, want, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
def test_volume_blocks_match_triplet_reference_bitwise(n):
    # the pattern sums each entry's contributions in element order, as the
    # triplet reference does, so the blocks agree to the last bit
    mesh = build_structured_unit_square(n)
    blocks = assemble(mesh, example2())
    areas, grads = mesh.areas, mesh.gradients
    rule = triangle_quadrature(2)
    w, lam = rule.weights, rule.points
    mu = dual_values(lam)
    scale = 2.0 * areas
    moment = scale[:, None] * (w @ mu)
    mass = triplet_reference(mesh, scale[:, None, None] * np.einsum("q,qa,qb->ab", w, lam, lam))
    want = {
        "S": triplet_reference(
            mesh, np.einsum("tad,tbd->tab", grads, grads) * areas[:, None, None]
        ),
        "M": scipy.linalg.block_diag(mass, mass),
        "B": np.hstack([
            triplet_reference(mesh, np.einsum("ta,tb->tab", grads[:, :, c], moment))
            for c in range(2)
        ]),
    }
    got = {name: getattr(blocks, name) for name in "SMB"}
    for name, dense in want.items():
        ref = canonical(dense)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(got[name], part), getattr(ref, part), err_msg=f"{name}.{part}"
            )
    # D is the diagonal of the full pairing, summed in the same element order
    np.testing.assert_array_equal(blocks.D, np.tile(np.diag(pairing_reference(mesh)), 2))


@pytest.mark.parametrize("n", [5, 16])
def test_triangle_order_does_not_change_the_blocks(n):
    mesh = build_structured_unit_square(n)
    want = assemble(mesh, example2())
    got = assemble(shuffled(mesh, seed=n), example2())
    for name in ("S", "M", "A", "B", "C"):
        diff = abs(getattr(got, name) - getattr(want, name)).max()
        assert diff <= 1e-15 * abs(getattr(want, name)).max(), name
    for name in ("D", "f1_source", "f1_penalty", "f2"):
        diff = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert diff <= 1e-15 * np.abs(getattr(want, name)).max(), name


def test_zero_data_gives_zero_loads():
    mesh = build_structured_unit_square(1)
    blocks = assemble(mesh, linear_patch(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(blocks.f1_source, 0.0)
    np.testing.assert_array_equal(blocks.f1_penalty, 0.0)
    np.testing.assert_array_equal(blocks.f2, 0.0)


def test_homogeneous_dirichlet_gives_zero_f2():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example1())
    np.testing.assert_array_equal(blocks.f2, 0.0)


def test_penalty_norm_product_closed_forms():
    # sum_e (1/h_e) int_e 1 ds is the number of boundary edges, 8 at n = 2
    mesh = build_structured_unit_square(2)
    c_mat = assemble(mesh, example1()).C
    ones = np.ones(mesh.num_vertices)
    assert abs(ones @ c_mat @ ones - 8.0) < 1e-13
    zero = np.zeros(mesh.num_vertices)
    assert zero @ c_mat @ ones == 0.0


def test_penalty_norm_product_matches_matrix(system_n3):
    def penalty_norm_product(mesh, u_dofs, v_dofs):
        """sum_e (1/h_e) int_e u v ds, edge by edge with quadrature."""
        rule = edge_quadrature(3)
        tr = edge_traces(rule)
        u_trace = u_dofs[mesh.boundary_edges] @ tr.T  # (E, k)
        v_trace = v_dofs[mesh.boundary_edges] @ tr.T
        # the h_e measure cancels against the 1/h_e weight
        return float(np.einsum("k,ek,ek->", rule.weights, u_trace, v_trace))

    mesh, blocks = system_n3
    rng = np.random.default_rng(55)
    for _ in range(5):
        u = rng.standard_normal(mesh.num_vertices)
        v = rng.standard_normal(mesh.num_vertices)
        got = penalty_norm_product(mesh, u, v)
        want = u @ blocks.C @ v
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_constant_flux_closed_boundary_identity(system_n3):
    # sigma = (1, 0), v = 1: the pairing is the integral of n_x over a
    # closed curve, which vanishes
    mesh, blocks = system_n3
    nvert = mesh.num_vertices
    sigma = np.concatenate([np.ones(nvert), np.zeros(nvert)])
    ones = np.ones(nvert)
    assert abs(ones @ blocks.A @ sigma) <= 1e-12
