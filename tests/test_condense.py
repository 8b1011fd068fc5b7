import dataclasses

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trifield.assembly import assemble
from trifield.condense import (
    ORACLE_MAX_LEVEL,
    condense,
    recover_phi,
    recover_sigma,
    solve_full_saddle,
)
from trifield.linsolve import canonical, cg_solve, dense_lu_solve
from trifield.mesh import build_structured_unit_square
from trifield.problems import example1, example2, linear_patch

R, ALPHA = 0.5, 10.0


def schur_eliminated(blocks, r, alpha):
    """Dense block elimination of the (sigma, phi) unknowns (oracle).

    Inverts the lower-right 4N x 4N block numerically instead of using
    the diagonal structure of D.
    """
    n = blocks.n_primal
    s, m = blocks.S.toarray(), blocks.M.toarray()
    a, b, c = blocks.A.toarray(), blocks.B.toarray(), blocks.C.toarray()
    d = np.diag(blocks.D)
    top = (1.0 - r) * s + alpha * c
    coupling = np.hstack([-a, -b])                       # N x 4N
    lower = np.block([[r * m, d], [d, np.zeros_like(d)]])  # 4N x 4N
    lower_inv = np.linalg.inv(lower)
    k = top - coupling @ lower_inv @ coupling.T
    rhs_tail = np.concatenate([-blocks.f2, np.zeros(2 * n)])
    f = blocks.f1(alpha) - coupling @ lower_inv @ rhs_tail
    return k, f


def test_condensed_matrix_matches_block_elimination():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example2())
    system = condense(blocks, R, ALPHA)
    k_oracle, f_oracle = schur_eliminated(blocks, R, ALPHA)
    k = system.K.toarray()
    assert np.abs(k - k_oracle).max() <= 1e-11 * np.abs(k_oracle).max()
    assert np.abs(system.F - f_oracle).max() <= 1e-11 * max(1.0, np.abs(f_oracle).max())


@settings(max_examples=25, deadline=None)
@given(n=st.just(4), r=st.floats(0.01, 0.99), alpha=st.floats(1.0, 100.0))
@example(n=8, r=R, alpha=ALPHA)
def test_condensed_matrix_symmetry(n, r, alpha):
    mesh = build_structured_unit_square(n)
    blocks = assemble(mesh, example1())
    k = condense(blocks, r, alpha).K
    asym = scipy.sparse.linalg.norm(k - k.T, "fro") / scipy.sparse.linalg.norm(k, "fro")
    assert asym <= 1e-12


def four_product_k(blocks, r, alpha):
    """K from its four triple products, summed one canonical addition at a time."""
    dinv = scipy.sparse.diags_array(1.0 / blocks.D)
    a_d_bt = canonical(blocks.A @ dinv @ blocks.B.T)
    b_d_at = canonical(blocks.B @ dinv @ blocks.A.T)
    m_d_bt = canonical(blocks.M @ dinv @ blocks.B.T)
    b_d_m_d_bt = canonical(blocks.B @ dinv @ m_d_bt)
    k = canonical((1.0 - r) * blocks.S + alpha * blocks.C)
    k = canonical(k - a_d_bt)
    k = canonical(k - b_d_at)
    return canonical(k + r * b_d_m_d_bt)


@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
def test_condensed_matrix_matches_four_product_formula(data):
    blocks = assemble(build_structured_unit_square(8), data)
    k = condense(blocks, R, ALPHA).K
    want = four_product_k(blocks, R, ALPHA)
    assert k.nnz == want.nnz
    np.testing.assert_array_equal(k.indptr, want.indptr)
    np.testing.assert_array_equal(k.indices, want.indices)
    assert np.abs(k.data - want.data).max() <= 1e-13 * np.abs(want.data).max()


#: stored entries at n=16 once duplicates are summed and zeros dropped;
#: the same for both examples, since the data enter only the loads
CANONICAL_NNZ_N16 = {"S": 1377, "M": 3778, "A": 196, "B": 3204, "C": 192, "K": 8871}


@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
def test_blocks_and_k_are_canonical(data):
    blocks = assemble(build_structured_unit_square(16), data)
    mats = {name: getattr(blocks, name) for name in "SMABC"}
    mats["K"] = condense(blocks, R, ALPHA).K
    for name, mat in mats.items():
        assert isinstance(mat, scipy.sparse.csr_array), name
        assert mat.has_canonical_format, name
        assert mat.indices.dtype == mat.indptr.dtype == np.int32, name
        assert np.count_nonzero(mat.data == 0.0) == 0, name
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not arr.flags.writeable, name
    assert {name: mat.nnz for name, mat in mats.items()} == CANONICAL_NNZ_N16


def test_homogeneous_dirichlet_load_is_f1():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example1())  # g_D = 0 so f2 = 0
    system = condense(blocks, R, ALPHA)
    np.testing.assert_array_equal(system.F, blocks.f1(ALPHA))


def test_condense_rejects_bad_parameters():
    mesh = build_structured_unit_square(1)
    blocks = assemble(mesh, example1())
    for bad_r in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            condense(blocks, bad_r, ALPHA)


def test_condense_and_full_saddle_check_the_penalty_range():
    blocks = assemble(build_structured_unit_square(1), example2())
    for solve in (condense, solve_full_saddle):
        for alpha in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                solve(blocks, R, alpha)
        solve(blocks, R, 0.0)


@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_blocks_reject_broken_biorthogonality(entry):
    # D is checked where it is made, so no BlockSystem reaches condense or
    # the recoveries with an entry they cannot divide by
    blocks = assemble(build_structured_unit_square(1), example1())
    broken = blocks.D.copy()
    broken[0] = entry
    with pytest.raises(ValueError, match="biorthogonality is broken"):
        dataclasses.replace(blocks, D=broken)


def test_recover_sigma_reproduces_constant_gradient():
    # u = x has gradient (1, 0); the projection reproduces constants
    mesh = build_structured_unit_square(3)
    blocks = assemble(mesh, linear_patch(0.0, 1.0, 0.0))
    x_u = mesh.vertices[:, 0].copy()
    sigma = recover_sigma(blocks, x_u)
    nvert = mesh.num_vertices
    np.testing.assert_allclose(sigma[:nvert], 1.0, atol=1e-12)
    np.testing.assert_allclose(sigma[nvert:], 0.0, atol=1e-12)


def test_recover_sigma_zero_and_constraint_row():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example2())
    np.testing.assert_array_equal(recover_sigma(blocks, np.zeros(blocks.n_primal)), 0.0)

    rng = np.random.default_rng(31)
    x_u = rng.standard_normal(blocks.n_primal)
    sigma = recover_sigma(blocks, x_u)
    rhs = blocks.B.T @ x_u
    residual = blocks.D * sigma - rhs
    # definitional up to the single rounding of the diagonal division
    assert np.abs(residual).max() <= 1e-15 * max(1.0, np.abs(rhs).max())


def test_recover_phi_satisfies_second_block_row():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example2())
    rng = np.random.default_rng(37)
    x_u = rng.standard_normal(blocks.n_primal)
    sigma = recover_sigma(blocks, x_u)
    phi = recover_phi(blocks, x_u, sigma, R)
    residual = (
        -(blocks.A.T @ x_u)
        + R * (blocks.M @ sigma)
        + blocks.D * phi
        + blocks.f2
    )
    assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(x_u).max())

    # zero boundary data and zero primal field leave no multiplier
    homogeneous = assemble(mesh, example1())
    zero = np.zeros(homogeneous.n_primal)
    phi0 = recover_phi(homogeneous, zero, recover_sigma(homogeneous, zero), R)
    np.testing.assert_array_equal(phi0, 0.0)


def test_zero_data_gives_zero_solution():
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, linear_patch(0.0, 0.0, 0.0))
    x_u, x_sigma, x_phi = solve_full_saddle(blocks, R, ALPHA)
    assert np.abs(x_u).max() < 1e-12
    assert np.abs(x_sigma).max() < 1e-12
    assert np.abs(x_phi).max() < 1e-12


def test_interpolant_of_linear_solution_solves_block_system():
    # Nitsche consistency: the exact interpolant satisfies the first
    # block row once sigma and phi are recovered from it, whatever the
    # penalty that weights C and the penalty load
    mesh = build_structured_unit_square(4)
    data = linear_patch(1.0, 2.0, 3.0)
    blocks = assemble(mesh, data)
    x_u = data.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    sigma = recover_sigma(blocks, x_u)
    phi = recover_phi(blocks, x_u, sigma, R)
    for alpha in (ALPHA, 2.5, 100.0):
        top = (1.0 - R) * blocks.S + alpha * blocks.C
        residual = (
            top @ x_u
            - blocks.A @ sigma
            - blocks.B @ phi
            - blocks.f1(alpha)
        )
        assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(blocks.f1(alpha)).max())


#: zero or of any magnitude up to 5, subnormals included: CG scales the
#: load to order one, so tiny data must pass the patch test too
PATCH_COEFF = st.one_of(st.just(0.0), st.floats(0.0, 5.0, exclude_min=True),
                        st.floats(-5.0, 0.0, exclude_max=True))


@pytest.mark.parametrize("n", [2, 4, 8])
@settings(max_examples=25, deadline=None)
@given(coeffs=st.tuples(PATCH_COEFF, PATCH_COEFF, PATCH_COEFF))
@example(coeffs=(1.0, 2.0, 3.0))
@example(coeffs=(0.0, 0.0, 1.6e-159))
def test_patch_solution_is_exact_interpolant(n, coeffs):
    mesh = build_structured_unit_square(n)
    data = linear_patch(*coeffs)
    blocks = assemble(mesh, data)
    system = condense(blocks, R, ALPHA)
    x_u, report = cg_solve(system.K, system.F, tol=1e-14)
    assert report.converged
    want = data.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(x_u - want).max() <= 1e-10


@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_condensed_solve_matches_full_saddle(n, data):
    mesh = build_structured_unit_square(n)
    blocks = assemble(mesh, data)
    system = condense(blocks, R, ALPHA)
    x_u, report = cg_solve(system.K, system.F, tol=1e-14)
    assert report.converged
    sigma = recover_sigma(blocks, x_u)
    phi = recover_phi(blocks, x_u, sigma, R)

    full_u, full_sigma, full_phi = solve_full_saddle(blocks, R, ALPHA)
    for got, want in ((x_u, full_u), (sigma, full_sigma), (phi, full_phi)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def dense_block_saddle_solve(blocks, r, alpha):
    """The full saddle solve from dense copies of every block (reference)."""
    n = blocks.n_primal
    s, m = blocks.S.toarray(), blocks.M.toarray()
    a, b, c = blocks.A.toarray(), blocks.B.toarray(), blocks.C.toarray()
    d = np.diag(blocks.D)
    full = np.block([
        [(1.0 - r) * s + alpha * c, -a, -b],
        [-a.T, r * m, d],
        [-b.T, d, np.zeros((2 * n, 2 * n))],
    ])
    rhs = np.concatenate([blocks.f1(alpha), -blocks.f2, np.zeros(2 * n)])
    sol = dense_lu_solve(full, rhs)
    return sol[:n], sol[n : 3 * n], sol[3 * n :]


@pytest.mark.parametrize("r, alpha", [(0.5, 10.0), (0.9, 3.0)])
@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_full_saddle_from_sparse_blocks_is_bitwise_the_dense_block_solve(n, data, r, alpha):
    blocks = assemble(build_structured_unit_square(n), data)
    got = solve_full_saddle(blocks, r, alpha)
    want = dense_block_saddle_solve(blocks, r, alpha)
    for field_got, field_want in zip(got, want):
        assert field_got.tobytes() == field_want.tobytes()


def test_corrupted_load_formula_breaks_equivalence():
    # the elimination demands F = f1 - B D^-1 f2; the literal "B D f2"
    # variant must disagree with the full solve by O(1)
    mesh = build_structured_unit_square(2)
    blocks = assemble(mesh, example2())
    system = condense(blocks, R, ALPHA)
    f_bad = blocks.f1(ALPHA) - blocks.B @ (blocks.D * blocks.f2)
    x_bad, report = cg_solve(system.K, f_bad, tol=1e-14)
    assert report.converged
    full_u, _, _ = solve_full_saddle(blocks, R, ALPHA)
    discrepancy = np.abs(x_bad - full_u).max() / np.abs(full_u).max()
    assert discrepancy > 1e-2


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.1, 10.0))
@example(gamma=3.0)
def test_dual_scaling_leaves_condensed_solution_invariant(gamma):
    mesh = build_structured_unit_square(2)
    data = example2()
    plain = assemble(mesh, data)
    # rescaling the dual basis by gamma rescales D and B, and nothing else
    scaled = dataclasses.replace(plain, D=gamma * plain.D, B=gamma * plain.B)
    np.testing.assert_allclose(scaled.D, gamma * plain.D, rtol=1e-14)

    sys_plain = condense(plain, R, ALPHA)
    sys_scaled = condense(scaled, R, ALPHA)
    assert np.abs(sys_scaled.K.toarray() - sys_plain.K.toarray()).max() <= 1e-12
    assert np.abs(sys_scaled.F - sys_plain.F).max() <= 1e-12

    x_plain, _ = cg_solve(sys_plain.K, sys_plain.F, tol=1e-14)
    x_scaled, _ = cg_solve(sys_scaled.K, sys_scaled.F, tol=1e-14)
    assert np.abs(x_scaled - x_plain).max() <= 1e-12 * np.abs(x_plain).max()

    sig_plain = recover_sigma(plain, x_plain)
    sig_scaled = recover_sigma(scaled, x_scaled)
    assert np.abs(sig_scaled - sig_plain).max() <= 1e-12 * np.abs(sig_plain).max()

    phi_plain = recover_phi(plain, x_plain, sig_plain, R)
    phi_scaled = recover_phi(scaled, x_scaled, sig_scaled, R)
    assert np.abs(gamma * phi_scaled - phi_plain).max() <= 1e-12 * np.abs(phi_plain).max()


def test_condensed_sparsity_stays_local():
    # every nonzero couples vertices at most three hops apart in the
    # element-adjacency graph (D^-1 never densifies K)
    mesh = build_structured_unit_square(4)
    blocks = assemble(mesh, example1())
    k = condense(blocks, R, ALPHA).K

    nvert = mesh.num_vertices
    adj = np.zeros((nvert, nvert), dtype=bool)
    for tri in mesh.triangles:
        for a in tri:
            adj[a, tri] = True
    reach = adj.copy()
    for _ in range(2):
        reach = reach @ adj
    coo = k.tocoo()
    assert all(reach[i, j] for i, j in zip(coo.row, coo.col))

    mesh8 = build_structured_unit_square(8)
    k8 = condense(assemble(mesh8, example1()), R, ALPHA).K
    assert np.diff(k8.indptr).max() <= 40  # bounded stencil, no dense fill


@pytest.mark.parametrize("n", [2, 4, 8])
def test_condensed_operator_is_spd_for_valid_parameters(n):
    mesh = build_structured_unit_square(n)
    blocks = assemble(mesh, example1())
    system = condense(blocks, R, ALPHA)
    _, report = cg_solve(system.K, system.F, tol=1e-12)
    assert report.converged and not report.indefinite


#: alpha_min(r) on example 1, bisected on the dense lambda_min(K): K is
#: positive definite for alpha above it and indefinite below
ALPHA_MIN = {4: {0.1: 1.1712, 0.5: 1.3493, 0.9: 1.7275},
             8: {0.1: 1.1735, 0.5: 1.3516, 0.9: 1.8134}}


@pytest.mark.parametrize("n", sorted(ALPHA_MIN))
def test_coercivity_threshold_is_bracketed(n):
    # one assembly serves every (r, alpha): both weights enter at condensation
    blocks = assemble(build_structured_unit_square(n), example1())

    def lambda_min(r, alpha):
        return np.linalg.eigvalsh(condense(blocks, r, alpha).K.toarray())[0]

    for r, alpha_min in ALPHA_MIN[n].items():
        assert lambda_min(r, 0.97 * alpha_min) < 0.0 < lambda_min(r, 1.03 * alpha_min), r
    # the weakest corner of the benchmark's sweep grid, and the default
    assert lambda_min(0.9, 3.0) > 0.0
    assert lambda_min(R, ALPHA) > 0.0


def test_zero_penalty_destroys_definiteness():
    mesh = build_structured_unit_square(8)
    blocks = assemble(mesh, example1())
    system = condense(blocks, R, alpha=0.0)
    _, report = cg_solve(system.K, system.F, tol=1e-12, maxit=5000)
    assert report.indefinite or not report.converged


def test_full_saddle_refuses_large_meshes():
    # the first level above ORACLE_MAX_LEVEL is already refused
    for n in (ORACLE_MAX_LEVEL + 1, 32):
        blocks = assemble(build_structured_unit_square(n), example1())
        with pytest.raises(ValueError, match="desk-scale oracle"):
            solve_full_saddle(blocks, R, ALPHA)
