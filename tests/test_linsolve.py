import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from trifield.assembly import assemble
from trifield.condense import condense
from trifield.linsolve import (
    SingularMatrixError,
    canonical,
    cg_solve,
    dense_lu_solve,
    write_matrix_market,
)
from trifield.mesh import build_structured_unit_square
from trifield.problems import linear_patch


def random_sparse(rng, rows, cols, density=0.4):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return scipy.sparse.csr_array(dense), dense


def eye(n):
    return scipy.sparse.eye_array(n, format="csr")


def test_canonical_sums_drops_and_sorts():
    # duplicates accumulate, exact zeros are dropped, indices end up sorted
    rows = [0, 0, 0, 1, 1]
    cols = [2, 2, 0, 1, 1]
    vals = [1.0, 2.0, 4.0, 5.0, -5.0]
    coords = (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))
    mat = canonical(scipy.sparse.coo_array((vals, coords), shape=(2, 3)))
    assert isinstance(mat, scipy.sparse.csr_array)
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    assert mat.nnz == 2
    np.testing.assert_array_equal(mat.indptr, [0, 2, 2])
    np.testing.assert_array_equal(mat.indices, [0, 2])
    np.testing.assert_allclose(mat.data, [4.0, 3.0])
    assert np.all(np.diff(mat.indptr) >= 0)
    for arr in (mat.data, mat.indices, mat.indptr):
        assert not arr.flags.writeable


def test_canonical_copies_the_callers_arrays():
    # the caller's buffers are copied, so they stay writable and untouched
    original = scipy.sparse.random(5, 5, density=0.5, format="csr",
                                   random_state=np.random.default_rng(4))
    before = original.toarray()
    out = canonical(original)
    assert original.indices.flags.writeable and original.indptr.flags.writeable
    original.data[:] = 0.0
    np.testing.assert_array_equal(out.toarray(), before)


def test_cg_identity_converges_immediately():
    b = np.arange(1.0, 7.0)
    x, report = cg_solve(eye(6), b, tol=1e-12)
    np.testing.assert_allclose(x, b, atol=1e-14)
    assert report.converged
    assert report.iterations == 1


def test_cg_exact_start_returns_without_iterating():
    # r = 0 at the start gives r.z = 0, which the loop would report as
    # negative curvature; the start's true residual is checked first
    b = np.arange(1.0, 7.0)
    x, report = cg_solve(eye(6), b, tol=1e-12, x0=b)
    np.testing.assert_array_equal(x, b)
    assert report.converged and not report.indefinite
    assert report.iterations == 0
    assert report.initial_residual == report.relative_residual == 0.0
    _, cold = cg_solve(eye(6), b, tol=1e-12)
    assert cold.initial_residual == 1.0


def test_cg_from_a_near_start():
    rng = np.random.default_rng(5)
    root = rng.standard_normal((30, 30))
    spd = root @ root.T + 30.0 * np.eye(30)
    mat = scipy.sparse.csr_array(spd)
    b = rng.standard_normal(30)
    x_star = np.linalg.solve(spd, b)
    x0 = x_star + 1e-6 * rng.standard_normal(30)
    start = x0.copy()
    x, report = cg_solve(mat, b, tol=1e-12, x0=x0)
    _, cold = cg_solve(mat, b, tol=1e-12)
    assert report.converged and report.iterations < cold.iterations
    # the test stays relative to ||b||, and the caller's start is not modified
    assert np.linalg.norm(b - spd @ x) <= 1e-12 * np.linalg.norm(b)
    want = np.linalg.norm(b - spd @ x0) / np.linalg.norm(b)
    assert 0.0 < want < 1.0
    assert report.initial_residual == pytest.approx(want, rel=1e-12)
    np.testing.assert_array_equal(x0, start)


def test_cg_two_by_two_hand_oracle():
    mat = scipy.sparse.csr_array(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, report = cg_solve(mat, np.array([1.0, 2.0]), tol=1e-14)
    np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-13)
    assert report.converged
    assert report.relative_residual <= 1e-14


def test_cg_zero_rhs():
    mat = eye(3)
    x, report = cg_solve(mat, np.zeros(3))
    np.testing.assert_array_equal(x, 0.0)
    assert report.converged and report.iterations == 0


def test_cg_random_spd():
    rng = np.random.default_rng(12)
    root = rng.standard_normal((20, 20))
    spd = root @ root.T + 20.0 * np.eye(20)
    mat = scipy.sparse.csr_array(spd)
    b = rng.standard_normal(20)
    x, report = cg_solve(mat, b, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(b - spd @ x) / np.linalg.norm(b) <= 1e-12


def test_cg_energy_error_is_monotone():
    # CG minimises the A-norm error over growing Krylov spaces, so the
    # energy error cannot increase from one iteration cap to the next
    rng = np.random.default_rng(17)
    root = rng.standard_normal((15, 15))
    spd = root @ root.T + 5.0 * np.eye(15)
    mat = scipy.sparse.csr_array(spd)
    x_star = rng.standard_normal(15)
    b = spd @ x_star

    def energy_error(maxit):
        x, _ = cg_solve(mat, b, tol=1e-16, maxit=maxit)
        e = x - x_star
        return e @ spd @ e

    energies = [energy_error(k) for k in range(1, 20)]
    for prev, curr in zip(energies, energies[1:]):
        assert curr <= prev * (1.0 + 1e-10) + 1e-24


def test_cg_detects_negative_curvature():
    mat = scipy.sparse.csr_array(np.diag([1.0, -1.0]))
    _, report = cg_solve(mat, np.array([0.0, 1.0]), tol=1e-12, maxit=10)
    assert not report.converged
    assert report.indefinite


def test_cg_convergence_is_judged_on_true_residual():
    # near machine precision the recurrence residual can pass the test
    # while the true residual still misses it; the solver must keep
    # polishing instead of reporting failure with budget left
    rng = np.random.default_rng(20)
    root = rng.standard_normal((300, 300))
    spd = root @ root.T + 0.5 * np.eye(300)
    mat = scipy.sparse.csr_array(spd)
    b = rng.standard_normal(300)
    x, report = cg_solve(mat, b, tol=1e-13, maxit=10000)
    assert report.converged
    assert np.linalg.norm(b - spd @ x) / np.linalg.norm(b) <= 1e-13


def test_cg_reports_nonconvergence():
    rng = np.random.default_rng(8)
    root = rng.standard_normal((30, 30))
    spd = root @ root.T + 30.0 * np.eye(30)
    _, report = cg_solve(scipy.sparse.csr_array(spd), rng.standard_normal(30),
                         tol=1e-13, maxit=2)
    assert not report.converged
    assert report.iterations == 2
    with pytest.raises(ValueError):
        cg_solve(eye(2), np.ones(2), tol=2.0)


def test_cg_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"\(5, 5\).*\(4,\)"):
        cg_solve(eye(5), np.ones(4))
    with pytest.raises(ValueError, match=r"\(5, 5\).*\(5, 1\)"):
        cg_solve(eye(5), np.ones((5, 1)))
    rect, _ = random_sparse(np.random.default_rng(2), 5, 4)
    with pytest.raises(ValueError, match=r"\(5, 4\).*\(5,\)"):
        cg_solve(rect, np.ones(5))
    with pytest.raises(ValueError, match=r"\(5, 5\) with start \(4,\)"):
        cg_solve(eye(5), np.ones(5), x0=np.ones(4))


def test_cg_rejects_invalid_maxit():
    # a negative cap would report "not converged" after 0 iterations, and
    # a fractional or boolean one would run
    for bad in (0, -5, 2.5, np.float64(3.0), True, "10"):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            cg_solve(eye(3), np.ones(3), maxit=bad)
    for good in (1, np.int64(1), np.int32(5)):
        assert cg_solve(eye(3), np.ones(3), maxit=good)[1].converged


def test_cg_zero_start_is_the_default_start():
    # an explicit zero start takes the same path as none: r = b, the same
    # iterates, and an initial residual of exactly 1
    rng = np.random.default_rng(8)
    root = rng.standard_normal((20, 20))
    mat = scipy.sparse.csr_array(root @ root.T + 20.0 * np.eye(20))
    b = rng.standard_normal(20)
    x, report = cg_solve(mat, b)
    x_zero, zero = cg_solve(mat, b, x0=np.zeros(20))
    np.testing.assert_array_equal(x_zero, x)
    assert zero.iterations == report.iterations
    assert zero.initial_residual == report.initial_residual == 1.0


def test_cg_rejects_non_finite_rhs():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="right-hand side has non-finite"):
            cg_solve(eye(3), np.array([1.0, bad, 0.0]))
        with pytest.raises(ValueError, match="start has non-finite"):
            cg_solve(eye(3), np.ones(3), x0=np.array([1.0, bad, 0.0]))


def test_cg_iterates_are_invariant_under_power_of_two_scaling():
    # b is scaled to order one before iterating: any power-of-two multiple
    # of b gives the same iterations and the same multiple of x, bit for bit
    rng = np.random.default_rng(31)
    root = rng.standard_normal((25, 25))
    mat = scipy.sparse.csr_array(root @ root.T + 25.0 * np.eye(25))
    b = rng.standard_normal(25)
    x, report = cg_solve(mat, b, tol=1e-13)
    assert report.converged
    for power in (-1000, -530, -3, 5, 1000):
        x_s, scaled = cg_solve(mat, np.ldexp(b, power), tol=1e-13)
        assert scaled.converged and not scaled.indefinite
        assert scaled.iterations == report.iterations
        assert scaled.relative_residual == report.relative_residual
        np.testing.assert_array_equal(x_s, np.ldexp(x, power))
    # a start is scaled with b
    x0 = rng.standard_normal(25)
    x, report = cg_solve(mat, b, tol=1e-13, x0=x0)
    for power in (-530, 5, 1000):
        x_s, scaled = cg_solve(mat, np.ldexp(b, power), tol=1e-13,
                               x0=np.ldexp(x0, power))
        assert scaled.iterations == report.iterations
        assert scaled.initial_residual == report.initial_residual
        np.testing.assert_array_equal(x_s, np.ldexp(x, power))


def test_tiny_patch_load_is_not_reported_indefinite():
    # r.z of a load of order 1e-159 underflowed to 0, which the r.z <= 0
    # check took for an indefinite operator
    mesh = build_structured_unit_square(2)
    data = linear_patch(0.0, 0.0, 1.6e-159)
    system = condense(assemble(mesh, data), 0.5, 10.0)
    x_u, report = cg_solve(system.K, system.F, tol=1e-14)
    assert report.converged and not report.indefinite
    want = data.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(x_u - want).max() <= 1e-12 * 1.6e-159


def test_cg_flags_indefinite_preconditioner():
    # r.z <= 0 cannot happen with an SPD preconditioner
    x, report = cg_solve(eye(3), np.ones(3), precond=lambda r: -r)
    assert report.indefinite and not report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(x, 0.0)


def test_cg_custom_preconditioner():
    rng = np.random.default_rng(5)
    root = rng.standard_normal((40, 40))
    spd = root @ root.T + np.diag(np.linspace(1.0, 1e3, 40))
    b = rng.standard_normal(40)
    mat = scipy.sparse.csr_array(spd)
    exact = np.linalg.inv(spd)
    x, report = cg_solve(mat, b, tol=1e-12, precond=lambda r: exact @ r)
    assert report.converged and report.iterations <= 2
    assert report.preconditioner is None and report.mg_levels == 0
    np.testing.assert_allclose(x, np.linalg.solve(spd, b), rtol=1e-10)
    _, jacobi = cg_solve(mat, b, tol=1e-12)
    assert jacobi.preconditioner == "jacobi" and jacobi.iterations > report.iterations


def test_dense_lu_identity_and_round_trip():
    rng = np.random.default_rng(3)
    np.testing.assert_allclose(dense_lu_solve(np.eye(4), np.arange(4.0)),
                               np.arange(4.0), atol=0.0)
    a = rng.standard_normal((10, 10))
    x = rng.standard_normal(10)
    got = dense_lu_solve(a, a @ x)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-11


def exact_hilbert_solve(n, b):
    """Rational Gaussian elimination on the Hilbert system (exact oracle)."""
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    rhs = [Fraction(v) for v in b]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot_row] = a[pivot_row], a[col]
        rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            rhs[r] -= factor * rhs[col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        acc = rhs[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return np.array([float(v) for v in x])


def test_dense_lu_hilbert_against_rational_oracle():
    n = 4
    hilbert = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    b = np.array([1.0, -2.0, 3.0, 0.5])
    want = exact_hilbert_solve(n, [1, -2, 3, Fraction(1, 2)])
    got = dense_lu_solve(hilbert, b)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8


def test_dense_lu_rejects_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    # the scale is the largest magnitude, for the last two that of a
    # negative entry; a Fortran-ordered copy is factorised in place
    for mat in (singular, -np.ones((2, 2)), -singular):
        for a in (mat, np.asfortranarray(mat)):
            with pytest.raises(SingularMatrixError):
                dense_lu_solve(a, np.ones(2))
    with pytest.raises(ValueError):
        dense_lu_solve(np.ones((2, 3)), np.ones(2))


def wilkinson_growth_matrix(n):
    """Unit diagonal, -1 below it, 1 in the last column: partial pivoting
    grows the last column of U to 2^(n-1) while every other pivot is 1."""
    a = np.eye(n) - np.tril(np.ones((n, n)), -1)
    a[:, -1] = 1.0
    return a


def test_dense_lu_reads_the_pivot_scale_before_factorising_in_place():
    # after an in-place factor the matrix holds U, whose largest entry
    # 2^59 would make the unit pivots look singular
    a = wilkinson_growth_matrix(60)
    b = a @ np.ones(60)
    want = dense_lu_solve(a, b)
    fortran = np.asfortranarray(a)
    got = dense_lu_solve(fortran, b)
    assert got.tobytes() == want.tobytes()
    assert np.abs(fortran).max() == 2.0**59  # consumed: it holds the factor
    assert np.array_equal(a, wilkinson_growth_matrix(60))  # a C-ordered a is kept


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    mat, dense = random_sparse(rng, 6, 4)
    path = write_matrix_market(mat, tmp_path / "general.mtx")
    assert "general" in path.read_text().splitlines()[0]
    back = scipy.io.mmread(path).toarray()
    assert back.tobytes() == dense.tobytes()

    # a path that cannot be written raises instead of writing nothing
    (tmp_path / "taken.mtx").mkdir()
    with pytest.raises(OSError):
        write_matrix_market(mat, tmp_path / "taken.mtx")
