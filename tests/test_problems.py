import math

import numpy as np
import pytest

from trifield.problems import ExampleId, by_id, example1, example2, linear_patch


def fd_laplacian(u, x, y, h=1e-4):
    return (
        u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4.0 * u(x, y)
    ) / h**2


def fd_gradient(u, x, y, h=1e-6):
    return np.array([
        (u(x + h, y) - u(x - h, y)) / (2.0 * h),
        (u(x, y + h) - u(x, y - h)) / (2.0 * h),
    ])


def boundary_samples(count=40, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.random(count)
    side = rng.integers(0, 4, count)
    x = np.where(side == 0, t, np.where(side == 1, 1.0, np.where(side == 2, t, 0.0)))
    y = np.where(side == 0, 0.0, np.where(side == 1, t, np.where(side == 2, 1.0, t)))
    return x, y


def test_example1_point_values():
    data = example1()
    assert abs(data.exact_u(0.5, 0.5) - 0.0625) < 1e-15
    assert abs(data.f(0.5, 0.5) - 1.0) < 1e-15


def test_example1_boundary_data_vanishes():
    data = example1()
    x, y = boundary_samples()
    np.testing.assert_array_equal(data.g_dirichlet(x, y), 0.0)
    np.testing.assert_allclose(data.exact_u(x, y), 0.0, atol=1e-15)


def test_example2_point_values():
    data = example2()
    assert abs(data.exact_u(0.0, 0.0) - 1.0) < 1e-15
    assert abs(data.exact_u(1.0, 0.0) - math.e) < 1e-12


def test_example2_boundary_data_is_trace():
    data = example2()
    x, y = boundary_samples(seed=3)
    np.testing.assert_array_equal(data.g_dirichlet(x, y), data.exact_u(x, y))


@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
def test_source_matches_negative_laplacian(data):
    rng = np.random.default_rng(19)
    pts = 0.1 + 0.8 * rng.random((10, 2))
    for x, y in pts:
        lap = fd_laplacian(data.exact_u, x, y)
        f = data.f(x, y)
        scale = max(abs(f), 1.0)
        assert abs(-lap - f) / scale < 1e-6


def test_example2_spot_check_laplacian():
    data = example2()
    lap = fd_laplacian(data.exact_u, 0.3, 0.7)
    f = data.f(0.3, 0.7)
    assert abs(-lap - f) / abs(f) < 1e-6


@pytest.mark.parametrize("data", [example1(), example2()], ids=["ex1", "ex2"])
def test_gradient_matches_finite_differences(data):
    rng = np.random.default_rng(23)
    pts = 0.1 + 0.8 * rng.random((10, 2))
    for x, y in pts:
        got = data.exact_grad_u(x, y)
        want = fd_gradient(data.exact_u, x, y)
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def test_linear_patch_values():
    zero = linear_patch(0.0, 0.0, 0.0)
    assert zero.exact_u(0.3, 0.9) == 0.0
    assert zero.f(0.3, 0.9) == 0.0

    patch = linear_patch(1.0, 2.0, 3.0)
    assert patch.exact_u(1.0, 1.0) == 6.0
    np.testing.assert_array_equal(patch.exact_grad_u(0.2, 0.8), [2.0, 3.0])
    x, y = boundary_samples(seed=5)
    np.testing.assert_array_equal(patch.f(x, y), 0.0)
    np.testing.assert_array_equal(patch.g_dirichlet(x, y), patch.exact_u(x, y))


def test_by_id_mapping():
    # told apart by their values at the centre of the square
    assert by_id(ExampleId.EXAMPLE1).exact_u(0.5, 0.5) == 0.0625
    assert by_id(ExampleId.EXAMPLE2).exact_u(0.5, 0.5) == pytest.approx(
        np.exp(0.5) + 0.25 * np.cos(0.25) + 0.25 * np.sin(0.25), rel=1e-15)
    assert by_id(ExampleId.LINEAR_PATCH).exact_u(0.5, 0.5) == 3.5
    with pytest.raises(ValueError):
        by_id(ExampleId.CUSTOM)
