import math

import numpy as np
import pytest

from trifield.femcore import DATA_TRI_DEGREE, quadrature_blocks, triangle_quadrature
from trifield.mesh import build_structured_unit_square
from trifield.problems import (
    ExampleId,
    _sin_cos,
    by_id,
    example1,
    example2,
    linear_patch,
)

PROBLEMS = {"ex1": example1, "ex2": example2, "patch": linear_patch}
FIELDS = ("f", "g_dirichlet", "exact_u", "exact_grad_u")


def quadrature_block(n=8):
    """The (x, y) points of the first degree-6 block of the n x n mesh."""
    mesh = build_structured_unit_square(n)
    _, x, y = next(quadrature_blocks(mesh, triangle_quadrature(DATA_TRI_DEGREE)))
    return x, y


POINTS = {
    "float": (0.3, 0.7),
    "0-d": (np.array(0.3), np.array(0.7)),
    "1-D": (np.linspace(0.0, 1.0, 7), np.linspace(1.0, 0.0, 7)),
    "block": quadrature_block(),
}


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


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_field_contract(problem, field, points):
    # shape, dtype, inputs untouched and a result that owns its memory:
    # what quadrature and the error norms rely on
    x, y = POINTS[points]
    x_before, y_before = np.copy(x), np.copy(y)
    out = getattr(PROBLEMS[problem](), field)(x, y)
    shape = np.shape(x)
    assert np.shape(out) == ((2, *shape) if field == "exact_grad_u" else shape)
    assert np.asarray(out).dtype == np.float64
    np.testing.assert_array_equal(x, x_before, strict=True)
    np.testing.assert_array_equal(y, y_before, strict=True)
    assert not np.shares_memory(out, x)
    assert not np.shares_memory(out, y)


def test_sin_cos_from_the_half_angle_tangent():
    # the range of xy on [-2, 2]^2, with the zeros of sin and cos and the
    # poles of tan(a/2) at a = +-pi, where t is about 1e16
    a = np.concatenate([np.linspace(-4.0, 4.0, 10001),
                        [0.0, 1e-300, np.pi / 2, np.pi, -np.pi,
                         np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0)]])
    s, c = _sin_cos(a)
    # numpy's vectorised tan is within 4 ulp; through 1 + t^2, the
    # division and the product that bounds sin's relative error and cos's
    # absolute error by about 20 ulp (measured here: under 2)
    bound = 24 * np.finfo(float).eps
    np.testing.assert_allclose(s, np.sin(a), rtol=bound, atol=0)
    np.testing.assert_allclose(c, np.cos(a), rtol=0, atol=bound)


def textbook_example2():
    """Example 2's fields as first transcribed from the symbolic derivation."""

    def exact_u(x, y):
        return np.exp(x**2 + y**2) + y**2 * np.cos(x * y) + x**2 * np.sin(x * y)

    def exact_grad_u(x, y):
        e = np.exp(x**2 + y**2)
        s, c = np.sin(x * y), np.cos(x * y)
        ux = 2.0 * x * e - y**3 * s + 2.0 * x * s + x**2 * y * c
        uy = 2.0 * y * e + 2.0 * y * c - x * y**2 * s + x**3 * c
        return np.stack([ux, uy])

    def f(x, y):
        e = np.exp(x**2 + y**2)
        s, c = np.sin(x * y), np.cos(x * y)
        return -(
            (4.0 + 4.0 * x**2 + 4.0 * y**2) * e
            + (2.0 + 4.0 * x * y - y**4 - x**2 * y**2) * c
            + (2.0 - 4.0 * x * y - x**4 - x**2 * y**2) * s
        )

    return {"f": f, "exact_u": exact_u, "exact_grad_u": exact_grad_u}


@pytest.mark.parametrize("points", ["square", "block"])
@pytest.mark.parametrize("field", ["f", "exact_u", "exact_grad_u"])
def test_example2_matches_textbook_formulas(field, points):
    # [-2, 2]^2 reaches negative and large xy, where the products that
    # replace the powers round differently
    if points == "square":
        x, y = np.random.default_rng(31).uniform(-2.0, 2.0, (2, 2000))
    else:
        x, y = quadrature_block()
    got = getattr(example2(), field)(x, y)
    want = textbook_example2()[field](x, y)
    if field == "exact_grad_u":
        # next to a zero of one component both formulas lose digits to
        # cancellation, so each point's gradient is compared as a vector
        err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-14
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
