import itertools
import math

import numpy as np
import pytest

import trifield.femcore as femcore
from trifield.femcore import (
    DUAL_COEFFICIENTS,
    DualBasis,
    dual_basis_values,
    edge_quadrature,
    p1_grad,
    p1_shape,
    quadrature_blocks,
    triangle_quadrature,
)
from trifield.mesh import build_structured_unit_square, element_geometry


def exact_barycentric_moment(a: int, b: int, c: int, area: float = 0.5) -> float:
    """Closed form: int_T l1^a l2^b l3^c dx = a! b! c! 2|T| / (a+b+c+2)!."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        * 2.0 * area / math.factorial(a + b + c + 2)
    )


def exact_dual_pairing(i: int, j: int, area: float = 0.5) -> float:
    """int_T lambda_i mu_j via the moment formula, independent of quadrature."""
    total = 0.0
    for m in range(3):
        exponents = [0, 0, 0]
        exponents[i] += 1
        exponents[m] += 1
        total += DUAL_COEFFICIENTS[j, m] * exact_barycentric_moment(*exponents, area=area)
    return total


def random_barycentric(rng, size):
    pts = rng.dirichlet(np.ones(3), size=size)
    return pts


def test_p1_shape_is_nodal():
    np.testing.assert_allclose(p1_shape(np.array([1.0, 0.0, 0.0])), [1, 0, 0])
    np.testing.assert_allclose(
        p1_shape(np.array([1 / 3, 1 / 3, 1 / 3])), [1 / 3, 1 / 3, 1 / 3]
    )


def test_p1_shape_partition_of_unity():
    rng = np.random.default_rng(7)
    pts = random_barycentric(rng, 50)
    np.testing.assert_allclose(p1_shape(pts).sum(axis=1), 1.0, atol=1e-15)


def test_p1_shape_rejects_points_that_are_not_barycentric():
    # a ValueError, not an assert, so that python -O still rejects them
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        p1_shape(np.array([0.7, 0.7, -0.4]))
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        p1_shape(np.array([[0.2, 0.2, 0.2]]))
    with pytest.raises(ValueError, match="3 coordinates"):
        p1_shape(np.array([0.5, 0.5]))


def test_p1_grad_comes_from_geometry():
    mesh = build_structured_unit_square(2)
    geom = element_geometry(mesh, 0)
    np.testing.assert_array_equal(p1_grad(geom), geom.grad_lambda)


def test_dual_pairing_against_exact_moments():
    # the defining biorthogonality on the reference element: c_j = |T|/3
    for i in range(3):
        for j in range(3):
            want = (0.5 / 3.0) if i == j else 0.0
            assert abs(exact_dual_pairing(i, j) - want) < 1e-15
    assert abs(exact_dual_pairing(0, 0) - 1.0 / 6.0) < 1e-15


def test_dual_basis_quadrature_matches_exact_moments():
    # degree-2 rule integrates the linear-times-linear pairing exactly
    rule = triangle_quadrature(2)
    mu = dual_basis_values(rule.points)
    pairing = np.einsum("q,qi,qj->ij", rule.weights, rule.points, mu)
    for i in range(3):
        for j in range(3):
            assert abs(pairing[i, j] - exact_dual_pairing(i, j)) < 1e-14


def test_dual_basis_centroid_and_partition_sum():
    centroid = np.array([1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(dual_basis_values(centroid), [1 / 3, 1 / 3, 1 / 3],
                               atol=1e-15)
    rng = np.random.default_rng(11)
    pts = random_barycentric(rng, 100)
    np.testing.assert_allclose(dual_basis_values(pts).sum(axis=1), 1.0, atol=1e-12)


def test_dual_basis_scaling():
    rng = np.random.default_rng(3)
    pts = random_barycentric(rng, 10)
    base = DualBasis()
    scaled = base.scaled(7.0)
    np.testing.assert_allclose(scaled.values(pts), 7.0 * base.values(pts),
                               rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        base.scaled(0.0)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_triangle_weights_sum_to_reference_area(degree):
    rule = triangle_quadrature(degree)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    assert np.all(rule.weights > 0.0)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("degree", [3, 5])
def test_edge_weights_sum_to_one(degree):
    rule = edge_quadrature(degree)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all((rule.points > 0.0) & (rule.points < 1.0))


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_triangle_rule_exact_on_all_monomials(degree):
    rule = triangle_quadrature(degree)
    for a, b, c in itertools.product(range(degree + 1), repeat=3):
        if a + b + c > degree:
            continue
        quad = np.sum(
            rule.weights
            * rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.points[:, 2] ** c
        )
        assert abs(quad - exact_barycentric_moment(a, b, c)) < 1e-13


@pytest.mark.parametrize("degree", [3, 5])
def test_edge_rule_exact_on_monomials(degree):
    rule = edge_quadrature(degree)
    for k in range(degree + 1):
        quad = np.sum(rule.weights * rule.points**k)
        assert abs(quad - 1.0 / (k + 1)) < 1e-14


def test_rule_spot_values():
    rule2 = triangle_quadrature(2)
    quad = np.sum(rule2.weights * rule2.points[:, 0] * rule2.points[:, 1])
    assert abs(quad - 1.0 / 24.0) < 1e-15

    rule3 = edge_quadrature(3)
    assert rule3.points.size == 2
    assert abs(np.sum(rule3.weights * rule3.points**2) - 1.0 / 3.0) < 1e-15

    rule6 = triangle_quadrature(6)
    assert abs(np.sum(rule6.weights) - 0.5) < 1e-14


def test_unsupported_degrees_raise():
    with pytest.raises(ValueError):
        triangle_quadrature(3)
    with pytest.raises(ValueError):
        triangle_quadrature(12)
    with pytest.raises(ValueError):
        edge_quadrature(0)


@pytest.mark.parametrize("build, degrees", [(triangle_quadrature, (2, 4, 6)),
                                            (edge_quadrature, (1, 3, 5))])
def test_rules_are_built_once_per_degree_and_read_only(build, degrees):
    for degree in degrees:
        rule = build(degree)
        assert build(degree) is rule
        for arr in (rule.points, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert build(degrees[0]) is not build(degrees[1])


@pytest.mark.parametrize("block", [7, 32, 10**6])
def test_quadrature_blocks_cover_the_mesh_in_order(monkeypatch, block):
    mesh = build_structured_unit_square(4)  # 32 triangles
    rule = triangle_quadrature(6)
    monkeypatch.setattr(femcore, "QUADRATURE_BLOCK", block)
    blocks = list(quadrature_blocks(mesh, rule))
    assert len(blocks) == math.ceil(mesh.num_triangles / block)
    starts = [blk.start for blk, _, _ in blocks]
    assert starts == list(range(0, mesh.num_triangles, block))
    want = rule.points @ mesh.vertices[mesh.triangles]  # (T, q, 2)
    for blk, x, y in blocks:
        assert x.flags.c_contiguous and y.flags.c_contiguous
        np.testing.assert_allclose(x, want[blk, :, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(y, want[blk, :, 1], rtol=0, atol=1e-15)
