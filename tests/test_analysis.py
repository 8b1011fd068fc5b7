import dataclasses
import json
import math

import numpy as np
import pytest

import trifield.femcore as femcore
from trifield.analysis import (
    ErrorTable,
    convergence_rates,
    h1h_error_u,
    l2_error_sigma,
    l2_error_u,
)
from trifield.assembly import assemble
from trifield.condense import condense, recover_sigma
from trifield.linsolve import cg_solve
from trifield.mesh import build_structured_unit_square
from trifield.problems import example1, example2, linear_patch


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_grad(x, y):
    shape = np.asarray(x).shape
    return np.zeros((2, *shape))


def test_zero_error_for_matching_fields():
    mesh = build_structured_unit_square(3)
    x_u = np.zeros(mesh.num_vertices)
    assert l2_error_u(mesh, x_u, zero_field) == 0.0
    assert h1h_error_u(mesh, x_u, zero_field, zero_grad) == 0.0
    assert l2_error_sigma(mesh, np.zeros(2 * mesh.num_vertices), zero_grad) == 0.0


def test_interpolated_linear_solution_has_no_error():
    mesh = build_structured_unit_square(4)
    data = linear_patch(0.5, -1.5, 2.0)
    x_u = data.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert l2_error_u(mesh, x_u, data.exact_u) <= 1e-12
    assert h1h_error_u(mesh, x_u, data.exact_u, data.exact_grad_u) <= 1e-12
    nvert = mesh.num_vertices
    sigma = np.concatenate([np.full(nvert, -1.5), np.full(nvert, 2.0)])
    assert l2_error_sigma(mesh, sigma, data.exact_grad_u) <= 1e-12


def test_constant_error_closed_form():
    # u_h = c against exact 0: L2 part c, gradient part 0, boundary part
    # c * sqrt(4n)
    n, c = 4, 0.7
    mesh = build_structured_unit_square(n)
    x_u = np.full(mesh.num_vertices, c)
    want = c + c * math.sqrt(4 * n)
    got = h1h_error_u(mesh, x_u, zero_field, zero_grad)
    assert abs(got - want) <= 1e-12 * want
    assert abs(l2_error_u(mesh, x_u, zero_field) - c) <= 1e-13


def test_error_norms_are_homogeneous():
    mesh = build_structured_unit_square(3)
    rng = np.random.default_rng(71)
    x_u = rng.standard_normal(mesh.num_vertices)
    x_sigma = rng.standard_normal(2 * mesh.num_vertices)

    for err in (
        lambda v: l2_error_u(mesh, v, zero_field),
        lambda v: h1h_error_u(mesh, v, zero_field, zero_grad),
    ):
        assert abs(err(2.0 * x_u) - 2.0 * err(x_u)) <= 1e-12 * err(x_u)
    base = l2_error_sigma(mesh, x_sigma, zero_grad)
    assert abs(l2_error_sigma(mesh, 2.0 * x_sigma, zero_grad) - 2.0 * base) <= 1e-12 * base


def test_blocked_quadrature_matches_a_single_block(monkeypatch):
    # example 2 at n=16 has 512 triangles: blocks of 100 leave a ragged
    # last block of 12, blocks of 512 cover the mesh at once
    mesh = build_structured_unit_square(16)
    data = example2()
    blocks = assemble(mesh, data)
    system = condense(blocks, 0.5, 10.0)
    x_u, report = cg_solve(system.K, system.F)
    assert report.converged
    x_sigma = recover_sigma(blocks, x_u)

    def quantities():
        return (assemble(mesh, data).f1_source,
                l2_error_u(mesh, x_u, data.exact_u),
                h1h_error_u(mesh, x_u, data.exact_u, data.exact_grad_u),
                l2_error_sigma(mesh, x_sigma, data.exact_grad_u))

    monkeypatch.setattr(femcore, "QUADRATURE_BLOCK", mesh.num_triangles)
    whole = quantities()
    monkeypatch.setattr(femcore, "QUADRATURE_BLOCK", 100)
    blocked = quantities()
    np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-14, atol=0)
    for got, want in zip(blocked[1:], whole[1:]):
        assert abs(got - want) <= 1e-14 * want


def read_only(field):
    def frozen(x, y):
        out = field(x, y)
        out.flags.writeable = False
        return out

    return frozen


@pytest.mark.parametrize("problem", [example1, example2, linear_patch])
def test_norms_never_write_into_field_values(problem):
    mesh = build_structured_unit_square(8)
    data = problem()
    rng = np.random.default_rng(43)
    x_u = rng.standard_normal(mesh.num_vertices)
    x_sigma = rng.standard_normal(2 * mesh.num_vertices)

    def norms(exact_u, exact_grad_u):
        return (l2_error_u(mesh, x_u, exact_u),
                h1h_error_u(mesh, x_u, exact_u, exact_grad_u),
                l2_error_sigma(mesh, x_sigma, exact_grad_u))

    assert (norms(read_only(data.exact_u), read_only(data.exact_grad_u))
            == norms(data.exact_u, data.exact_grad_u))


def test_rates_on_synthetic_sequences():
    np.testing.assert_allclose(convergence_rates([0.4, 0.1]), [2.0], atol=1e-15)
    geometric = [3.2 * 4.0 ** (-k) for k in range(6)]
    np.testing.assert_allclose(convergence_rates(geometric), 2.0, atol=1e-13)
    # shift invariance: appending a coarser level does not change the
    # rates of the pairs both sequences share
    shifted = [12.8] + geometric
    np.testing.assert_allclose(convergence_rates(shifted)[1:],
                               convergence_rates(geometric), atol=1e-14)


def test_rates_from_published_rounded_errors():
    # inputs rounded to three significant digits, hence the loose match
    assert abs(convergence_rates([3.74e-2, 8.89e-3])[0] - 2.0742) < 1e-2
    assert abs(convergence_rates([1.98e-1, 1.09e-1])[0] - 0.8654) < 1e-2


def test_rates_degenerate_inputs():
    rates = convergence_rates([1.0, 0.0, 2.0])
    assert math.isnan(rates[0]) and math.isnan(rates[1])
    with pytest.raises(ValueError):
        convergence_rates([1.0])


@pytest.fixture
def table():
    return ErrorTable(
        levels=(2, 4, 8),
        elements=(8, 32, 128),
        err_u_l2=(4.0e-2, 1.0e-2, 2.5e-3),
        err_u_h1h=(2.0e-1, 1.0e-1, 5.0e-2),
        err_sigma_l2=(1.6e-1, 5.66e-2, 2.0e-2),
    )


def test_error_table_rates_align_with_rows(table):
    assert math.isnan(table.rate_u_l2[0])
    np.testing.assert_allclose(table.rate_u_l2[1:], [2.0, 2.0], atol=1e-13)
    np.testing.assert_allclose(table.rate_u_h1h[1:], [1.0, 1.0], atol=1e-13)
    assert table.elements == (8, 32, 128)


def test_error_table_stores_only_its_errors(table):
    assert [f.name for f in dataclasses.fields(ErrorTable)] == [
        "levels", "elements", "err_u_l2", "err_u_h1h", "err_sigma_l2"]
    for errs, rates in ((table.err_u_l2, table.rate_u_l2),
                        (table.err_u_h1h, table.rate_u_h1h),
                        (table.err_sigma_l2, table.rate_sigma_l2)):
        assert rates[1:] == tuple(convergence_rates(errs))
    assert len(table.to_csv().splitlines()) == 4
    assert len(table.to_markdown().splitlines()) == 5
    assert [rec["elements"] for rec in json.loads(table.to_json())["levels"]] == [8, 32, 128]


def test_error_table_rates_follow_the_errors(table):
    for name in ("rate_u_l2", "rate_u_h1h", "rate_sigma_l2"):
        with pytest.raises(AttributeError):
            setattr(table, name, (0.0, 0.0, 0.0))
        with pytest.raises(AttributeError):
            object.__setattr__(table, name, (0.0, 0.0, 0.0))
    finer = dataclasses.replace(table, err_u_l2=(4.0e-2, 5.0e-3, 6.25e-4))
    np.testing.assert_allclose(finer.rate_u_l2[1:], [3.0, 3.0], atol=1e-13)


def test_error_table_csv(table):
    text = table.to_csv(config={"alpha": 10.0})
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "elem,eL2,rateL2,e1h,rate1h,eSig,rateSig"
    first = lines[2].split(",")
    assert first[0] == "8"
    assert first[2] == ""  # no rate on the coarsest level
    assert len(lines) == 5


def test_error_table_markdown(table):
    text = table.to_markdown()
    assert "| elem |" in text
    assert "| 128 |" in text
    assert text.count("\n") >= 5


def test_error_table_json(table):
    doc = json.loads(table.to_json(config={"alpha": 10.0},
                                   solver_reports=[{"iterations": k} for k in (3, 4, 5)]))
    assert doc["config"]["alpha"] == 10.0
    assert len(doc["levels"]) == 3
    assert doc["levels"][0]["rate_u_l2"] is None
    assert abs(doc["levels"][1]["rate_u_l2"] - 2.0) < 1e-13
    assert doc["levels"][2]["solver"]["iterations"] == 5


def test_single_level_table():
    table = ErrorTable((2,), (8,), (1.0,), (2.0,), (3.0,))
    assert math.isnan(table.rate_u_l2[0])
    text = table.to_csv()
    assert len(text.strip().splitlines()) == 2


def test_measured_rates_on_polynomial_problem():
    # end-to-end sanity net: the L2 error of u quarters per refinement
    # at the finest pair, the gradient error lands near the 1.5 regime
    from trifield.cli import StudyConfig, run_study
    from trifield.problems import ExampleId

    result = run_study(StudyConfig(example=ExampleId.EXAMPLE1, levels=(8, 16, 32, 64)))
    table = result.table
    ratio = table.err_u_l2[-2] / table.err_u_l2[-1]
    assert abs(ratio - 4.0) <= 0.3
    assert 0.9 <= table.rate_u_h1h[-1] <= 1.15
    assert 1.3 <= table.rate_sigma_l2[-1] <= 1.7


def test_error_table_rejects_columns_of_other_lengths():
    columns = dict(levels=(2, 4), elements=(8, 32), err_u_l2=(1.0, 0.25),
                   err_u_h1h=(2.0, 1.0), err_sigma_l2=(3.0, 1.0))
    ErrorTable(**columns)
    for name in ("elements", "err_u_l2", "err_u_h1h", "err_sigma_l2"):
        with pytest.raises(ValueError, match=f"column {name} has 1 entries for 2 levels"):
            ErrorTable(**columns | {name: columns[name][:1]})
