"""Acceptance gate: each test checks one criterion and prints a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from test_assembly import pairing_reference

from trifield.analysis import convergence_rates
from trifield.assembly import assemble
from trifield.cli import StudyConfig, run_oracle_check, run_study, walk_levels
from trifield.condense import condense, recover_phi, recover_sigma
from trifield.femcore import edge_quadrature, triangle_quadrature
from trifield.linsolve import cg_solve
from trifield.mesh import build_structured_unit_square
from trifield.problems import ExampleId, by_id, example1, example2

R, ALPHA = 0.5, 10.0


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def study_ex1():
    return run_study(StudyConfig(example=ExampleId.EXAMPLE1))


@pytest.fixture(scope="module")
def study_ex2():
    return run_study(StudyConfig(example=ExampleId.EXAMPLE2))


def finest_rates(result):
    table = result.table
    return table.rate_u_l2[-1], table.rate_u_h1h[-1], table.rate_sigma_l2[-1]


def test_criterion_1_rates_example_1(study_ex1):
    r_l2, r_h1h, r_sig = finest_rates(study_ex1)
    ok = (
        abs(r_l2 - 2.04) <= 0.15
        and abs(r_h1h - 1.00) <= 0.10
        and 1.35 <= r_sig <= 1.75
    )
    assert report(
        1, ok,
        f"example 1 finest rates: L2(u)={r_l2:.4f}, 1h(u)={r_h1h:.4f}, L2(sigma)={r_sig:.4f}",
    )


def test_criterion_2_rates_example_2(study_ex2):
    r_l2, r_h1h, r_sig = finest_rates(study_ex2)
    ok = (
        abs(r_l2 - 2.07) <= 0.15
        and abs(r_h1h - 1.01) <= 0.10
        and 1.35 <= r_sig <= 1.75
    )
    assert report(
        2, ok,
        f"example 2 finest rates: L2(u)={r_l2:.4f}, 1h(u)={r_h1h:.4f}, L2(sigma)={r_sig:.4f}",
    )


def test_criterion_2_rates_example_2_to_n_256_on_the_multigrid_path():
    # the paper's windows at the finest pair, with n = 64, 128 and 256
    # solved by multigrid-preconditioned CG
    result = run_study(StudyConfig(example=ExampleId.EXAMPLE2, levels=(16, 32, 64, 128, 256)))
    reports = [rec.report for rec in result.solutions]
    assert all(rep.converged for rep in reports), reports
    assert [rep.preconditioner for rep in reports[2:]] == ["multigrid"] * 3, reports
    r_l2, r_h1h, r_sig = finest_rates(result)
    ok = 1.92 <= r_l2 <= 2.22 and 0.91 <= r_h1h <= 1.11 and 1.35 <= r_sig <= 1.75
    assert report(
        2, ok,
        f"example 2 rates at n=256: L2(u)={r_l2:.4f}, 1h(u)={r_h1h:.4f}, L2(sigma)={r_sig:.4f}",
    )


def test_criterion_3_absolute_magnitudes_documented():
    # absolute table errors depend on unreported penalty/stabilisation
    # weights, so the README must say they are not reproduction targets
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().lower()
    ok = "absolute error" in text and "not" in text and "rate" in text
    assert report(3, ok, f"README states the absolute-magnitude caveat: {ok}")


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    ok = True
    for example in (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2):
        check = run_oracle_check(StudyConfig(example=example, levels=(1, 2, 4, 8)))
        level_worst = max(
            max(check.discrepancy_u),
            max(check.discrepancy_sigma),
            max(check.discrepancy_phi),
        )
        worst = max(worst, level_worst)
        ok = ok and check.passed and level_worst <= 1e-9
    assert report(4, ok, f"condensed vs full saddle, worst relative diff {worst:.3e}")


def test_criterion_4_oracle_equivalence_at_a_multigrid_level():
    # n = 64 is the first level that a study solves with multigrid
    worst, ok = {}, True
    for example in (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2):
        check = run_oracle_check(StudyConfig(example=example, levels=(16, 32, 64)))
        worst[example.value] = max(
            *check.discrepancy_u, *check.discrepancy_sigma, *check.discrepancy_phi)
        ok = ok and check.passed
    assert report(4, ok, "condensed vs full saddle at n=16,32,64, worst relative diff "
                  + ", ".join(f"{name} {w:.3e}" for name, w in worst.items()))


def test_criterion_5_patch_test():
    worst = 0.0
    for n in (2, 8):
        config = StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(n,), cg_tol=1e-14)
        result = run_study(config)
        worst = max(
            worst,
            result.table.err_u_l2[0],
            result.table.err_u_h1h[0],
            result.table.err_sigma_l2[0],
        )
    ok = worst <= 1e-10
    assert report(5, ok, f"u = 1 + 2x + 3y at n in {{2, 8}}, worst error {worst:.3e}")


def test_criterion_6_biorthogonality():
    worst_off, worst_diag = 0.0, 0.0
    for n in (2, 8):
        mesh = build_structured_unit_square(n)
        pairing = pairing_reference(mesh)
        diag = np.diag(pairing).copy()
        worst_off = max(worst_off, np.abs(pairing - np.diag(diag)).max())

        areas = mesh.areas
        want = np.zeros(mesh.num_vertices)
        for t, tri in enumerate(mesh.triangles):
            want[tri] += areas[t] / 3.0
        worst_diag = max(worst_diag, np.abs(diag - want).max() / want.min())
    ok = worst_off <= 1e-13 and worst_diag <= 1e-13
    assert report(
        6, ok,
        f"max off-diagonal {worst_off:.3e}, max relative diagonal defect {worst_diag:.3e}",
    )


def test_criterion_7_structure_checks(study_ex1, study_ex2):
    # a study keeps no K, so the same levels are walked again for it
    worst_asym = 0.0
    all_converged = True
    for result in (study_ex1, study_ex2):
        config = result.config
        for sol in walk_levels(config, by_id(config.example)):
            k = sol.system.K
            asym = scipy.sparse.linalg.norm(k - k.T, "fro") / scipy.sparse.linalg.norm(k, "fro")
            worst_asym = max(worst_asym, asym)
        all_converged = all_converged and all(
            record.report.converged for record in result.solutions)

    mesh = build_structured_unit_square(8)
    blocks = assemble(mesh, example1())
    degenerate = condense(blocks, R, alpha=0.0)
    _, bad_report = cg_solve(degenerate.K, degenerate.F, tol=1e-12, maxit=5000)
    negative_test = bad_report.indefinite or not bad_report.converged

    ok = worst_asym <= 1e-12 and all_converged and negative_test
    assert report(
        7, ok,
        f"K asymmetry {worst_asym:.3e}, CG converged at every level: {all_converged}, "
        f"alpha=0 flagged: {negative_test}",
    )


def test_criterion_8_dual_scaling_invariance():
    gamma = 7.0
    mesh = build_structured_unit_square(4)
    data = example2()
    plain = assemble(mesh, data)
    # rescaling the dual basis by gamma rescales D and B, and nothing else
    scaled = dataclasses.replace(plain, D=gamma * plain.D, B=gamma * plain.B)

    results = []
    for blocks in (plain, scaled):
        system = condense(blocks, R, ALPHA)
        x_u, rep = cg_solve(system.K, system.F, tol=1e-14)
        assert rep.converged
        sigma = recover_sigma(blocks, x_u)
        phi = recover_phi(blocks, x_u, sigma, R)
        results.append((x_u, sigma, phi))

    (u0, s0, p0), (u1, s1, p1) = results
    d_u = np.abs(u1 - u0).max() / np.abs(u0).max()
    d_s = np.abs(s1 - s0).max() / np.abs(s0).max()
    d_p = np.abs(gamma * p1 - p0).max() / np.abs(p0).max()
    ok = d_u <= 1e-12 and d_s <= 1e-12 and d_p <= 1e-12
    assert report(
        8, ok,
        f"gamma=7 at n=4: d(x_u)={d_u:.3e}, d(x_sigma)={d_s:.3e}, "
        f"d(gamma * x_phi)={d_p:.3e}",
    )


def test_criterion_9_property_suites():
    rng = np.random.default_rng(2024)
    ok = True

    # quadrature exactness on random monomials
    for degree in (2, 6):
        rule = triangle_quadrature(degree)
        for _ in range(20):
            while True:
                a, b, c = rng.integers(0, degree + 1, size=3)
                if a + b + c <= degree:
                    break
            quad = np.sum(
                rule.weights
                * rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.points[:, 2] ** c
            )
            exact = (
                math.factorial(a) * math.factorial(b) * math.factorial(c)
                / math.factorial(a + b + c + 2)
            )
            ok = ok and abs(quad - exact) < 1e-13
    for degree in (3, 5):
        rule = edge_quadrature(degree)
        for k in rng.integers(0, degree + 1, size=10):
            ok = ok and abs(np.sum(rule.weights * rule.points**k) - 1.0 / (k + 1)) < 1e-14

    # sparse product / transpose adjointness
    dense = rng.standard_normal((9, 7))
    dense[rng.random((9, 7)) > 0.5] = 0.0
    mat = scipy.sparse.csr_array(dense)
    for _ in range(10):
        x = rng.standard_normal(7)
        y = rng.standard_normal(9)
        ok = ok and abs((mat @ x) @ y - x @ (mat.T @ y)) < 1e-13

    # rate computation on synthetic geometric sequences
    for rate in (0.5, 1.0, 1.5, 2.0):
        errors = [7.3 * 2.0 ** (-rate * k) for k in range(5)]
        ok = ok and np.allclose(convergence_rates(errors)[1:], rate, atol=1e-12)

    # norm homogeneity under scaling of the error field
    from trifield.analysis import h1h_error_u, l2_error_u

    mesh = build_structured_unit_square(3)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    zero_g = lambda x, y: np.zeros((2, *np.asarray(x).shape))
    v = rng.standard_normal(mesh.num_vertices)
    for err in (
        lambda w: l2_error_u(mesh, w, zero),
        lambda w: h1h_error_u(mesh, w, zero, zero_g),
    ):
        ok = ok and abs(err(2.0 * v) - 2.0 * err(v)) <= 1e-12 * err(v)

    assert report(9, ok, "quadrature exactness, adjointness, synthetic rates, homogeneity")
