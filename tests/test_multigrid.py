"""Multigrid-preconditioned CG on the nested structured meshes."""

import numpy as np
import pytest
import scipy.linalg

from trifield.assembly import assemble
from trifield.cli import (
    MULTIGRID_MIN_LEVEL,
    SolverFailure,
    StudyConfig,
    multigrid_hierarchy,
    run_study,
    solve_level,
)
from trifield.condense import condense
from trifield.linsolve import (
    IndefiniteOperatorError,
    cg_solve,
    multigrid_preconditioner,
)
from trifield.mesh import build_structured_unit_square, prolongation
from trifield.problems import ExampleId, example1, example2

R, ALPHA = 0.5, 10.0


def condensed(n, data=example2, alpha=ALPHA):
    blocks = assemble(build_structured_unit_square(n), data())
    return condense(blocks, R, alpha)


def preconditioner(system, n):
    return multigrid_preconditioner(
        system.K, [prolongation(m) for m in multigrid_hierarchy(n)[1:]]
    )


def reference_cycle(k, prolongations, r):
    """The V-cycle as textbooks write it, with its own Galerkin operators and
    l1 row sums: it forms r - K x before and after the coarse correction."""
    if not prolongations:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(k.toarray()), r)
    p = prolongations[0]
    inv_d = 1.0 / abs(k).sum(axis=1)
    x = inv_d * r
    x += p @ reference_cycle(p.T @ (k @ p), prolongations[1:], p.T @ (r - k @ x))
    x += inv_d * (r - k @ x)
    return x


@pytest.fixture(scope="module")
def nested_example2():
    """{n: report} of example 2 at levels 32, 64, 128, each from the coarser x_u."""
    config = StudyConfig(example=ExampleId.EXAMPLE2, levels=(32, 64, 128))
    return {rec.level: rec.report for rec in run_study(config).solutions}


@pytest.fixture(scope="module")
def solves():
    """{n: (jacobi x, jacobi report, multigrid x, multigrid report)} at tol 1e-12."""
    out = {}
    for n in (64, 128):
        system = condensed(n)
        x_j, rep_j = cg_solve(system.K, system.F, tol=1e-12)
        x_m, rep_m = cg_solve(system.K, system.F, tol=1e-12,
                              precond=preconditioner(system, n))
        out[n] = (x_j, rep_j, x_m, rep_m)
    return out


def test_hierarchy_rule():
    assert multigrid_hierarchy(32) == ()
    assert multigrid_hierarchy(MULTIGRID_MIN_LEVEL) == (64, 32, 16, 8)
    assert multigrid_hierarchy(256) == (256, 128, 64, 32, 16, 8)
    assert multigrid_hierarchy(96) == (96, 48, 24, 12, 6)
    assert multigrid_hierarchy(66) == ()  # 66 -> 33, odd and > 32
    assert multigrid_hierarchy(80) == (80, 40, 20, 10, 5)


def test_galerkin_operators_are_symmetric():
    system = condensed(32)
    mg = multigrid_preconditioner(system.K, [prolongation(16), prolongation(8)])
    # the coarsest operator is not kept: form it from the last record
    _, _, _, restriction, kp = mg.levels[-1]
    operators = [level[0] for level in mg.levels] + [restriction @ kp]
    assert [op.shape[0] for op in operators] == [33**2, 17**2, 9**2]
    for op in operators:
        assert abs(op - op.T).max() <= 1e-12 * abs(op).max()


def test_vcycle_is_a_symmetric_positive_definite_operator():
    system = condensed(16)
    mg = multigrid_preconditioner(system.K, [prolongation(8), prolongation(4)])
    size = system.K.shape[0]
    b = np.column_stack([mg(e) for e in np.eye(size)])
    np.testing.assert_allclose(b, b.T, rtol=0, atol=1e-12 * abs(b).max())
    assert np.linalg.eigvalsh(0.5 * (b + b.T)).min() > 0.0


def test_iterations_stay_bounded(solves):
    iterations = {n: solves[n][3].iterations for n in solves}
    assert all(solves[n][3].converged for n in solves)
    assert max(iterations.values()) <= 25
    assert iterations[128] - iterations[64] <= 3
    # Jacobi needs an order of magnitude more at these sizes
    assert all(solves[n][1].iterations > 5 * iterations[n] for n in solves)


def test_multigrid_solution_matches_jacobi(solves):
    for n, (x_j, rep_j, x_m, rep_m) in solves.items():
        assert rep_j.converged and rep_m.converged
        assert np.linalg.norm(x_m - x_j) <= 1e-9 * np.linalg.norm(x_j)
        assert (rep_m.preconditioner, rep_m.mg_levels) == (None, 0)  # named by its caller
        assert (rep_j.preconditioner, rep_j.mg_levels) == ("jacobi", 0)


def test_solve_level_selects_the_preconditioner_from_the_grid():
    config = StudyConfig()
    report = solve_level(96, example1(), config).report
    assert report.converged
    assert (report.preconditioner, report.mg_levels) == ("multigrid", 5)
    assert report.iterations <= 25
    report = solve_level(66, example1(), config).report
    assert report.converged
    assert (report.preconditioner, report.mg_levels) == ("jacobi", 0)


def test_hierarchy_matrices_have_32_bit_indices():
    system = condensed(64)
    mg = preconditioner(system, 64)
    assert len(mg.levels) == 3
    for k, _, p, restriction, kp in mg.levels:
        for mat in (k, p, restriction, kp, restriction @ kp):
            assert mat.indices.dtype == mat.indptr.dtype == np.int32


@pytest.mark.parametrize("n, coarse", [(32, (16, 8)), (64, (32, 16, 8))])
def test_vcycle_matches_the_reference_cycle(n, coarse):
    # the cycle applies K once per level, taking the residual after the
    # coarse correction from the one before it and the stored K P
    system = condensed(n)
    prolongations = [prolongation(m) for m in coarse]
    mg = multigrid_preconditioner(system.K, prolongations)
    rng = np.random.default_rng(n)
    for r in (system.F, rng.standard_normal(system.F.size)):
        want = reference_cycle(system.K, prolongations, r)
        got = mg(r)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_example2_iterations_at_multigrid_levels(solves, nested_example2):
    # pinned, from zero and from the nested start: a change to the
    # V-cycle's arithmetic that is more than rounding shows here
    assert [solves[n][3].iterations for n in (64, 128)] == [15, 16]
    assert [nested_example2[n].iterations for n in (64, 128)] == [12, 11]


def test_nested_starts_save_iterations_at_multigrid_levels(nested_example2):
    # each level starts from the prolongated solution of the level before
    config = StudyConfig(example=ExampleId.EXAMPLE2, levels=(32, 64, 128))
    nested = nested_example2
    for n in (64, 128):
        cold = solve_level(n, example2(), config).report
        assert nested[n].preconditioner == cold.preconditioner == "multigrid"
        assert nested[n].iterations < cold.iterations
        assert nested[n].initial_residual < cold.initial_residual == 1.0


@pytest.mark.parametrize("n, size", [(64, 1089), (16, 81)])
def test_solve_level_refuses_a_coarse_solution_of_the_wrong_size(monkeypatch, n, size):
    # multigrid (64) and Jacobi (16) levels alike, before the mesh is built
    import trifield.cli

    def no_mesh(level):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(trifield.cli, "build_structured_unit_square", no_mesh)
    for coarse in (np.zeros(10), np.zeros((size, 1))):
        with pytest.raises(ValueError, match=rf"n={n}\b.*\({size},\)"):
            solve_level(n, example1(), StudyConfig(), coarse)


@pytest.mark.parametrize("example, levels, builds", [
    (ExampleId.EXAMPLE2, (16, 32, 64, 128, 256),
     [32, 16, 8, 64, 32, 16, 8, 128, 64, 32, 16, 8]),
    (ExampleId.EXAMPLE1, (8, 16, 32), []),
], ids=["example2", "example1"])
def test_each_multigrid_level_builds_its_prolongations_once(monkeypatch, example,
                                                            levels, builds):
    # the V-cycle's first prolongation also carries the nested start, and a
    # Jacobi level starts from zero, so it builds none
    import trifield.cli

    built = []

    def counted(n_coarse):
        built.append(n_coarse)
        return prolongation(n_coarse)

    monkeypatch.setattr(trifield.cli, "prolongation", counted)
    result = run_study(StudyConfig(example=example, levels=levels))
    assert built == builds
    for rec in result.solutions:
        if rec.report.preconditioner == "jacobi":
            assert rec.report.initial_residual == 1.0
        else:
            assert rec.report.initial_residual < 1.0


def test_solve_level_times_the_multigrid_set_up(monkeypatch):
    import time

    import trifield.cli

    def slow_set_up(*args):
        time.sleep(0.05)
        return multigrid_preconditioner(*args)

    monkeypatch.setattr(trifield.cli, "multigrid_preconditioner", slow_set_up)
    report = solve_level(64, example1(), StudyConfig()).report
    assert report.converged and report.wall_time >= 0.05


def test_prolongations_must_nest():
    system = condensed(8)
    with pytest.raises(ValueError, match="does not match"):
        multigrid_preconditioner(system.K, [prolongation(2)])


def test_zero_penalty_fails_the_coarse_factorisation():
    with pytest.raises(IndefiniteOperatorError):
        preconditioner(condensed(64, example1, alpha=0.0), 64)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_small_penalty_is_reported_not_raised_at_multigrid_levels(alpha):
    # alpha = 0 fails in the multigrid set-up, alpha = 0.5 inside CG
    report = solve_level(64, example1(), StudyConfig(alpha=alpha)).report
    assert report.preconditioner == "multigrid"
    assert report.indefinite or not report.converged


def test_small_penalty_study_fails_with_indefinite_operator():
    with pytest.raises(SolverFailure, match="indefinite operator"):
        run_study(StudyConfig(alpha=0.5, levels=(64,)))
