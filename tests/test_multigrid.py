"""Multigrid-preconditioned CG on the nested structured meshes."""

import numpy as np
import pytest

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
from trifield.problems import example1, example2

R, ALPHA = 0.5, 10.0


def condensed(n, data=example2, alpha=ALPHA):
    blocks = assemble(build_structured_unit_square(n), data(), alpha)
    return condense(blocks, R, alpha)


def preconditioner(system, n):
    return multigrid_preconditioner(
        system.K, [prolongation(m) for m in multigrid_hierarchy(n)[1:]]
    )


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
    assert [op.shape[0] for op in mg.operators] == [33**2, 17**2, 9**2]
    for op in mg.operators:
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
