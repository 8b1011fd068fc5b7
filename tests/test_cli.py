import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import trifield.cli
from trifield.cli import (
    ORACLE_TOLERANCE,
    REPORT_FORMATS,
    ConfigError,
    OracleCheckResult,
    StudyConfig,
    build_parser,
    main,
    run_oracle_check,
    run_study,
    solve_level,
    walk_levels,
)
from trifield.condense import ORACLE_MAX_LEVEL
from trifield.linsolve import SingularMatrixError, SolveReport, canonical, cg_solve
from trifield.problems import ExampleId, example1, linear_patch

PATCH_ARGS = ["--example", "patch", "--levels", "2,4"]


def test_config_validation():
    StudyConfig().validate()
    with pytest.raises(ConfigError):
        StudyConfig(r=1.0).validate()
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ConfigError, match="alpha"):
            StudyConfig(alpha=alpha).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=()).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(4, 2)).validate()
    # levels that would fail in the mesh, fail in the JSON report, or run as n=1
    for levels in ((2.0, 4.0), (np.int64(2), np.int64(4)), (True,)):
        with pytest.raises(ConfigError, match=re.escape(f"got {levels[0]!r}")):
            StudyConfig(levels=levels).validate()
    # only a tuple: a list or a range would run and leave the config
    # unhashable, an array or a generator would fail outside ConfigError
    for levels, name in (([2, 4], "list"), (range(2, 5, 2), "range"),
                         (np.array([2, 4]), "ndarray"), ((n for n in (2, 4)), "generator")):
        with pytest.raises(ConfigError, match=f"levels must be a tuple, got {name}"):
            StudyConfig(levels=levels).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(0, 2)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(2, 3)).validate()  # rates need halving
    with pytest.raises(ConfigError):
        StudyConfig(cg_tol=2.0).validate()
    # below machine epsilon no relative residual can be certified, and at
    # 1e-300 CG's r.z underflows to 0 and reads as an indefinite operator
    for tol in (1e-17, 1e-300):
        with pytest.raises(ConfigError, match=re.escape(f"got {tol!r}")):
            StudyConfig(cg_tol=tol).validate()
    StudyConfig(cg_tol=np.finfo(float).eps).validate()
    # values that would run and then fail in the report, run as 1.0, or
    # fail in `by_id` with a misleading message
    for bad in (dict(r=np.float32(0.5)), dict(alpha=True), dict(example="example1")):
        (name, value), = bad.items()
        with pytest.raises(ConfigError, match=f"^{name}.*got {re.escape(repr(value))}$"):
            StudyConfig(**bad).validate()
    # an int beyond the float range passes every range check above and
    # would overflow once the study converts it
    for name in ("r", "alpha", "cg_tol"):
        for value in (10**400, -10**400):
            with pytest.raises(ConfigError, match=f"^{name} must lie within the float range$"):
                StudyConfig(**{name: value}).validate()
    with pytest.raises(ConfigError, match="^alpha must lie within the float range$"):
        run_study(StudyConfig(alpha=10**400, levels=(2,)))
    # a float64 is a float, and the report serialises it
    config = StudyConfig(r=np.float64(0.5))
    config.validate()
    assert json.loads(json.dumps(config.echo()))["r"] == 0.5


def test_config_has_only_the_values_that_change_the_numbers():
    fields = ["example", "levels", "r", "alpha", "cg_tol"]
    assert [f.name for f in dataclasses.fields(StudyConfig)] == fields
    config = StudyConfig(levels=(2, 4))
    doc = json.loads(run_study(config).render("json"))
    assert sorted(doc["config"]) == sorted(fields)
    assert doc["config"] == config.echo()
    # equal configs render equal reports, whether alpha is an int or a float
    as_int, as_float = StudyConfig(levels=(2,), alpha=10), StudyConfig(levels=(2,), alpha=10.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    result = run_study(as_int)
    for fmt in REPORT_FORMATS:
        assert result.render(fmt) == dataclasses.replace(result, config=as_float).render(fmt)


def test_render_formats_from_the_python_api():
    result = run_study(StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(2, 4)))
    md = result.render("md")
    assert md.startswith("config: {")
    assert "| elem | err u L2 |" in md
    csv_lines = result.render("csv").splitlines()
    assert csv_lines[0].startswith("# config: {")
    assert csv_lines[1] == "elem,eL2,rateL2,e1h,rate1h,eSig,rateSig"
    assert len(csv_lines) == 4
    doc = json.loads(result.render("json"))
    assert [record["level"] for record in doc["levels"]] == [2, 4]
    with pytest.raises(ValueError, match="yaml"):
        result.render("yaml")


def test_each_format_has_one_name():
    # --format offers exactly the names that StudyResult.render accepts
    action = next(a for a in build_parser()._actions if a.dest == "format")
    assert action.choices == REPORT_FORMATS
    result = run_study(StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(2,)))
    for fmt in REPORT_FORMATS:
        assert result.render(fmt).endswith("\n")
    for fmt in ("markdown", "MD", "yaml"):
        with pytest.raises(ValueError, match=f"unknown output format {fmt!r}"):
            result.render(fmt)


def test_oracle_check_rejects_large_levels_before_solving(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solved a level the oracle rejects")

    monkeypatch.setattr("trifield.cli.solve_level", fail)
    with pytest.raises(ConfigError):
        run_oracle_check(StudyConfig(levels=(2, 2 * ORACLE_MAX_LEVEL)))  # not doubling either
    with pytest.raises(ConfigError,
                       match=f"oracle is restricted to levels <= {ORACLE_MAX_LEVEL}"):
        run_oracle_check(StudyConfig(levels=(ORACLE_MAX_LEVEL, 2 * ORACLE_MAX_LEVEL)))


def test_run_study_patch_levels_are_exact():
    config = StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(4,), cg_tol=1e-14)
    result = run_study(config)
    assert result.table.err_u_l2[0] <= 1e-10
    assert result.table.err_u_h1h[0] <= 1e-10
    assert result.table.err_sigma_l2[0] <= 1e-10


def test_run_study_reports_are_complete():
    config = StudyConfig(example=ExampleId.EXAMPLE1, levels=(2, 4))
    result = run_study(config)
    doc = json.loads(result.render("json"))
    assert doc["config"]["example"] == "example1"
    assert doc["config"]["r"] == 0.5
    assert len(doc["levels"]) == 2
    for record in doc["levels"]:
        assert record["solver"]["converged"] is True
        assert record["solver"]["preconditioner"] == "jacobi"
        assert record["solver"]["mg_levels"] == 0
        assert "wall" not in json.dumps(record["solver"])  # deterministic payload

    # level 64 runs the multigrid path; wall times are reported in process only
    for example in (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2):
        config = StudyConfig(example=example, levels=(32, 64))
        result = run_study(config)
        reports = result.solver_reports()
        solver = [record["solver"] for record in json.loads(result.render("json"))["levels"]]
        assert solver == [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]
        assert [s["level"] for s in solver] == [32, 64]
        assert [s["preconditioner"] for s in solver] == ["jacobi", "multigrid"]
        assert [s["mg_levels"] for s in solver] == [0, 4]
        assert [s["indefinite"] for s in solver] == [False, False]
        for record, sol in zip(reports, result.solutions):
            assert record["wall_time"] == sol.report.wall_time > 0.0
            assert record["iterations"] == sol.report.iterations > 0
            assert record["converged"] is True
            assert record["relative_residual"] <= config.cg_tol
        # level 32 starts from zero, level 64 from the prolongated level-32 solution
        assert reports[0]["initial_residual"] == 1.0
        assert 0.0 < reports[1]["initial_residual"] < 1.0


def test_run_study_accepts_custom_problem():
    import numpy as np

    from trifield.problems import ProblemData

    data = ProblemData(
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), -4.0),
        g_dirichlet=lambda x, y: x**2 + y**2,
        exact_u=lambda x, y: x**2 + y**2,
        exact_grad_u=lambda x, y: np.stack([2.0 * x, 2.0 * y]),
    )
    config = StudyConfig(example=ExampleId.CUSTOM, levels=(4, 8, 16))
    result = run_study(config, data=data)
    assert 1.7 <= result.table.rate_u_l2[-1] <= 2.3
    assert result.table.err_u_l2[-1] < result.table.err_u_l2[0]


def test_custom_example_without_data_is_a_config_error(monkeypatch):
    # refused before any level is solved, as every other bad config is
    def solve_level(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(trifield.cli, "solve_level", solve_level)
    config = StudyConfig(example=ExampleId.CUSTOM, levels=(2,))
    for run in (run_study, run_oracle_check):
        with pytest.raises(ConfigError, match="custom example"):
            run(config)


@pytest.mark.parametrize("missing", ["exact_u", "exact_grad_u"])
def test_a_problem_without_a_manufactured_solution_is_a_config_error(missing):
    data = dataclasses.replace(example1(), **{missing: None})
    config = StudyConfig(example=ExampleId.CUSTOM, levels=(2,))
    with pytest.raises(ConfigError, match="manufactured solution"):
        run_study(config, data=data)


def test_solver_record_is_the_solve_report():
    # a field added to SolveReport reaches both records without an edit in cli
    result = run_study(StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(2, 4)))
    fields = {"level"} | {f.name for f in dataclasses.fields(SolveReport)}
    for record in result.solver_reports():
        assert set(record) == fields
    for level in json.loads(result.render("json"))["levels"]:
        assert set(level["solver"]) == fields - {"wall_time"}
        assert level["solver"]["indefinite"] is False


def nan_source_problem():
    from trifield.problems import ProblemData

    return ProblemData(
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan),
        g_dirichlet=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        exact_u=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        exact_grad_u=lambda x, y: np.zeros((2, *np.shape(x))),
    )


def test_non_finite_data_fails_fast():
    import time

    config = StudyConfig(example=ExampleId.CUSTOM, levels=(4, 8))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"loads at level n=4 are not finite"):
        run_study(config, data=nan_source_problem())
    assert time.perf_counter() - start < 1.0


def test_main_non_finite_data_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("trifield.cli.by_id", lambda example: nan_source_problem())
    assert main(["--levels", "4"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_a_nan_exact_solution_gives_a_strict_json_report(monkeypatch, capsys):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    nan_u = dataclasses.replace(
        example1(), exact_u=lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan))
    monkeypatch.setattr("trifield.cli.by_id", lambda example: nan_u)
    assert main(["--levels", "2,4", "--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out, parse_constant=refuse)["levels"]
    assert [(level["err_u_l2"], level["err_u_h1h"]) for level in levels] == [(None, None)] * 2
    assert all(level["err_sigma_l2"] > 0.0 for level in levels)
    # the text formats still print the NaN
    assert main(["--levels", "2,4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "8,nan,,nan,,7.912415e-02,", "32,nan,,nan,,3.389948e-02,1.2229"]


def test_a_failed_oracle_check_exits_4_with_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr("trifield.cli.ORACLE_TOLERANCE", 0.0)
    assert main(["--example", "1", "--levels", "2,4", "--oracle"]) == 4
    out, err = capsys.readouterr()
    assert "oracle check: FAIL" in out
    assert err == "error: the condensed and full-saddle solutions differ by more than 0.0e+00\n"


def test_a_singular_oracle_exits_4_with_one_error_line(monkeypatch, capsys):
    def singular(*args):
        raise SingularMatrixError("matrix is singular: pivot 1 of 45 is exactly zero")

    monkeypatch.setattr("trifield.cli.solve_full_saddle", singular)
    assert main(["--example", "1", "--levels", "2,4", "--oracle"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the full-saddle oracle failed at level n=2: ")
    assert err.count("\n") == 1


def test_run_oracle_check_passes_small_levels():
    for example in (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2):
        check = run_oracle_check(StudyConfig(example=example, levels=(2, 4)))
        assert check.passed
        assert max(check.discrepancy_u) <= 1e-10


def test_the_oracle_solves_cg_at_1e_13_or_tighter(monkeypatch):
    tols = []

    def recording_cg_solve(*args, tol, **kwargs):
        tols.append(tol)
        return cg_solve(*args, tol=tol, **kwargs)

    monkeypatch.setattr("trifield.cli.cg_solve", recording_cg_solve)
    for cg_tol, want in ((1e-8, 1e-13), (1e-14, 1e-14)):
        tols.clear()
        config = StudyConfig(example=ExampleId.EXAMPLE1, levels=(2, 4), cg_tol=cg_tol)
        assert run_oracle_check(config).passed
        assert tols == [want, want], cg_tol


def test_the_oracle_of_example_1_passes_at_large_penalties():
    # alpha C sets the saddle matrix's largest entry, yet the matrix is
    # far from singular: LU solves it as accurately as at alpha = 10
    for alpha in (1e12, 1e300):
        check = run_oracle_check(
            StudyConfig(example=ExampleId.EXAMPLE1, levels=(4, 8, 16), alpha=alpha))
        assert check.passed, (alpha, check)


def test_example_2_at_a_large_penalty_fails_the_oracle_by_a_discrepancy(capsys):
    # the full-saddle LU solves the system; the condensed CG, whose
    # relative residual is taken on an F that alpha f1 dominates, does not
    # match it to the tolerance
    argv = ["--example", "2", "--alpha", "1e12", "--levels", "4,8,16", "--oracle"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert "| 16 |" in out and "oracle check: FAIL" in out
    assert err == ("error: the condensed and full-saddle solutions differ by more "
                   f"than {ORACLE_TOLERANCE:.1e}\n")


def test_results_store_only_their_inputs():
    from trifield.assembly import BlockSystem
    from trifield.cli import LevelRecord, LevelSolution, StudyResult
    from trifield.condense import CondensedSystem

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(BlockSystem) == ["S", "M", "D", "A", "B", "C",
                                  "f1_source", "f1_penalty", "f2"]
    assert names(CondensedSystem) == ["K", "F"]
    assert names(LevelSolution) == ["mesh", "blocks", "system", "x_u", "x_sigma", "report"]
    assert names(LevelRecord) == ["level", "report"]
    assert names(StudyResult) == ["config", "table", "solutions"]
    assert names(OracleCheckResult) == ["levels", "discrepancy_u", "discrepancy_sigma",
                                        "discrepancy_phi"]
    config = StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(2,))
    sol, = walk_levels(config, linear_patch())
    assert sol.level == sol.mesh.level == 2
    assert sol.blocks.n_primal == sol.mesh.num_vertices == 9
    record, = run_study(config).solutions
    assert record.level == 2 and record.report.converged


def test_oracle_check_fails_when_any_discrepancy_is_nan_or_too_large():
    fine = (1e-14, 1e-14)
    assert OracleCheckResult((2, 4), fine, fine, fine).passed
    for bad in ((1e-14, np.nan), (np.nan, 1e-14), (1e-14, 1e-8)):
        assert not OracleCheckResult((2, 4), fine, bad, fine).passed
        assert not OracleCheckResult((2, 4), bad, fine, fine).passed
    assert "oracle check: FAIL (tolerance 1.0e-09)" in OracleCheckResult(
        (2, 4), fine, fine, (np.nan, 0.0)).render()


def test_a_discrepancy_against_a_zero_reference_is_absolute():
    # no built-in example has a field that is zero at every vertex
    assert trifield.cli._rel_max_diff(np.array([0.0, -2e-12]), np.zeros(2)) == 2e-12
    assert trifield.cli._rel_max_diff(np.zeros(2), np.zeros(2)) == 0.0


def test_main_invalid_config_exits_2(capsys):
    assert main(["--r", "1.5"]) == 2
    assert main(["--levels", "4,2"]) == 2
    assert main(["--levels", "abc"]) == 2
    assert main(["--oracle", "--levels", f"2,{2 * ORACLE_MAX_LEVEL}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["--oracle", "--levels", f"{ORACLE_MAX_LEVEL},{2 * ORACLE_MAX_LEVEL}"]) == 2
    assert "oracle is restricted" in capsys.readouterr().err
    # an empty token is refused, not skipped: "2,,4" would otherwise run as "2,4"
    # ASCII digits only: int() would run "1_6" as 16, "٢" as 2 and "+4" as 4
    for levels in ("2,,4", "2,", "1_6", "٢", "+4", "٢,٤"):
        assert main(["--example", "patch", "--levels", levels]) == 2
        assert capsys.readouterr().err == f"error: cannot parse levels {levels!r}\n"
    # below machine epsilon, as `validate` refuses it
    assert main([*PATCH_ARGS, "--cg-tol", "1e-300"]) == 2
    assert "cg tolerance must be in [eps, 1), got 1e-300" in capsys.readouterr().err
    for alpha in ("inf", "nan"):
        assert main(["--example", "1", "--levels", "2,4", "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert "error: alpha must be positive and finite" in err
        assert "not finite" not in err
    # a finite alpha that overflows example 2's load, on the Jacobi, oracle
    # and multigrid paths
    for extra in (["--levels", "2,4"], ["--levels", "2,4", "--oracle"], ["--levels", "64"]):
        assert main(["--example", "2", "--alpha", "1e308", *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "not finite with alpha = 1e+308" in err
    # a malformed argument: one line, not argparse's usage block and SystemExit
    assert main(["--r", "abc"]) == 2
    assert capsys.readouterr().err == "error: argument --r: invalid float value: 'abc'\n"
    assert main(["--levels", "2", "--bogus"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"


def test_main_solver_failure_exits_3(capsys):
    code = main(["--example", "1", "--levels", "64", "--cg-tol", "1e-14"])
    assert code == 3
    err = capsys.readouterr().err
    assert "CG failed" in err and "non-convergence" in err
    # negative curvature inside CG on the multigrid path
    assert main(["--example", "1", "--levels", "64", "--alpha", "0.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: CG failed at level n=64: indefinite operator")


def fresh_interpreter_env():
    """The environment of a child interpreter that imports this trifield."""
    src = Path(trifield.cli.__file__).parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}


def test_a_level_too_large_for_memory_exits_2_with_one_error_line():
    # n = 65536 needs a 32 GiB array at once; the child process may map
    # at most 1 GiB, so it fails at once on any host
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "trifield", "--levels", "65536"],
                          capture_output=True, text=True, timeout=120,
                          env={**fresh_interpreter_env(), "OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), proc.stderr


def test_a_stagnating_cg_stops_long_before_its_cap():
    # example 1 at n = 64 cannot reach 1e-14: its true residual stalls
    # near 5e-14, and only stagnation stops CG short of its 20,000 cap
    report = solve_level(64, example1(), StudyConfig(cg_tol=1e-14)).report
    assert not report.converged and not report.indefinite
    assert report.iterations <= 60
    assert 1e-14 < report.relative_residual < 1e-12


def test_main_markdown_to_stdout(capsys):
    assert main(PATCH_ARGS) == 0
    out = capsys.readouterr().out
    assert "| elem |" in out
    assert "config:" in out


def test_main_writes_csv_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main([*PATCH_ARGS, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "elem,eL2,rateL2,e1h,rate1h,eSig,rateSig"
    assert len(lines) == 4


def test_output_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main([*PATCH_ARGS, "--format", "json", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    csv_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csv_paths:
        assert main([*PATCH_ARGS, "--format", "csv", "--out", str(path)]) == 0
    assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()


def test_main_oracle_mode(capsys):
    assert main(["--example", "2", "--levels", "2,4", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle check: PASS" in out


def test_main_oracle_rejects_exports(tmp_path, capsys):
    mesh_dir, mat_dir, out = tmp_path / "D", tmp_path / "E", tmp_path / "report"
    for exports in (["--export-mesh", str(mesh_dir)], ["--export-matrices", str(mat_dir)],
                    ["--export-mesh", str(mesh_dir), "--export-matrices", str(mat_dir)],
                    ["--format", "csv"], ["--format", "json"]):
        assert main(["--levels", "2,4", "--oracle", "--out", str(out), *exports]) == 2
        assert "apply to studies" in capsys.readouterr().err
    assert not mesh_dir.exists() and not mat_dir.exists() and not out.exists()


def test_main_unwritable_output_exits_2(tmp_path, capsys):
    # a directory as --out fails after the study, a file as --export-mesh
    # at its first level
    assert main([*PATCH_ARGS, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--example", "2", "--levels", "2,4", "--oracle",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*PATCH_ARGS, "--export-mesh", str(taken),
                 "--out", str(tmp_path / "t.md")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exports(tmp_path):
    mesh_dir = tmp_path / "mesh"
    mat_dir = tmp_path / "mat"
    assert main([
        "--example", "patch", "--levels", "2,4",
        "--export-mesh", str(mesh_dir), "--export-matrices", str(mat_dir),
        "--out", str(tmp_path / "t.md"),
    ]) == 0
    for n in (2, 4):
        vertices = (n + 1) ** 2
        nodes = np.loadtxt(mesh_dir / f"mesh-n{n}.node")
        assert nodes.shape == (vertices, 2)
        assert np.loadtxt(mesh_dir / f"mesh-n{n}.ele").shape == (2 * n * n, 3)

        k = scipy.io.mmread(mat_dir / f"K-n{n}.mtx").toarray()
        assert k.shape == (vertices, vertices)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        for name in ("S", "M", "A", "B", "C"):
            assert (mat_dir / f"{name}-n{n}.mtx").exists()
        assert scipy.io.mmread(mat_dir / f"M-n{n}.mtx").shape == (2 * vertices,) * 2


def test_exported_matrices_read_back_bitwise(tmp_path):
    # K is symmetric only to rounding: a file holding its lower triangle
    # differed from the solved K in about a tenth of its entries
    config = StudyConfig(example=ExampleId.EXAMPLE1, levels=(2, 4))
    assert main(["--example", "1", "--levels", "2,4", "--export-matrices", str(tmp_path),
                 "--out", str(tmp_path / "t.md")]) == 0
    for sol in walk_levels(config, example1()):
        matrices = {"K": sol.system.K} | {
            name: getattr(sol.blocks, name) for name in ("S", "M", "A", "B", "C")}
        for name, want in matrices.items():
            path = tmp_path / f"{name}-n{sol.level}.mtx"
            assert path.read_text().splitlines()[0].split()[-1] == "general"
            got = canonical(scipy.io.mmread(path))
            for attr in ("shape", "indptr", "indices"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), (path, attr)
            assert got.data.tobytes() == want.data.tobytes(), path


def test_a_failed_level_keeps_the_earlier_levels_files(tmp_path, monkeypatch, capsys):
    solve = trifield.cli.solve_level

    def fail_at_4(n, data, config, coarse=None):
        sol = solve(n, data, config, coarse)
        if n == 4:
            report = dataclasses.replace(sol.report, converged=False)
            sol = dataclasses.replace(sol, report=report)
        return sol

    monkeypatch.setattr("trifield.cli.solve_level", fail_at_4)
    mesh_dir, mat_dir = tmp_path / "mesh", tmp_path / "mat"
    assert main(["--example", "1", "--levels", "2,4", "--export-mesh", str(mesh_dir),
                 "--export-matrices", str(mat_dir)]) == 3
    assert "CG failed at level n=4" in capsys.readouterr().err
    assert sorted(p.name for p in mesh_dir.iterdir()) == ["mesh-n2.ele", "mesh-n2.node"]
    assert sorted(p.name for p in mat_dir.iterdir()) == [
        f"{name}-n2.mtx" for name in "ABCKMS"]


def test_an_export_failing_mid_study_exits_2(tmp_path, capsys):
    mat_dir = tmp_path / "mat"
    (mat_dir / "K-n4.mtx").mkdir(parents=True)  # level 4's K cannot be written
    out = tmp_path / "t.md"
    assert main(["--example", "1", "--levels", "2,4,8", "--export-matrices", str(mat_dir),
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert (mat_dir / "K-n2.mtx").is_file()
    assert not (mat_dir / "K-n8.mtx").exists() and not out.exists()


IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path

import numpy, scipy.sparse

baseline = set(sys.modules)


def lazy():
    return sorted(m for m in set(sys.modules) - baseline
                  if m.startswith(("scipy.linalg", "scipy.io")))


from trifield.cli import StudyConfig, run_oracle_check, run_study
from trifield.linsolve import write_matrix_market
from trifield.problems import ExampleId

out = {}
run_study(StudyConfig(example=ExampleId.EXAMPLE1, levels=(8, 16, 32)))
out["small_study"] = lazy()
study = run_study(StudyConfig(example=ExampleId.EXAMPLE1, levels=(64,)))
out["preconditioner"] = study.solver_reports()[0]["preconditioner"]
out["multigrid"] = lazy()
out["oracle_passed"] = run_oracle_check(
    StudyConfig(example=ExampleId.EXAMPLE1, levels=(2, 4))).passed
out["oracle"] = lazy()
with tempfile.TemporaryDirectory() as tmp:
    path = write_matrix_market(scipy.sparse.eye_array(3, format="csr"), Path(tmp) / "I.mtx")
    out["header"] = path.read_text().splitlines()[0]
out["export"] = lazy()
print(json.dumps(out))
"""


def test_lapack_and_matrix_market_load_only_when_a_run_calls_them():
    # a fresh interpreter, compared against what numpy and scipy.sparse
    # load themselves on this scipy version
    proc = subprocess.run([sys.executable, "-W", "error", "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=fresh_interpreter_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # Jacobi-CG and multigrid levels without an oracle or an export
    assert out["small_study"] == []
    assert out["preconditioner"] == "multigrid"
    assert out["multigrid"] == []
    assert out["oracle_passed"]
    assert "scipy.linalg" in out["oracle"]
    assert not any(m.startswith("scipy.io") for m in out["oracle"])
    assert out["header"].startswith("%%MatrixMarket matrix coordinate real general")
    assert "scipy.io" in out["export"]
