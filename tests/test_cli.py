import json

import numpy as np
import pytest
import scipy.io

from trifield.cli import (
    ConfigError,
    StudyConfig,
    main,
    run_oracle_check,
    run_study,
)
from trifield.problems import ExampleId

PATCH_ARGS = ["--example", "patch", "--levels", "2,4"]


def test_config_validation():
    StudyConfig().validate()
    with pytest.raises(ConfigError):
        StudyConfig(r=1.0).validate()
    with pytest.raises(ConfigError):
        StudyConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=()).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(4, 2)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(0, 2)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(2, 3)).validate()  # rates need halving
    with pytest.raises(ConfigError):
        StudyConfig(cg_tol=2.0).validate()
    with pytest.raises(ConfigError):
        StudyConfig(output_format="yaml").validate()
    with pytest.raises(ConfigError):
        StudyConfig(run_full_saddle_oracle=True, levels=(2, 32)).validate()


def test_run_study_patch_levels_are_exact():
    config = StudyConfig(example=ExampleId.LINEAR_PATCH, levels=(4,), cg_tol=1e-14)
    result = run_study(config)
    assert result.table.err_u_l2[0] <= 1e-10
    assert result.table.err_u_h1h[0] <= 1e-10
    assert result.table.err_sigma_l2[0] <= 1e-10


def test_run_study_reports_are_complete():
    config = StudyConfig(example=ExampleId.EXAMPLE1, levels=(2, 4),
                         output_format="json")
    result = run_study(config)
    doc = json.loads(result.render())
    assert doc["config"]["example"] == "example1"
    assert doc["config"]["r"] == 0.5
    assert len(doc["levels"]) == 2
    for record in doc["levels"]:
        assert record["solver"]["converged"] is True
        assert record["solver"]["preconditioner"] == "jacobi"
        assert record["solver"]["mg_levels"] == 0
        assert "wall" not in json.dumps(record["solver"])  # deterministic payload

    # level 64 runs the multigrid path; wall times are reported in process only
    config = StudyConfig(example=ExampleId.EXAMPLE1, levels=(32, 64),
                         output_format="json")
    result = run_study(config)
    reports = result.solver_reports()
    solver = [record["solver"] for record in json.loads(result.render())["levels"]]
    assert solver == [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]
    assert [s["level"] for s in solver] == [32, 64]
    assert [s["preconditioner"] for s in solver] == ["jacobi", "multigrid"]
    assert [s["mg_levels"] for s in solver] == [0, 4]
    for record, sol in zip(reports, result.solutions):
        assert record["wall_time"] == sol.report.wall_time > 0.0
        assert record["iterations"] == sol.report.iterations > 0
        assert record["converged"] is True
        assert record["relative_residual"] <= config.cg_tol


def test_run_study_accepts_custom_problem():
    import numpy as np

    from trifield.problems import ProblemData

    data = ProblemData(
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), -4.0),
        g_dirichlet=lambda x, y: x**2 + y**2,
        exact_u=lambda x, y: x**2 + y**2,
        exact_grad_u=lambda x, y: np.stack([2.0 * x, 2.0 * y]),
        name="paraboloid",
    )
    config = StudyConfig(example=ExampleId.CUSTOM, levels=(4, 8, 16))
    result = run_study(config, data=data)
    assert 1.7 <= result.table.rate_u_l2[-1] <= 2.3
    assert result.table.err_u_l2[-1] < result.table.err_u_l2[0]


def nan_source_problem():
    from trifield.problems import ProblemData

    return ProblemData(
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan),
        g_dirichlet=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        exact_u=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        exact_grad_u=lambda x, y: np.zeros((2, *np.shape(x))),
        name="nan source",
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


def test_run_oracle_check_passes_small_levels():
    for example in (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2):
        check = run_oracle_check(StudyConfig(example=example, levels=(2, 4)))
        assert check.passed
        assert max(check.discrepancy_u) <= 1e-10


def test_main_invalid_config_exits_2(capsys):
    assert main(["--r", "1.5"]) == 2
    assert main(["--levels", "4,2"]) == 2
    assert main(["--levels", "abc"]) == 2
    assert main(["--oracle", "--levels", "2,32"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_solver_failure_exits_3(capsys):
    code = main(["--example", "1", "--levels", "2", "--cg-maxit", "1"])
    assert code == 3
    assert "CG failed" in capsys.readouterr().err


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


def test_exports(tmp_path):
    mesh_dir = tmp_path / "mesh"
    mat_dir = tmp_path / "mat"
    assert main([
        "--example", "patch", "--levels", "2",
        "--export-mesh", str(mesh_dir), "--export-matrices", str(mat_dir),
        "--out", str(tmp_path / "t.md"),
    ]) == 0
    assert (mesh_dir / "mesh-n2.node").exists()
    assert (mesh_dir / "mesh-n2.ele").exists()

    k = scipy.io.mmread(mat_dir / "K-n2.mtx").toarray()
    assert k.shape == (9, 9)
    np.testing.assert_allclose(k, k.T, atol=1e-12)
    for name in ("S", "M", "A", "B", "C"):
        assert (mat_dir / f"{name}-n2.mtx").exists()
    assert scipy.io.mmread(mat_dir / "M-n2.mtx").shape == (18, 18)
