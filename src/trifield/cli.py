"""Convergence-study driver and command-line interface.

Runs mesh -> assemble -> condense -> CG -> recovery -> error norms over
a list of refinement levels, emits the rate table (CSV, Markdown or
JSON with embedded config), and optionally cross-checks the condensed
path against the dense full-saddle-point oracle.

Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
4 oracle-check failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import ErrorTable, h1h_error_u, l2_error_sigma, l2_error_u
from .assembly import BlockSystem, assemble
from .condense import CondensedSystem, condense, recover_phi, recover_sigma, solve_full_saddle
from .linsolve import (
    IndefiniteOperatorError,
    SolveReport,
    cg_solve,
    multigrid_preconditioner,
    write_matrix_market,
)
from .mesh import Mesh, build_structured_unit_square, prolongation, write_mesh_files
from .problems import ExampleId, ProblemData, by_id

DEFAULT_LEVELS = (2, 4, 8, 16, 32, 64)

#: comparison threshold for the condensed-vs-full cross check
ORACLE_TOLERANCE = 1e-9

#: largest level the dense oracle accepts
ORACLE_MAX_LEVEL = 16

#: smallest level solved by multigrid-preconditioned CG. On example 2 with
#: one BLAS thread (setup + solve, fastest of 3): n=32 takes 3.9 ms against
#: 3.2 ms with Jacobi, n=64 13 ms against 26 ms, n=256 172 ms against 1.2 s
MULTIGRID_MIN_LEVEL = 64

#: the hierarchy halves the level while it is even and above
#: MULTIGRID_MIN_COARSEST; its last level, which gets a dense Cholesky
#: factorisation, must then be at most MULTIGRID_MAX_COARSEST
MULTIGRID_MIN_COARSEST = 8
MULTIGRID_MAX_COARSEST = 32


class ConfigError(ValueError):
    """Invalid study configuration."""


class SolverFailure(RuntimeError):
    """A CG solve failed to converge (or met negative curvature)."""

    def __init__(self, level: int, report: SolveReport):
        self.level = level
        self.report = report
        kind = "indefinite operator" if report.indefinite else "non-convergence"
        super().__init__(
            f"CG failed at level n={level}: {kind}, "
            f"relative residual {report.relative_residual:.3e} "
            f"after {report.iterations} iterations"
        )


@dataclass(frozen=True)
class StudyConfig:
    """Resolved parameters of one convergence study."""

    example: ExampleId = ExampleId.EXAMPLE1
    levels: tuple[int, ...] = DEFAULT_LEVELS
    r: float = 0.5
    alpha: float = 10.0
    cg_tol: float = 1e-12
    cg_maxit: int = 20000
    tri_degree: int = 2
    edge_degree: int = 3
    error_degree: int = 6
    error_edge_degree: int = 5
    load_tri_degree: int = 6
    load_edge_degree: int = 5
    output_format: str = "markdown"
    output_path: Path | None = None
    run_full_saddle_oracle: bool = False
    export_matrices: Path | None = None
    export_mesh: Path | None = None

    def validate(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r must lie in (0, 1), got {self.r}")
        if self.alpha <= 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not self.levels:
            raise ConfigError("need at least one refinement level")
        if any(n < 1 for n in self.levels):
            raise ConfigError("levels must be positive integers")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        if any(b != 2 * a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError(
                "each level must double the previous one; the rate columns "
                "are log2 ratios under mesh halving"
            )
        if not 0.0 < self.cg_tol < 1.0:
            raise ConfigError(f"cg tolerance must be in (0, 1), got {self.cg_tol}")
        if self.cg_maxit < 1:
            raise ConfigError("cg_maxit must be positive")
        if self.output_format not in ("csv", "markdown", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.run_full_saddle_oracle and max(self.levels) > ORACLE_MAX_LEVEL:
            raise ConfigError(
                f"the full-saddle oracle is restricted to levels <= {ORACLE_MAX_LEVEL}"
            )

    def echo(self) -> dict:
        return {
            "example": self.example.value,
            "levels": list(self.levels),
            "r": self.r,
            "alpha": self.alpha,
            "cg_tol": self.cg_tol,
            "cg_maxit": self.cg_maxit,
            "tri_degree": self.tri_degree,
            "edge_degree": self.edge_degree,
            "error_degree": self.error_degree,
            "error_edge_degree": self.error_edge_degree,
            "load_tri_degree": self.load_tri_degree,
            "load_edge_degree": self.load_edge_degree,
        }


@dataclass(frozen=True)
class LevelSolution:
    """Everything the pipeline produced at one refinement level."""

    level: int
    mesh: Mesh
    blocks: BlockSystem
    system: CondensedSystem
    x_u: np.ndarray
    x_sigma: np.ndarray
    report: SolveReport

    def x_phi(self) -> np.ndarray:
        return recover_phi(self.blocks, self.x_u, self.x_sigma, self.system.r)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    table: ErrorTable
    solutions: tuple[LevelSolution, ...]

    def solver_reports(self) -> list[dict]:
        return [
            {
                "level": sol.level,
                "iterations": sol.report.iterations,
                "relative_residual": sol.report.relative_residual,
                "converged": sol.report.converged,
                "preconditioner": sol.report.preconditioner,
                "mg_levels": sol.report.mg_levels,
                "wall_time": sol.report.wall_time,
            }
            for sol in self.solutions
        ]

    def render(self) -> str:
        echo = self.config.echo()
        if self.config.output_format == "csv":
            return self.table.to_csv(config=echo)
        if self.config.output_format == "json":
            # wall times differ from run to run; leaving them out keeps the
            # report byte-for-byte reproducible
            reports = [{k: v for k, v in record.items() if k != "wall_time"}
                       for record in self.solver_reports()]
            return self.table.to_json(config=echo, solver_reports=reports)
        return self.table.to_markdown(config=echo)


def solve_level(n: int, data: ProblemData, config: StudyConfig) -> LevelSolution:
    """Run the condensed pipeline at one refinement level."""
    mesh = build_structured_unit_square(n)
    blocks = assemble(
        mesh,
        data,
        config.alpha,
        tri_degree=config.tri_degree,
        edge_degree=config.edge_degree,
        load_tri_degree=config.load_tri_degree,
        load_edge_degree=config.load_edge_degree,
    )
    if not (np.all(np.isfinite(blocks.f1)) and np.all(np.isfinite(blocks.f2))):
        raise ConfigError(
            f"loads at level n={n} are not finite; check the source and boundary data"
        )
    system = condense(blocks, config.r, config.alpha)
    x_u, report = _solve_condensed(n, system, config)
    x_sigma = recover_sigma(blocks, x_u)
    return LevelSolution(n, mesh, blocks, system, x_u, x_sigma, report)


def multigrid_hierarchy(n: int) -> tuple[int, ...]:
    """Levels of the multigrid hierarchy for grid n, finest first, or ()
    when grid n is solved with Jacobi-preconditioned CG."""
    if n < MULTIGRID_MIN_LEVEL:
        return ()
    levels = [n]
    while levels[-1] % 2 == 0 and levels[-1] > MULTIGRID_MIN_COARSEST:
        levels.append(levels[-1] // 2)
    return tuple(levels) if levels[-1] <= MULTIGRID_MAX_COARSEST else ()


def _solve_condensed(
    n: int, system: CondensedSystem, config: StudyConfig
) -> tuple[np.ndarray, SolveReport]:
    """CG on K x_u = F, preconditioned by multigrid where grid n allows it.

    The report's wall time includes the multigrid set-up.
    """
    hierarchy = multigrid_hierarchy(n)
    if not hierarchy:
        return cg_solve(system.K, system.F, tol=config.cg_tol, maxit=config.cg_maxit)
    t0 = time.perf_counter()
    try:
        precond = multigrid_preconditioner(
            system.K, [prolongation(m) for m in hierarchy[1:]]
        )
    except IndefiniteOperatorError:
        x_u = np.zeros_like(system.F)
        report = SolveReport(0, 1.0, False, 0.0, indefinite=True)
    else:
        x_u, report = cg_solve(system.K, system.F, tol=config.cg_tol,
                               maxit=config.cg_maxit, precond=precond)
    return x_u, replace(report, wall_time=time.perf_counter() - t0,
                        preconditioner="multigrid", mg_levels=len(hierarchy))


def run_study(config: StudyConfig, data: ProblemData | None = None) -> StudyResult:
    """Solve every level, compute errors and rates, and collect reports.

    Pass `data` to study a programmatically built problem (the CUSTOM
    example id); otherwise the configured built-in example is used.
    """
    config.validate()
    if data is None:
        data = by_id(config.example)
    if data.exact_u is None or data.exact_grad_u is None:
        raise ConfigError("convergence studies need a manufactured solution")

    solutions = []
    e_l2, e_h1h, e_sig = [], [], []
    for n in config.levels:
        sol = solve_level(n, data, config)
        if not sol.report.converged:
            raise SolverFailure(n, sol.report)
        solutions.append(sol)
        e_l2.append(l2_error_u(sol.mesh, sol.x_u, data.exact_u, config.error_degree))
        e_h1h.append(
            h1h_error_u(sol.mesh, sol.x_u, data.exact_u, data.exact_grad_u,
                        config.error_degree, config.error_edge_degree)
        )
        e_sig.append(
            l2_error_sigma(sol.mesh, sol.x_sigma, data.exact_grad_u, config.error_degree)
        )

    table = ErrorTable.from_errors(
        config.levels, [sol.mesh.num_triangles for sol in solutions], e_l2, e_h1h, e_sig
    )
    return StudyResult(config=config, table=table, solutions=tuple(solutions))


@dataclass(frozen=True)
class OracleCheckResult:
    """Worst relative discrepancies between the condensed and full paths."""

    levels: tuple[int, ...]
    discrepancy_u: tuple[float, ...]
    discrepancy_sigma: tuple[float, ...]
    discrepancy_phi: tuple[float, ...]
    tolerance: float = ORACLE_TOLERANCE

    @property
    def passed(self) -> bool:
        worst = max(
            max(self.discrepancy_u), max(self.discrepancy_sigma),
            max(self.discrepancy_phi),
        )
        return worst <= self.tolerance

    def render(self) -> str:
        lines = ["| n | max rel du | max rel dsigma | max rel dphi |",
                 "|--:|-----------:|---------------:|-------------:|"]
        for k, n in enumerate(self.levels):
            lines.append(
                f"| {n} | {self.discrepancy_u[k]:.3e} | "
                f"{self.discrepancy_sigma[k]:.3e} | {self.discrepancy_phi[k]:.3e} |"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"oracle check: {verdict} (tolerance {self.tolerance:.1e})")
        return "\n".join(lines) + "\n"


def _rel_max_diff(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def run_oracle_check(config: StudyConfig) -> OracleCheckResult:
    """Compare the condensed pipeline against the dense full-saddle solve."""
    config = replace(config, run_full_saddle_oracle=True,
                     cg_tol=min(config.cg_tol, 1e-13))
    config.validate()
    data = by_id(config.example)

    d_u, d_s, d_p = [], [], []
    for n in config.levels:
        sol = solve_level(n, data, config)
        if not sol.report.converged:
            raise SolverFailure(n, sol.report)
        full_u, full_sigma, full_phi = solve_full_saddle(sol.blocks, config.r, config.alpha)
        d_u.append(_rel_max_diff(sol.x_u, full_u))
        d_s.append(_rel_max_diff(sol.x_sigma, full_sigma))
        d_p.append(_rel_max_diff(sol.x_phi(), full_phi))

    return OracleCheckResult(
        levels=config.levels,
        discrepancy_u=tuple(d_u),
        discrepancy_sigma=tuple(d_s),
        discrepancy_phi=tuple(d_p),
    )


def _export_artifacts(result: StudyResult, config: StudyConfig) -> None:
    if config.export_mesh is not None:
        for sol in result.solutions:
            write_mesh_files(sol.mesh, config.export_mesh)
    if config.export_matrices is not None:
        directory = Path(config.export_matrices)
        for sol in result.solutions:
            n = sol.level
            write_matrix_market(sol.system.K, directory / f"K-n{n}.mtx", symmetric=True)
            for name in ("S", "M", "A", "B", "C"):
                write_matrix_market(
                    getattr(sol.blocks, name), directory / f"{name}-n{n}.mtx"
                )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifield",
        description="Convergence study for the stabilised three-field Poisson solver "
                    "with weak Dirichlet boundary conditions.",
    )
    parser.add_argument("--example", choices=("1", "2", "patch"), default="1",
                        help="built-in problem to solve (default: 1)")
    parser.add_argument("--levels", default="2,4,8,16,32,64",
                        help="comma-separated refinement levels (default: 2,4,...,64)")
    parser.add_argument("--r", type=float, default=0.5,
                        help="stabilisation weight in (0,1) (default: 0.5)")
    parser.add_argument("--alpha", type=float, default=10.0,
                        help="boundary penalty weight (default: 10)")
    parser.add_argument("--cg-tol", type=float, default=1e-12,
                        help="relative CG residual tolerance (default: 1e-12)")
    parser.add_argument("--cg-maxit", type=int, default=20000,
                        help="CG iteration cap (default: 20000)")
    parser.add_argument("--format", choices=("csv", "md", "json"), default="md",
                        help="output format (default: md)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check condensed vs full saddle solve "
                             "(levels must all be <= 16)")
    parser.add_argument("--export-matrices", type=Path, default=None, metavar="DIR",
                        help="write assembled matrices in MatrixMarket format")
    parser.add_argument("--export-mesh", type=Path, default=None, metavar="DIR",
                        help="write plain-text node/element files")
    return parser


_EXAMPLE_TOKENS = {
    "1": ExampleId.EXAMPLE1,
    "2": ExampleId.EXAMPLE2,
    "patch": ExampleId.LINEAR_PATCH,
}


def config_from_args(args: argparse.Namespace) -> StudyConfig:
    try:
        levels = tuple(int(tok) for tok in args.levels.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse levels {args.levels!r}") from exc
    fmt = {"md": "markdown"}.get(args.format, args.format)
    return StudyConfig(
        example=_EXAMPLE_TOKENS[args.example],
        levels=levels,
        r=args.r,
        alpha=args.alpha,
        cg_tol=args.cg_tol,
        cg_maxit=args.cg_maxit,
        output_format=fmt,
        output_path=args.out,
        run_full_saddle_oracle=args.oracle,
        export_matrices=args.export_matrices,
        export_mesh=args.export_mesh,
    )


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        config.validate()
        if config.run_full_saddle_oracle:
            check = run_oracle_check(config)
        else:
            result = run_study(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if config.run_full_saddle_oracle:
        _emit(check.render(), config.output_path)
        return 0 if check.passed else 4
    _export_artifacts(result, config)
    _emit(result.render(), config.output_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
