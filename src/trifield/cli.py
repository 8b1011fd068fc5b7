"""Convergence-study driver and command-line interface.

Runs mesh -> assemble -> condense -> CG -> recovery -> error norms over
a list of doubling refinement levels, coarsest first, each multigrid
CG started from the coarser level's solution and each level dropped
once its errors are taken. Emits the rate table (CSV, Markdown or JSON
with embedded config), and optionally cross-checks the condensed path
against the direct full-saddle-point oracle.

Exit codes: 0 success, 2 invalid configuration, an output path that
cannot be written or a level that does not fit in memory, 3 solver
failure, 4 oracle-check failure; each failure prints one `error:` line
on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import ErrorTable, h1h_error_u, l2_error_sigma, l2_error_u, markdown_table
from .assembly import BlockSystem, assemble
from .condense import (ORACLE_MAX_LEVEL, CondensedSystem, condense, recover_phi,
                       recover_sigma, solve_full_saddle)
from .linsolve import (
    IndefiniteOperatorError,
    SingularMatrixError,
    SolveReport,
    cg_solve,
    multigrid_preconditioner,
    write_matrix_market,
)
from .mesh import Mesh, build_structured_unit_square, prolongation, write_mesh_files
from .problems import ExampleId, ProblemData, by_id

DEFAULT_LEVELS = (2, 4, 8, 16, 32, 64)

#: the names of the report formats, for `StudyResult.render` and --format
REPORT_FORMATS = ("csv", "md", "json")

#: comparison threshold for the condensed-vs-full cross check
ORACLE_TOLERANCE = 1e-9

#: smallest level solved by multigrid-preconditioned CG. On example 2 with
#: one BLAS thread on a shared 2-core host (set-up + solve from zero,
#: fastest of 75; of 3 for Jacobi at n=256): n=32 takes 4.8 ms against
#: 4.0 ms with Jacobi, n=64 13 ms against 27 ms, n=256 0.25 s against 3.1 s
MULTIGRID_MIN_LEVEL = 64

#: the hierarchy halves the level while it is even and above
#: MULTIGRID_MIN_COARSEST; its last level, whose operator is checked by a
#: Cholesky factorisation and inverted densely, must then be at most
#: MULTIGRID_MAX_COARSEST
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


class OracleFailure(RuntimeError):
    """The full-saddle oracle cannot solve a level, or disagrees with the condensed path."""


@dataclass(frozen=True)
class StudyConfig:
    """The parameters of one convergence study: every value that changes
    its numbers. How the report is written is the caller's choice. CG
    stops when it converges or stagnates (`linsolve.cg_solve`)."""

    example: ExampleId = ExampleId.EXAMPLE1
    levels: tuple[int, ...] = DEFAULT_LEVELS
    r: float = 0.5
    alpha: float = 10.0
    cg_tol: float = 1e-12

    def validate(self) -> None:
        if not isinstance(self.example, ExampleId):
            raise ConfigError(f"example must be an ExampleId, got {self.example!r}")
        # a bool would run as 0 or 1, and a numpy scalar other than
        # float64 fails in the JSON report after the study has run
        for name in ("r", "alpha", "cg_tol"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            # an int that float() cannot convert would overflow in the study
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ConfigError(f"{name} must lie within the float range")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r must lie in (0, 1), got {self.r}")
        if not 0.0 < self.alpha < np.inf:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        # a list runs but leaves the config unhashable; an array fails in numpy
        if not isinstance(self.levels, tuple):
            raise ConfigError(f"levels must be a tuple, got {type(self.levels).__name__}")
        if not self.levels:
            raise ConfigError("need at least one refinement level")
        for n in self.levels:
            # a float fails in the mesh, a numpy int in the JSON report,
            # and True would run as level 1
            if type(n) is not int or n < 1:
                raise ConfigError(f"levels must be positive integers, got {n!r}")
        if any(b != 2 * a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError(
                "each level must double the previous one; the rate columns "
                "are log2 ratios under mesh halving"
            )
        if not np.finfo(float).eps <= self.cg_tol < 1.0:  # b - K x rounds at eps ||b||
            raise ConfigError(f"cg tolerance must be in [eps, 1), got {self.cg_tol}")

    def echo(self) -> dict:
        """The fields as JSON values, for the report's config record."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        # equal configs echo alike: alpha=10 and alpha=10.0 are both 10.0
        return echo | {"example": self.example.value, "levels": list(self.levels),
                       "r": float(self.r), "alpha": float(self.alpha),
                       "cg_tol": float(self.cg_tol)}


@dataclass(frozen=True)
class LevelSolution:
    """Everything the pipeline produced at one refinement level."""

    mesh: Mesh
    blocks: BlockSystem
    system: CondensedSystem
    x_u: np.ndarray
    x_sigma: np.ndarray
    report: SolveReport

    @property
    def level(self) -> int:
        return self.mesh.level


@dataclass(frozen=True)
class LevelRecord:
    """What a study keeps of a level once it has been dropped."""

    level: int
    report: SolveReport


@dataclass(frozen=True)
class StudyResult:
    """The error table of a study and one solver record per level, coarsest first."""

    config: StudyConfig
    table: ErrorTable
    solutions: tuple[LevelRecord, ...]

    def solver_reports(self) -> list[dict]:
        """Each level's `SolveReport` fields, after its level."""
        return [{"level": rec.level} | asdict(rec.report) for rec in self.solutions]

    def render(self, fmt: str) -> str:
        """The report in one of REPORT_FORMATS, with the config embedded."""
        echo = self.config.echo()
        if fmt == "csv":
            return self.table.to_csv(config=echo)
        if fmt == "md":
            return self.table.to_markdown(config=echo)
        if fmt == "json":
            # wall times differ from run to run; leaving them out keeps the
            # report byte-for-byte reproducible
            reports = [{k: v for k, v in record.items() if k != "wall_time"}
                       for record in self.solver_reports()]
            return self.table.to_json(config=echo, solver_reports=reports)
        raise ValueError(f"unknown output format {fmt!r}, expected one of {REPORT_FORMATS}")


def solve_level(
    n: int, data: ProblemData, config: StudyConfig, coarse: np.ndarray | None = None
) -> LevelSolution:
    """Run the condensed pipeline at one refinement level.

    `coarse` is the solution of grid n // 2, one value per vertex (any
    other shape raises ValueError), or None. CG on K x_u = F is
    preconditioned by multigrid where grid n allows it
    (`multigrid_hierarchy`), by Jacobi elsewhere. A Jacobi level starts
    from zero. A multigrid level builds its prolongations once: the
    V-cycle uses them all, and the first, from grid n // 2, carries
    `coarse` into the start (nested iteration). The report's wall time
    includes the multigrid set-up, and a set-up that meets an indefinite
    operator is reported, not raised.
    """
    coarse_size = (n // 2 + 1) ** 2
    if coarse is not None and np.shape(coarse) != (coarse_size,):
        raise ValueError(f"the coarse solution for level n={n} must have shape "
                         f"({coarse_size},), got {np.shape(coarse)}")
    mesh = build_structured_unit_square(n)
    blocks = assemble(mesh, data)
    # F = f1_source + alpha f1_penalty - B D^-1 f2 carries every load and
    # alpha, so one check covers bad data and a weight that overflows it
    with np.errstate(over="ignore"):
        system = condense(blocks, config.r, config.alpha)
    if not np.all(np.isfinite(system.F)):
        raise ConfigError(
            f"loads at level n={n} are not finite with alpha = {config.alpha:g}; "
            "check the source and boundary data and the penalty weight"
        )
    hierarchy = multigrid_hierarchy(n)
    if not hierarchy:
        x_u, report = cg_solve(system.K, system.F, tol=config.cg_tol)
    else:
        t0 = time.perf_counter()
        prolongations = [prolongation(m) for m in hierarchy[1:]]
        try:
            precond = multigrid_preconditioner(system.K, prolongations)
        except IndefiniteOperatorError:
            x_u = np.zeros_like(system.F)
            report = SolveReport(0, 1.0, False, 0.0, indefinite=True)
        else:
            x_u, report = cg_solve(system.K, system.F, tol=config.cg_tol, precond=precond,
                                   x0=None if coarse is None else prolongations[0] @ coarse)
        report = replace(report, wall_time=time.perf_counter() - t0,
                         preconditioner="multigrid", mg_levels=len(hierarchy))
    x_sigma = recover_sigma(blocks, x_u)
    return LevelSolution(mesh, blocks, system, x_u, x_sigma, report)


def multigrid_hierarchy(n: int) -> tuple[int, ...]:
    """Levels of the multigrid hierarchy for grid n, finest first, or ()
    when grid n is solved with Jacobi-preconditioned CG."""
    if n < MULTIGRID_MIN_LEVEL:
        return ()
    levels = [n]
    while levels[-1] % 2 == 0 and levels[-1] > MULTIGRID_MIN_COARSEST:
        levels.append(levels[-1] // 2)
    return tuple(levels) if levels[-1] <= MULTIGRID_MAX_COARSEST else ()


def walk_levels(config: StudyConfig, data: ProblemData) -> Iterator[LevelSolution]:
    """Solve the configured levels coarsest first, one level at a time.

    Every level after the first gets the previous level's x_u, which a
    multigrid level prolongates into its CG start: the levels double
    (`StudyConfig.validate`), so that is the exact P1 interpolation of the
    coarse solution (nested iteration). Only that vector is kept between
    levels, so a caller that drops each level before asking for the next
    holds one level's mesh, blocks and K at a time. Raises SolverFailure
    at the first level whose CG fails, after the levels before it have
    been yielded.
    """
    x_u = None
    for n in config.levels:
        sol = solve_level(n, data, config, x_u)
        if not sol.report.converged:
            raise SolverFailure(n, sol.report)
        x_u = sol.x_u
        yield sol
        del sol


def _study_problem(config: StudyConfig, data: ProblemData | None) -> ProblemData:
    """The validated problem of a study: `data`, or the configured example."""
    config.validate()
    if data is None:
        if config.example is ExampleId.CUSTOM:
            raise ConfigError("the custom example has no built-in problem data")
        data = by_id(config.example)
    if data.exact_u is None or data.exact_grad_u is None:
        raise ConfigError("convergence studies need a manufactured solution")
    return data


def _tabulate(config: StudyConfig, data: ProblemData,
              levels: Iterable[LevelSolution]) -> StudyResult:
    """The errors and solver record of every level, each taken as it is walked."""
    rows = []  # (record, elements, *errors in field order) per level
    for sol in levels:
        rows.append((LevelRecord(sol.level, sol.report), sol.mesh.num_triangles,
                     l2_error_u(sol.mesh, sol.x_u, data.exact_u),
                     h1h_error_u(sol.mesh, sol.x_u, data.exact_u, data.exact_grad_u),
                     l2_error_sigma(sol.mesh, sol.x_sigma, data.exact_grad_u)))
        del sol  # drop the level before the walk builds the next one
    records, *columns = zip(*rows)
    return StudyResult(config, ErrorTable(config.levels, *columns), records)


def run_study(config: StudyConfig, data: ProblemData | None = None) -> StudyResult:
    """Walk the levels, compute errors and rates, and collect reports.

    Pass `data` to study a programmatically built problem (the CUSTOM
    example id); otherwise the configured built-in example is used.
    """
    data = _study_problem(config, data)
    return _tabulate(config, data, walk_levels(config, data))


@dataclass(frozen=True)
class OracleCheckResult:
    """Worst relative discrepancies between the condensed and full paths."""

    levels: tuple[int, ...]
    discrepancy_u: tuple[float, ...]
    discrepancy_sigma: tuple[float, ...]
    discrepancy_phi: tuple[float, ...]

    @property
    def passed(self) -> bool:
        # every value is compared: max() would skip a NaN after a number
        return all(d <= ORACLE_TOLERANCE for d in (
            *self.discrepancy_u, *self.discrepancy_sigma, *self.discrepancy_phi))

    def render(self) -> str:
        rows = ([str(n), *(f"{d:.3e}" for d in worst)] for n, *worst in zip(
            self.levels, self.discrepancy_u, self.discrepancy_sigma, self.discrepancy_phi))
        verdict = "PASS" if self.passed else "FAIL"
        return (markdown_table(("n", "max rel du", "max rel dsigma", "max rel dphi"), rows)
                + f"oracle check: {verdict} (tolerance {ORACLE_TOLERANCE:.1e})\n")


def _rel_max_diff(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def run_oracle_check(config: StudyConfig) -> OracleCheckResult:
    """Compare the condensed pipeline against the direct full-saddle solve
    of a built-in example.

    CG solves each level to min(config.cg_tol, 1e-13), so that CG's own
    error stays far below ORACLE_TOLERANCE and a discrepancy points at
    the algebra: on example 2 at levels 16, 32, 64 the worst discrepancy
    is 5.7e-12 with CG at 1e-13, against 3.9e-11 at 1e-12.
    """
    data = _study_problem(config, None)
    if max(config.levels) > ORACLE_MAX_LEVEL:
        raise ConfigError(
            f"the full-saddle oracle is restricted to levels <= {ORACLE_MAX_LEVEL}"
        )
    config = replace(config, cg_tol=min(config.cg_tol, 1e-13))

    rows = []  # (du, dsigma, dphi) per level
    for sol in walk_levels(config, data):
        try:
            full = solve_full_saddle(sol.blocks, config.r, config.alpha)  # (u, sigma, phi)
        except SingularMatrixError as exc:
            raise OracleFailure(f"the full-saddle oracle failed at level n={sol.level}: "
                                f"{exc}") from exc
        phi = recover_phi(sol.blocks, sol.x_u, sol.x_sigma, config.r)
        rows.append(tuple(map(_rel_max_diff, (sol.x_u, sol.x_sigma, phi), full)))
        del sol  # drop the level before the walk builds the next one
    return OracleCheckResult(config.levels, *zip(*rows))


def _export_levels(levels: Iterable[LevelSolution],
                   args: argparse.Namespace) -> Iterator[LevelSolution]:
    """Pass the walk through, writing each level's files while it is held."""
    for sol in levels:
        if args.export_mesh is not None:
            write_mesh_files(sol.mesh, args.export_mesh)
        if args.export_matrices is not None:
            directory, n = args.export_matrices, sol.level
            write_matrix_market(sol.system.K, directory / f"K-n{n}.mtx")
            for name in ("S", "M", "A", "B", "C"):
                write_matrix_market(
                    getattr(sol.blocks, name), directory / f"{name}-n{n}.mtx"
                )
        yield sol
        del sol


_EXAMPLE_TOKENS = {
    "1": ExampleId.EXAMPLE1,
    "2": ExampleId.EXAMPLE2,
    "patch": ExampleId.LINEAR_PATCH,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a bad argument is reported as every other bad input: one line, exit 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    defaults = StudyConfig()
    example = next(tok for tok, ex in _EXAMPLE_TOKENS.items() if ex == defaults.example)
    parser = _ArgumentParser(
        prog="trifield",
        description="Convergence study for the stabilised three-field Poisson solver "
                    "with weak Dirichlet boundary conditions.",
    )
    parser.add_argument("--example", choices=tuple(_EXAMPLE_TOKENS), default=example,
                        help="built-in problem to solve (default: %(default)s)")
    parser.add_argument("--levels", default=",".join(map(str, defaults.levels)),
                        help="comma-separated refinement levels (default: %(default)s)")
    parser.add_argument("--r", type=float, default=defaults.r,
                        help="stabilisation weight in (0,1) (default: %(default)s)")
    parser.add_argument("--alpha", type=float, default=defaults.alpha,
                        help="boundary penalty weight (default: %(default)s)")
    parser.add_argument("--cg-tol", type=float, default=defaults.cg_tol,
                        help="relative CG residual tolerance (default: %(default)s)")
    parser.add_argument("--format", choices=REPORT_FORMATS, default="md",
                        help="output format (default: %(default)s)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check condensed vs full saddle solve, with CG "
                             "at min(--cg-tol, 1e-13) "
                             f"(levels must all be <= {ORACLE_MAX_LEVEL})")
    parser.add_argument("--export-matrices", type=Path, default=None, metavar="DIR",
                        help="write assembled matrices in MatrixMarket format")
    parser.add_argument("--export-mesh", type=Path, default=None, metavar="DIR",
                        help="write plain-text node/element files")
    return parser


def config_from_args(args: argparse.Namespace) -> StudyConfig:
    # ASCII digits only: int() alone would run "1_6" as 16, "٢" as 2 and "+4" as 4
    tokens = [tok.strip() for tok in args.levels.split(",")]
    try:
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError
        levels = tuple(map(int, tokens))  # raises past the interpreter's digit limit
    except ValueError as exc:
        raise ConfigError(f"cannot parse levels {args.levels!r}") from exc
    return StudyConfig(
        example=_EXAMPLE_TOKENS[args.example],
        levels=levels,
        r=args.r,
        alpha=args.alpha,
        cg_tol=args.cg_tol,
    )


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        exporting = args.export_mesh is not None or args.export_matrices is not None
        if args.oracle and (exporting or args.format != "md"):
            raise ConfigError("--export-mesh, --export-matrices and --format csv|json "
                              "apply to studies, not to --oracle")
        if args.oracle:
            check = run_oracle_check(config)
            _emit(check.render(), args.out)
            if not check.passed:
                raise OracleFailure("the condensed and full-saddle solutions differ by more "
                                    f"than {ORACLE_TOLERANCE:.1e}")
            return 0
        # the exports write each level as the study walks it, so a study
        # that fails at a later level leaves the earlier levels' files
        data = _study_problem(config, None)
        result = _tabulate(config, data, _export_levels(walk_levels(config, data), args))
        _emit(result.render(args.format), args.out)
    except (ConfigError, OSError, SolverFailure, OracleFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {SolverFailure: 3, OracleFailure: 4}.get(type(exc), 2)
    except MemoryError as exc:
        # numpy names the allocation that failed; Python's own has no message
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
