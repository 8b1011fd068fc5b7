"""Time trifield's pipeline stage by stage and print one JSON object.

Usage: python tools/bench_stages.py [--src DIR]

Imports trifield from DIR (default: this checkout's `src/`) with one
BLAS thread, and calls the stage functions in turn, for example 2 at the
default r, alpha and CG tolerance, at n = 64, 128, 256 and 512. A level
pass times:

- mesh: `build_structured_unit_square` plus the mesh's areas, gradients,
  P1 pattern and boundary;
- assemble, condense;
- multigrid: the prolongations plus `multigrid_preconditioner` (0 on a
  Jacobi level);
- cg: `cg_solve` from zero;
- errors: `recover_sigma` plus the three error norms.

An oracle pass, at n = 4, 8, 16, 32 and 64, times `solve_full_saddle`
on assembled blocks, split into the build (all but its `dense_lu_solve`
call) and the LU, by wrapping `trifield.condense.dense_lu_solve`.

Each stage gets the median and the min over 5 passes, and `peak_mb`,
the tracemalloc peak above what was traced when the stage began, from
one more pass that is not timed. A level also records its unknowns,
nnz(K) and CG iterations; the run records the Python, numpy and scipy
versions, nproc and the git commit of DIR. The script uses the standard
library and numpy only, and is not part of the test suite: a run took
26 s and peaked at 620 MB resident on a 2-vCPU host.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import importlib
import importlib.metadata
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

LEVEL_STAGES = ("mesh", "assemble", "condense", "multigrid", "cg", "errors")
ORACLE_STAGES = ("build", "lu")
LEVELS = (64, 128, 256, 512)
ORACLE_LEVELS = (4, 8, 16, 32, 64)
REPEATS = 5


class Clock:
    """Per-stage wall times of one pass, or, when traced, per-stage peaks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}

    def run(self, stage: str, fn, *args, **kwargs):
        if self.traced:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            self.peak_mb[stage] = (tracemalloc.get_traced_memory()[1] - start) / 1e6
        else:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[stage] = time.perf_counter() - t0
        return result


def level_pass(tf, n: int, clock: Clock) -> dict:
    """One pass of every level stage at grid n; returns the level's counts."""
    config, data = tf.cli.StudyConfig(), tf.problems.example2()

    def mesh_stage():
        mesh = tf.mesh.build_structured_unit_square(n)
        for cached in ("areas", "gradients", "p1_pattern", "boundary_edges"):
            getattr(mesh, cached)
        return mesh

    def multigrid_stage(k):
        hierarchy = tf.cli.multigrid_hierarchy(n)
        if not hierarchy:
            return None
        prolongations = [tf.mesh.prolongation(m) for m in hierarchy[1:]]
        return tf.linsolve.multigrid_preconditioner(k, prolongations)

    def errors_stage(mesh, blocks, x_u):
        x_sigma = tf.condense.recover_sigma(blocks, x_u)
        return (tf.analysis.l2_error_u(mesh, x_u, data.exact_u),
                tf.analysis.h1h_error_u(mesh, x_u, data.exact_u, data.exact_grad_u),
                tf.analysis.l2_error_sigma(mesh, x_sigma, data.exact_grad_u))

    mesh = clock.run("mesh", mesh_stage)
    blocks = clock.run("assemble", tf.assembly.assemble, mesh, data)
    system = clock.run("condense", tf.condense.condense, blocks, config.r, config.alpha)
    precond = clock.run("multigrid", multigrid_stage, system.K)
    x_u, report = clock.run("cg", tf.linsolve.cg_solve, system.K, system.F,
                            tol=config.cg_tol, precond=precond)
    clock.run("errors", errors_stage, mesh, blocks, x_u)
    if not report.converged:
        raise RuntimeError(f"CG did not converge at n={n}")
    return {"n": n, "unknowns": mesh.num_vertices, "nnz_K": int(system.K.nnz),
            "cg_iterations": report.iterations}


def oracle_pass(tf, blocks, clock: Clock) -> None:
    """One oracle solve, its LU timed (or traced) apart from the build."""
    config = tf.cli.StudyConfig()
    lu = tf.condense.dense_lu_solve

    def timed_lu(*args):
        if clock.traced:  # the build's peak, before the LU's
            clock.peak_mb["build"] = (tracemalloc.get_traced_memory()[1] - build_start) / 1e6
        return clock.run("lu", lu, *args)

    # both read 0 and do nothing while tracemalloc is not tracing
    build_start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    tf.condense.dense_lu_solve = timed_lu
    try:
        t0 = time.perf_counter()
        tf.condense.solve_full_saddle(blocks, config.r, config.alpha)
        total = time.perf_counter() - t0
    finally:
        tf.condense.dense_lu_solve = lu
    if not clock.traced:
        clock.seconds["build"] = total - clock.seconds["lu"]


def measure(stages: tuple[str, ...], one_pass) -> tuple[dict, dict]:
    """Stage statistics over REPEATS timed passes and one traced pass,
    and the counts that the last pass returned."""
    samples = {stage: [] for stage in stages}
    for _ in range(REPEATS):  # no gc.collect() here: it leaves the next call's caches cold
        clock = Clock(traced=False)
        counts = one_pass(clock)
        for stage in stages:
            samples[stage].append(1e3 * clock.seconds[stage])
    clock = Clock(traced=True)
    tracemalloc.start()
    try:
        one_pass(clock)
    finally:
        tracemalloc.stop()
    stats = {stage: {"median_ms": round(statistics.median(ms), 3),
                     "min_ms": round(min(ms), 3),
                     "peak_mb": round(clock.peak_mb[stage], 3)}
             for stage, ms in samples.items()}
    return stats, counts or {}


def git_commit(tree: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the trifield package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    # by module: the package's `condense` attribute is the function
    tf = types.SimpleNamespace(**{name: importlib.import_module(f"trifield.{name}") for name in (
        "analysis", "assembly", "cli", "condense", "linsolve", "mesh", "problems")})
    if Path(tf.cli.__file__).resolve().parent != (args.src / "trifield").resolve():
        print(f"error: trifield was not imported from {args.src}", file=sys.stderr)
        return 2
    config = tf.cli.StudyConfig()

    # warm-up: quadrature rules and scipy.linalg load outside every timing
    warm = Clock(traced=False)
    level_pass(tf, 2, warm)
    oracle_pass(tf, tf.assembly.assemble(tf.mesh.build_structured_unit_square(2),
                                         tf.problems.example2()), warm)

    levels = []
    for n in LEVELS:
        stats, counts = measure(LEVEL_STAGES, lambda clock, n=n: level_pass(tf, n, clock))
        levels.append({**counts, "stages": stats})
        print(f"level n={n} done", file=sys.stderr, flush=True)
    oracle = []
    for n in ORACLE_LEVELS:
        blocks = tf.assembly.assemble(tf.mesh.build_structured_unit_square(n),
                                      tf.problems.example2())
        stats, _ = measure(ORACLE_STAGES, lambda clock, b=blocks: oracle_pass(tf, b, clock))
        oracle.append({"n": n, "unknowns": 5 * blocks.n_primal, "stages": stats})
        del blocks
        print(f"oracle n={n} done", file=sys.stderr, flush=True)

    print(json.dumps({
        **git_commit(args.src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": 1,
        "example": 2, "r": config.r, "alpha": config.alpha, "cg_tol": config.cg_tol,
        "repeats": REPEATS,
        "levels": levels,
        "oracle": oracle,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
