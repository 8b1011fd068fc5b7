"""Span tracing around trifield's layer boundaries, installed from outside.

`Tracer.installed()` replaces the public functions that trifield's own
modules call (as those modules bind them) with wrappers that record a
span: name, layer, start, end, parent span and point id. Counts that the
per-layer metrics need (CG iterations, nnz, evaluation points) are read
from the arguments and results at the same boundary, outside the timed
interval. A target that no longer exists is listed as unwrapped and its
time stays in its caller's span, which for the pipeline stages is the
entry-point span of layer `cli`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
from contextlib import contextmanager

#: (module, attribute, layer) of every wrapped function
TARGETS = (
    ("trifield.cli", "build_structured_unit_square", "mesh"),
    ("trifield.cli", "assemble", "assembly"),
    ("trifield.cli", "condense", "condense"),
    ("trifield.cli", "recover_sigma", "condense"),
    ("trifield.cli", "recover_phi", "condense"),
    ("trifield.cli", "solve_full_saddle", "condense"),
    ("trifield.cli", "cg_solve", "linsolve"),
    ("trifield.condense", "dense_lu_solve", "linsolve"),
    ("trifield.cli", "l2_error_u", "analysis"),
    ("trifield.cli", "h1h_error_u", "analysis"),
    ("trifield.cli", "l2_error_sigma", "analysis"),
    ("trifield.assembly", "triangle_quadrature", "femcore"),
    ("trifield.assembly", "edge_quadrature", "femcore"),
    ("trifield.analysis", "triangle_quadrature", "femcore"),
    ("trifield.analysis", "edge_quadrature", "femcore"),
)

#: run_oracle_check builds its ProblemData here; wrapping it (layer None)
#: lets the problem callables of the oracle workload be traced as well
PROBLEM_FACTORY = ("trifield.cli", "by_id", None)

EXACT_FIELDS = ("exact_u", "exact_grad_u")
SOURCE_FIELDS = ("f", "g_dirichlet")

LAYERS = ("cli", "mesh", "femcore", "assembly", "condense", "linsolve", "analysis",
          "problems")

# (name, unit) of every per-layer metric, in report order. Times and counts
# are per pass; nnz and fill ratio are those of the largest system in the
# pass. The comments name the end-to-end metric each should move, and where.
METRICS = (
    ("cli.self_s", "s"),  # entry-point span minus its children: point_* on sweep
    ("mesh.self_s", "s"),  # every level of every sweep point rebuilds its mesh:
    ("mesh.calls", "count"),  # point_p50_ms on sweep
    ("femcore.self_s", "s"),  # quadrature rule construction: point_* on sweep
    ("femcore.rule_builds", "count"),
    ("assembly.self_s", "s"),  # wall_s on conv and sweep
    ("assembly.block_nnz", "count"),
    ("condense.self_s", "s"),  # condense + recovery + full-saddle build:
    ("condense.recover_s", "s"),  # point_p50_ms on sweep, wall_s on conv
    ("condense.full_saddle_s", "s"),  # dense 5N x 5N build: wall_s on oracle only
    ("condense.nnz_K", "count"),  # an affine-K cache also shows in peak_rss_mb
    ("condense.fill_ratio", "ratio"),  # nnz K / nnz S
    ("linsolve.self_s", "s"),  # CG and dense LU
    ("linsolve.cg_s", "s"),  # CG: wall_s on conv, nearly flat on sweep; a
    ("linsolve.cg_iterations", "count"),  # preconditioner also shows in
    ("linsolve.ms_per_iteration", "ms"),  # peak_rss_mb and point_p50_ms
    ("linsolve.spmv_bytes_per_iteration", "B"),  # computed, not measured
    ("linsolve.cg_failed", "count"),
    ("linsolve.dense_lu_s", "s"),  # wall_s on oracle only
    ("analysis.self_s", "s"),
    ("analysis.errors_s", "s"),  # the three error norms: wall_s on conv and sweep
    ("problems.self_s", "s"),
    ("problems.exact_point_evals", "count"),  # exact_u and exact_grad_u points;
    ("problems.source_point_evals", "count"),  # f and g points: duplicate work
    ("trace.overhead_frac", "ratio"),  # fastest traced / untraced pass wall time - 1
    ("trace.accounted_frac", "ratio"),  # sum of layer self times / traced pass
    ("trace.unwrapped", "count"),  # targets missing from the program
)

#: metrics that count work; they must repeat exactly from pass to pass
COUNT_METRICS = tuple(name for name, unit in METRICS if unit == "count")


def _csr_bytes_per_spmv(mat) -> int:
    """Bytes one y = K x reads and writes, computed from nnz and array widths.

    The CSR arrays are taken as the solver's SpMV sees them: a wrapper with
    `to_scipy()` is converted first, since scipy may narrow the indices.
    """
    mat = mat.to_scipy() if hasattr(mat, "to_scipy") else mat
    rows, cols = mat.shape
    return int(mat.nnz * (mat.data.itemsize + mat.indices.itemsize)
               + (rows + 1) * mat.indptr.itemsize
               + (cols + rows) * mat.data.itemsize)


def _probe_cg(args, kwargs, result) -> dict:
    mat = args[0] if args else kwargs["a"]
    report = result[1]
    return {"iterations": int(report.iterations), "converged": bool(report.converged),
            "spmv_bytes": _csr_bytes_per_spmv(mat)}


def _probe_assemble(args, kwargs, blocks) -> dict:
    return {"block_nnz": sum(int(v.nnz) for v in vars(blocks).values()
                             if hasattr(v, "nnz"))}


def _probe_condense(args, kwargs, system) -> dict:
    blocks = args[0] if args else kwargs["blocks"]
    return {"nnz_K": int(system.K.nnz), "nnz_S": int(blocks.S.nnz)}


def _points(args, kwargs, result) -> dict:
    x, y = (args + tuple(kwargs.values()))[:2]
    return {"points": int(max(getattr(x, "size", 1), getattr(y, "size", 1)))}


PROBES = {"cg_solve": _probe_cg, "assemble": _probe_assemble, "condense": _probe_condense}


class Tracer:
    """Collects spans in memory; `spans` rows are
    [name, layer, start, end, parent index or None, point id, counts or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.unwrapped: list[str] = []
        self.point: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        row = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.point, None]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[2] = time.perf_counter()
        try:
            yield row
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as row:
                result = fn(*args, **kwargs)
            if probe is not None:
                row[6] = probe(args, kwargs, result)
            return result

        return traced

    def wrap_problem(self, data):
        """Copy of a ProblemData whose callables record `problems` spans."""
        fields = {name: self.wrap(getattr(data, name), name, "problems", _points)
                  for name in EXACT_FIELDS + SOURCE_FIELDS
                  if getattr(data, name, None) is not None}
        return dataclasses.replace(data, **fields)

    def wrap_factory(self, fn):
        """Wrap a function returning ProblemData so its callables are traced."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap_problem(fn(*args, **kwargs))

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target, and the problem factory, for the block's duration."""
        originals = []
        self.unwrapped = []
        try:
            for module_name, attr, layer in (*targets, PROBLEM_FACTORY):
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.unwrapped.append(f"{module_name}.{attr}")
                    continue
                if layer is None:
                    wrapper = self.wrap_factory(fn)
                else:
                    wrapper = self.wrap(fn, attr, layer, PROBES.get(attr))
                setattr(module, attr, wrapper)
                originals.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def pass_metrics(spans: list[list], start: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: `spans[start:]`, timed `wall` s.

    A span's self time is its duration minus that of its direct children,
    so the self times of all layers add up to the entry-point spans.
    """
    child = {}
    for row in spans[start:]:
        if row[4] is not None:
            child[row[4]] = child.get(row[4], 0.0) + (row[3] - row[2])

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    self_by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list[dict]] = {}
    for index in range(start, len(spans)):
        name, layer, t0, t1, _parent, _point, probe = spans[index]
        own = (t1 - t0) - child.get(index, 0.0)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        total_by_name[name] = total_by_name.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if probe is not None:
            counts.setdefault(name, []).append(probe)

    def total(*names):
        return sum(total_by_name.get(n, 0.0) for n in names)

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    cg = counts.get("cg_solve", [])
    iterations = sum(c["iterations"] for c in cg)
    cg_s = total("cg_solve")
    largest = max(counts.get("condense", []), key=lambda c: c["nnz_K"], default=None)
    points = {name: sum(c["points"] for c in counts.get(name, []))
              for name in EXACT_FIELDS + SOURCE_FIELDS}
    metrics = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    metrics.update({
        "mesh.calls": count("build_structured_unit_square"),
        "femcore.rule_builds": count("triangle_quadrature", "edge_quadrature"),
        "assembly.block_nnz": max((c["block_nnz"] for c in counts.get("assemble", [])),
                                  default=0),
        "condense.recover_s": total("recover_sigma", "recover_phi"),
        "condense.full_saddle_s": self_by_name.get("solve_full_saddle", 0.0),
        "condense.nnz_K": largest["nnz_K"] if largest else 0,
        "condense.fill_ratio": largest["nnz_K"] / largest["nnz_S"] if largest else 0.0,
        "linsolve.cg_s": cg_s,
        "linsolve.cg_iterations": iterations,
        "linsolve.ms_per_iteration": 1e3 * cg_s / iterations if iterations else 0.0,
        "linsolve.spmv_bytes_per_iteration":
            sum(c["spmv_bytes"] * c["iterations"] for c in cg) / iterations
            if iterations else 0.0,
        "linsolve.cg_failed": sum(not c["converged"] for c in cg),
        "linsolve.dense_lu_s": total("dense_lu_solve"),
        "analysis.errors_s": total("l2_error_u", "h1h_error_u", "l2_error_sigma"),
        "problems.exact_point_evals": sum(points[n] for n in EXACT_FIELDS),
        "problems.source_point_evals": sum(points[n] for n in SOURCE_FIELDS),
        "trace.accounted_frac": sum(self_by_layer.values()) / wall,
    })
    return metrics


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median over traced passes; counts are taken from the first pass and
    the flag says whether they repeated exactly in every pass."""
    combined = {name: statistics.median(p[name] for p in per_pass)
                for name in per_pass[0]}
    repeat = True
    for name in COUNT_METRICS:
        if name in per_pass[0]:
            combined[name] = per_pass[0][name]
            repeat &= all(p[name] == per_pass[0][name] for p in per_pass)
    return combined, repeat
