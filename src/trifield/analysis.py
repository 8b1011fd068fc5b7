"""Error norms against manufactured solutions and convergence-rate tables.

The three reported quantities are the L2 error of u, the combined norm
||e||_{1,Omega} + ||e||_{1/2,h} (a sum of the two norms, not a root sum
of squares), and the L2 error of the projected gradient. Each norm
squares and sums a block's errors in place, in arrays it allocated: it
only reads what a field returns. Rates are log2 ratios of successive
errors under uniform mesh halving.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .femcore import (
    DATA_EDGE_DEGREE,
    DATA_TRI_DEGREE,
    edge_points,
    edge_quadrature,
    edge_traces,
    quadrature_blocks,
    triangle_quadrature,
)
from .mesh import Mesh


def _integrate(areas: np.ndarray, per_element: np.ndarray) -> float:
    """Integral over the mesh from the per-element rule sums `values @ rule.weights`."""
    return 2.0 * float(areas @ per_element)


def l2_error_u(mesh: Mesh, x_u: np.ndarray, exact_u: Callable) -> float:
    """||u - u_h||_{0,Omega} by element quadrature."""
    rule = triangle_quadrature(DATA_TRI_DEGREE)
    l2 = np.empty(mesh.num_triangles)
    for blk, x, y in quadrature_blocks(mesh, rule):
        err = exact_u(x, y) - x_u[mesh.triangles[blk]] @ rule.points.T
        err *= err
        l2[blk] = err @ rule.weights
    return math.sqrt(_integrate(mesh.areas, l2))


def h1h_error_u(mesh: Mesh, x_u: np.ndarray, exact_u: Callable,
                exact_grad_u: Callable) -> float:
    """||u - u_h||_{1,Omega} + ||u - u_h||_{1/2,h}.

    The first summand is the full H1 norm; the second the edge-weighted
    boundary norm sqrt(sum_e (1/h_e) ||e||^2_{0,e}).
    """
    rule = triangle_quadrature(DATA_TRI_DEGREE)
    # constant per element
    grad_h = np.einsum("ta,tad->td", x_u[mesh.triangles], mesh.gradients)
    l2 = np.empty(mesh.num_triangles)
    h1 = np.empty(mesh.num_triangles)
    for blk, x, y in quadrature_blocks(mesh, rule):
        err = exact_u(x, y) - x_u[mesh.triangles[blk]] @ rule.points.T
        err *= err
        l2[blk] = err @ rule.weights
        g_err = exact_grad_u(x, y) - grad_h[blk].T[:, :, None]  # (2, len(blk), q)
        g_err *= g_err
        g_err[0] += g_err[1]
        h1[blk] = g_err[0] @ rule.weights
    l2_sq = _integrate(mesh.areas, l2)
    h1_sq = _integrate(mesh.areas, h1)

    erule = edge_quadrature(DATA_EDGE_DEGREE)
    xk = edge_points(mesh, erule)
    u_h_edge = x_u[mesh.boundary_edges] @ edge_traces(erule).T  # (E, k)
    e_edge = exact_u(xk[..., 0], xk[..., 1]) - u_h_edge
    # the edge measure h_e cancels against the 1/h_e weight
    boundary_sq = np.einsum("k,ek->", erule.weights, e_edge**2)

    return math.sqrt(l2_sq + h1_sq) + math.sqrt(boundary_sq)


def l2_error_sigma(mesh: Mesh, x_sigma: np.ndarray, exact_grad_u: Callable) -> float:
    """||grad u - sigma_h||_{0,Omega} for the P1-per-component field sigma_h."""
    rule = triangle_quadrature(DATA_TRI_DEGREE)
    sigma = x_sigma.reshape(2, mesh.num_vertices)
    per = np.empty(mesh.num_triangles)
    for blk, x, y in quadrature_blocks(mesh, rule):
        # take gathers along one axis several times faster than sigma[:, ...]
        err = sigma.take(mesh.triangles[blk], axis=1) @ rule.points.T  # (2, len(blk), q)
        np.subtract(exact_grad_u(x, y), err, out=err)
        err *= err
        err[0] += err[1]
        per[blk] = err[0] @ rule.weights
    return math.sqrt(_integrate(mesh.areas, per))


def convergence_rates(errors: Sequence[float]) -> tuple[float, ...]:
    """Rates log2(e_coarse / e_fine) under h-halving, aligned with the levels.

    The coarsest level has no rate, and a pair with a zero or negative
    error has none either: both are NaN.
    """
    errors = np.asarray(errors, dtype=float)
    rates = np.full(errors.size, np.nan)
    valid = (errors[:-1] > 0.0) & (errors[1:] > 0.0)
    rates[1:][valid] = np.log2(errors[:-1][valid] / errors[1:][valid])
    return tuple(rates.tolist())


@dataclass(frozen=True)
class Column:
    """A report column: its ErrorTable attribute, which is also its JSON
    key, its CSV and Markdown headers, and the format spec of a number in
    each. A NaN rate is blank: the level has no rate."""

    key: str
    csv: str
    md: str
    csv_spec: str = ""
    md_spec: str = ""

    def text(self, value, spec: str) -> str:
        return "" if self.key.startswith("rate_") and math.isnan(value) else format(value, spec)


def _error_column(key: str, csv: str, md: str) -> tuple[Column, Column]:
    """An error column and the rate column that follows it."""
    rate = Column("rate_" + key.removeprefix("err_"), "rate" + csv[1:], "rate", ".4f", ".4f")
    return Column(key, csv, md, ".6e", ".4e"), rate


#: the report's columns, in order. A new error column is one entry here,
#: plus its ErrorTable field and rate property.
COLUMNS = (
    Column("elements", "elem", "elem"),
    *_error_column("err_u_l2", "eL2", "err u L2"),
    *_error_column("err_u_h1h", "e1h", "err u 1,h"),
    *_error_column("err_sigma_l2", "eSig", "err sigma L2"),
)


def markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A Markdown table whose columns are all right-aligned."""
    lines = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
    lines.insert(1, "|" + "|".join("-" * (len(h) + 1) + ":" for h in header) + "|")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorTable:
    """Per-level errors; the rates between adjacent levels derive from them."""

    levels: tuple[int, ...]
    elements: tuple[int, ...]
    err_u_l2: tuple[float, ...]
    err_u_h1h: tuple[float, ...]
    err_sigma_l2: tuple[float, ...]

    # derived from the errors, read-only
    rate_u_l2 = property(lambda self: convergence_rates(self.err_u_l2))
    rate_u_h1h = property(lambda self: convergence_rates(self.err_u_h1h))
    rate_sigma_l2 = property(lambda self: convergence_rates(self.err_sigma_l2))

    def __post_init__(self):
        for field in fields(self)[1:]:
            if (size := len(getattr(self, field.name))) != len(self.levels):
                raise ValueError(f"column {field.name} has {size} entries for "
                                 f"{len(self.levels)} levels")

    def rows(self):
        """Each level's values in the order of COLUMNS, coarsest first."""
        return zip(*(getattr(self, c.key) for c in COLUMNS), strict=True)

    def to_csv(self, config: dict | None = None) -> str:
        lines = [] if config is None else ["# config: " + json.dumps(config, sort_keys=True)]
        lines.append(",".join(c.csv for c in COLUMNS))
        lines += (",".join(c.text(v, c.csv_spec) for c, v in zip(COLUMNS, row))
                  for row in self.rows())
        return "\n".join(lines) + "\n"

    def to_markdown(self, config: dict | None = None) -> str:
        rows = ([c.text(v, c.md_spec) for c, v in zip(COLUMNS, row)] for row in self.rows())
        table = markdown_table([c.md for c in COLUMNS], rows)
        if config is not None:
            table = f"config: {json.dumps(config, sort_keys=True)}\n\n{table}"
        return table

    def to_json(self, config: dict | None = None,
                solver_reports: list[dict] | None = None) -> str:
        records = []
        for k, (level, row) in enumerate(zip(self.levels, self.rows(), strict=True)):
            # strict JSON has no NaN or infinity
            record = {"level": level} | {c.key: v if math.isfinite(v) else None
                                         for c, v in zip(COLUMNS, row)}
            if solver_reports is not None:
                record["solver"] = solver_reports[k]
            records.append(record)
        doc: dict = {"levels": records}
        if config is not None:
            doc["config"] = config
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
