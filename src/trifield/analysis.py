"""Error norms against manufactured solutions and convergence-rate tables.

The three reported quantities are the L2 error of u, the combined norm
||e||_{1,Omega} + ||e||_{1/2,h} (a sum of the two norms, not a root sum
of squares), and the L2 error of the projected gradient. Each norm
squares and sums a block's errors in place, in arrays it allocated: it
only reads what a field returns. Rates are log2 ratios of successive
errors under uniform mesh halving.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def convergence_rates(errors: Sequence[float]) -> np.ndarray:
    """Rates log2(e_coarse / e_fine) for successive levels under h-halving.

    Degenerate (zero or negative) errors yield NaN markers.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2:
        raise ValueError("need at least two levels to compute rates")
    rates = np.full(errors.size - 1, np.nan)
    valid = (errors[:-1] > 0.0) & (errors[1:] > 0.0)
    rates[valid] = np.log2(errors[:-1][valid] / errors[1:][valid])
    return rates


_CSV_HEADER = ["elem", "eL2", "rateL2", "e1h", "rate1h", "eSig", "rateSig"]


def _rates_column(errors: tuple[float, ...]) -> tuple[float, ...]:
    """Rates aligned with the levels: NaN at the coarsest, and everywhere
    when there is a single level."""
    if len(errors) < 2:
        return (math.nan,) * len(errors)
    return (math.nan, *convergence_rates(errors))


@dataclass(frozen=True)
class ErrorTable:
    """Per-level errors; the rates between adjacent levels derive from them."""

    levels: tuple[int, ...]
    elements: tuple[int, ...]
    err_u_l2: tuple[float, ...]
    err_u_h1h: tuple[float, ...]
    err_sigma_l2: tuple[float, ...]

    # derived from the errors, read-only
    rate_u_l2 = property(lambda self: _rates_column(self.err_u_l2))
    rate_u_h1h = property(lambda self: _rates_column(self.err_u_h1h))
    rate_sigma_l2 = property(lambda self: _rates_column(self.err_sigma_l2))

    def __post_init__(self):
        for name in ("elements", "err_u_l2", "err_u_h1h", "err_sigma_l2"):
            if (size := len(getattr(self, name))) != len(self.levels):
                raise ValueError(f"column {name} has {size} entries for "
                                 f"{len(self.levels)} levels")

    def rows(self):
        """(elements, err, rate, err, rate, err, rate) per level, coarsest first."""
        return zip(self.elements, self.err_u_l2, self.rate_u_l2, self.err_u_h1h,
                   self.rate_u_h1h, self.err_sigma_l2, self.rate_sigma_l2, strict=True)

    def to_csv(self, config: dict | None = None) -> str:
        out = io.StringIO()
        if config is not None:
            out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for elem, e1, r1, e2, r2, e3, r3 in self.rows():
            writer.writerow([
                elem,
                f"{e1:.6e}", "" if math.isnan(r1) else f"{r1:.4f}",
                f"{e2:.6e}", "" if math.isnan(r2) else f"{r2:.4f}",
                f"{e3:.6e}", "" if math.isnan(r3) else f"{r3:.4f}",
            ])
        return out.getvalue()

    def to_markdown(self, config: dict | None = None) -> str:
        lines = []
        if config is not None:
            lines.append("config: " + json.dumps(config, sort_keys=True))
            lines.append("")
        lines.append("| elem | err u L2 | rate | err u 1,h | rate | err sigma L2 | rate |")
        lines.append("|-----:|---------:|-----:|----------:|-----:|-------------:|-----:|")
        for elem, e1, r1, e2, r2, e3, r3 in self.rows():
            def fmt(rate):
                return "" if math.isnan(rate) else f"{rate:.4f}"

            lines.append(
                f"| {elem} | {e1:.4e} | {fmt(r1)} | {e2:.4e} | {fmt(r2)} | "
                f"{e3:.4e} | {fmt(r3)} |"
            )
        return "\n".join(lines) + "\n"

    def to_json(self, config: dict | None = None,
                solver_reports: list[dict] | None = None) -> str:
        def clean(value):  # strict JSON has no NaN or infinity
            return value if math.isfinite(value) else None

        records = []
        for k, (level, (elem, e1, r1, e2, r2, e3, r3)) in enumerate(
                zip(self.levels, self.rows(), strict=True)):
            record = {
                "level": level,
                "elements": elem,
                "err_u_l2": clean(e1),
                "err_u_h1h": clean(e2),
                "err_sigma_l2": clean(e3),
                "rate_u_l2": clean(r1),
                "rate_u_h1h": clean(r2),
                "rate_sigma_l2": clean(r3),
            }
            if solver_reports is not None:
                record["solver"] = solver_reports[k]
            records.append(record)
        doc: dict = {"levels": records}
        if config is not None:
            doc["config"] = config
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
