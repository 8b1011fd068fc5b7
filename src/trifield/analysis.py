"""Error norms against manufactured solutions and convergence-rate tables.

The three reported quantities are the L2 error of u, the combined norm
||e||_{1,Omega} + ||e||_{1/2,h} (a sum of the two norms, not a root sum
of squares), and the L2 error of the projected gradient. Rates are
log2 ratios of successive errors under uniform mesh halving.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .femcore import edge_quadrature, quadrature_blocks, triangle_quadrature
from .mesh import Mesh, all_element_geometry


def _integrate(areas: np.ndarray, per_element: np.ndarray) -> float:
    """Integral over the mesh from the per-element rule sums `values @ rule.weights`."""
    return 2.0 * float(areas @ per_element)


def _edge_points(mesh: Mesh, rule) -> np.ndarray:
    pa = mesh.vertices[mesh.boundary_edges[:, 0]]
    pb = mesh.vertices[mesh.boundary_edges[:, 1]]
    return pa[:, None, :] + rule.points[None, :, None] * (pb - pa)[:, None, :]


def l2_error_u(mesh: Mesh, x_u: np.ndarray, exact_u: Callable,
               degree: int = 6) -> float:
    """||u - u_h||_{0,Omega} by element quadrature."""
    rule = triangle_quadrature(degree)
    areas, _ = all_element_geometry(mesh)
    l2 = np.empty(mesh.num_triangles)
    for blk, x, y in quadrature_blocks(mesh, rule):
        err = exact_u(x, y) - x_u[mesh.triangles[blk]] @ rule.points.T
        l2[blk] = err**2 @ rule.weights
    return math.sqrt(_integrate(areas, l2))


def h1h_error_u(mesh: Mesh, x_u: np.ndarray, exact_u: Callable,
                exact_grad_u: Callable, degree: int = 6,
                edge_degree: int = 5) -> float:
    """||u - u_h||_{1,Omega} + ||u - u_h||_{1/2,h}.

    The first summand is the full H1 norm; the second the edge-weighted
    boundary norm sqrt(sum_e (1/h_e) ||e||^2_{0,e}).
    """
    rule = triangle_quadrature(degree)
    areas, grads = all_element_geometry(mesh)
    grad_h = np.einsum("ta,tad->td", x_u[mesh.triangles], grads)  # constant per element
    l2 = np.empty(mesh.num_triangles)
    h1 = np.empty(mesh.num_triangles)
    for blk, x, y in quadrature_blocks(mesh, rule):
        err = exact_u(x, y) - x_u[mesh.triangles[blk]] @ rule.points.T
        l2[blk] = err**2 @ rule.weights
        g_err = exact_grad_u(x, y) - grad_h[blk].T[:, :, None]  # (2, len(blk), q)
        h1[blk] = (g_err**2).sum(axis=0) @ rule.weights
    l2_sq = _integrate(areas, l2)
    h1_sq = _integrate(areas, h1)

    erule = edge_quadrature(edge_degree)
    xk = _edge_points(mesh, erule)
    traces = np.column_stack([1.0 - erule.points, erule.points])
    u_h_edge = x_u[mesh.boundary_edges] @ traces.T  # (E, k)
    e_edge = exact_u(xk[..., 0], xk[..., 1]) - u_h_edge
    # the edge measure h_e cancels against the 1/h_e weight
    boundary_sq = np.einsum("k,ek->", erule.weights, e_edge**2)

    return math.sqrt(l2_sq + h1_sq) + math.sqrt(boundary_sq)


def l2_error_sigma(mesh: Mesh, x_sigma: np.ndarray, exact_grad_u: Callable,
                   degree: int = 6) -> float:
    """||grad u - sigma_h||_{0,Omega} for the P1-per-component field sigma_h."""
    nvert = mesh.num_vertices
    rule = triangle_quadrature(degree)
    areas, _ = all_element_geometry(mesh)
    per = np.empty((2, mesh.num_triangles))
    for blk, x, y in quadrature_blocks(mesh, rule):
        g_exact = exact_grad_u(x, y)  # (2, len(blk), q)
        for c in range(2):
            sig_h = x_sigma[c * nvert + mesh.triangles[blk]] @ rule.points.T
            per[c, blk] = (g_exact[c] - sig_h) ** 2 @ rule.weights
    return math.sqrt(_integrate(areas, per[0]) + _integrate(areas, per[1]))


def half_h_norm(mesh: Mesh, u_dofs: np.ndarray, edge_degree: int = 3) -> float:
    """Boundary norm ||u_h||_{1/2,h} of a P1 field."""
    from .assembly import assemble_penalty_norm_product

    return math.sqrt(assemble_penalty_norm_product(mesh, u_dofs, u_dofs, edge_degree))


def minus_half_h_norm(mesh: Mesh, boundary_field: Callable,
                      edge_degree: int = 5) -> float:
    """Dual boundary norm sqrt(sum_e h_e ||z||^2_{0,e}) of a pointwise field."""
    rule = edge_quadrature(edge_degree)
    xk = _edge_points(mesh, rule)
    z = boundary_field(xk[..., 0], xk[..., 1])  # (E, k)
    total = np.einsum("e,k,ek->", mesh.boundary_length**2, rule.weights, z**2)
    return math.sqrt(total)


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


@dataclass(frozen=True)
class ErrorTable:
    """Per-level errors and the rates between adjacent levels."""

    levels: tuple[int, ...]
    elements: tuple[int, ...]
    err_u_l2: tuple[float, ...]
    err_u_h1h: tuple[float, ...]
    err_sigma_l2: tuple[float, ...]
    rate_u_l2: tuple[float, ...] = field(default=())
    rate_u_h1h: tuple[float, ...] = field(default=())
    rate_sigma_l2: tuple[float, ...] = field(default=())

    @classmethod
    def from_errors(cls, levels, elements, err_u_l2, err_u_h1h, err_sigma_l2):
        def rates(errs):
            if len(errs) < 2:
                return (math.nan,) * len(errs)
            return (math.nan, *convergence_rates(errs))

        return cls(
            levels=tuple(levels),
            elements=tuple(elements),
            err_u_l2=tuple(err_u_l2),
            err_u_h1h=tuple(err_u_h1h),
            err_sigma_l2=tuple(err_sigma_l2),
            rate_u_l2=rates(err_u_l2),
            rate_u_h1h=rates(err_u_h1h),
            rate_sigma_l2=rates(err_sigma_l2),
        )

    def rows(self):
        for k in range(len(self.levels)):
            yield (
                self.elements[k],
                self.err_u_l2[k], self.rate_u_l2[k],
                self.err_u_h1h[k], self.rate_u_h1h[k],
                self.err_sigma_l2[k], self.rate_sigma_l2[k],
            )

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
        def clean(rate):
            return None if math.isnan(rate) else rate

        records = []
        for k in range(len(self.levels)):
            record = {
                "level": self.levels[k],
                "elements": self.elements[k],
                "err_u_l2": self.err_u_l2[k],
                "err_u_h1h": self.err_u_h1h[k],
                "err_sigma_l2": self.err_sigma_l2[k],
                "rate_u_l2": clean(self.rate_u_l2[k]),
                "rate_u_h1h": clean(self.rate_u_h1h[k]),
                "rate_sigma_l2": clean(self.rate_sigma_l2[k]),
            }
            if solver_reports is not None:
                record["solver"] = solver_reports[k]
            records.append(record)
        doc: dict = {"levels": records}
        if config is not None:
            doc["config"] = config
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
