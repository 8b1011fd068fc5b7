"""Assembly of the block saddle-point system.

Six matrices and three load vectors: stiffness S, vector mass M,
diagonal dual pairing D, Nitsche boundary coupling A, gradient-multiplier
coupling B, boundary penalty C, and the loads f1_source (domain source),
f1_penalty (Dirichlet data against the edge traces) and f2 (normal-flux
pairing with the Dirichlet data). None depends on the weights r and
alpha: `condense` forms the first-row load f1_source + alpha f1_penalty.

Vector-valued degrees of freedom are two stacked scalar blocks: dof
(c, j) of component c lives at index c*N + j. Dirichlet data is
evaluated pointwise at quadrature nodes, never interpolated first. The
quadrature degrees are the fixed ones of `femcore`: exact for the P1
products of the matrices, and high enough for the data integrals that
their error stays far below the discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .femcore import (
    DATA_EDGE_DEGREE,
    DATA_TRI_DEGREE,
    P1_EDGE_DEGREE,
    P1_TRI_DEGREE,
    dual_values,
    edge_points,
    edge_quadrature,
    edge_traces,
    quadrature_blocks,
    triangle_quadrature,
)
from .linsolve import canonical
from .mesh import Mesh
from .problems import ProblemData


@dataclass(frozen=True)
class BlockSystem:
    """Assembled matrices and loads, free of the weights r and alpha."""

    S: scipy.sparse.csr_array  # N x N stiffness
    M: scipy.sparse.csr_array  # 2N x 2N vector mass (block-diagonal)
    D: np.ndarray              # 2N diagonal of the biorthogonal pairing
    A: scipy.sparse.csr_array  # N x 2N Nitsche boundary coupling
    B: scipy.sparse.csr_array  # N x 2N gradient-multiplier coupling
    C: scipy.sparse.csr_array  # N x N boundary penalty
    f1_source: np.ndarray      # length N, domain source
    f1_penalty: np.ndarray     # length N, Dirichlet data against edge traces
    f2: np.ndarray             # length 2N

    def __post_init__(self):
        # every elimination divides by D; NaN fails the test as well
        if not np.all(self.D > 0.0):
            raise ValueError("dual pairing has a non-positive or NaN diagonal entry; "
                             "biorthogonality is broken")
        for vec in (self.D, self.f1_source, self.f1_penalty, self.f2):
            vec.flags.writeable = False

    @property
    def n_primal(self) -> int:
        """Number of scalar (vertex) dofs N."""
        return self.S.shape[0]

    def f1(self, alpha: float) -> np.ndarray:
        """First-row load for the boundary penalty weight alpha."""
        return self.f1_source + alpha * self.f1_penalty


def _on_pattern(mesh: Mesh, local: np.ndarray) -> scipy.sparse.csr_array:
    """Sum element matrices (T, 3, 3) onto the mesh's P1 pattern (not canonical)."""
    indptr, indices, slot = mesh.p1_pattern
    data = np.bincount(slot, weights=local.ravel(), minlength=indices.size)
    nvert = mesh.num_vertices
    return scipy.sparse.csr_array((data, indices, indptr), shape=(nvert, nvert))


def assemble(mesh: Mesh, data: ProblemData) -> BlockSystem:
    """Assemble all blocks of the saddle-point system on the given mesh.

    D and B pair against the paper's fixed dual basis (`femcore.dual_values`).
    """
    nvert = mesh.num_vertices
    tri = mesh.triangles
    areas, grads = mesh.areas, mesh.gradients

    rule = triangle_quadrature(P1_TRI_DEGREE)
    shp = rule.points                      # (q, 3) P1 values = barycentrics
    w = rule.weights
    mu = dual_values(rule.points)          # (q, 3)
    scale = 2.0 * areas                    # reference weights sum to 1/2

    # each volume block is canonicalised as soon as it is summed, so that
    # no element array outlives the block it builds

    # stiffness: constant gradients, quadrature reduces to the area factor;
    # formed in place, so that at most two (T, 3, 3) arrays are alive
    s_loc = grads[:, :, None, 0] * grads[:, None, :, 0]
    s_loc += grads[:, :, None, 1] * grads[:, None, :, 1]
    s_loc *= areas[:, None, None]
    s_mat = canonical(_on_pattern(mesh, s_loc))
    del s_loc

    # scalar mass m, stacked into the vector mass diag(m, m): the second
    # copy's columns shift by N and its row pointers by nnz(m)
    mass_ref = np.einsum("q,qa,qb->ab", w, shp, shp)
    m = canonical(_on_pattern(mesh, scale[:, None, None] * mass_ref))
    m_mat = canonical(scipy.sparse.csr_array(
        (np.tile(m.data, 2), np.concatenate([m.indices, m.indices + nvert]),
         np.concatenate([m.indptr, m.indptr[1:] + m.nnz])),
        shape=(2 * nvert, 2 * nvert),
    ))

    # the dual moments 2|T| * sum_q w_q mu_b(q), one per corner
    mu_moment = scale[:, None] * (w @ mu)  # (T, 3)

    # dual pairing: diagonal by biorthogonality, and int_T lambda_a mu_a =
    # int_T mu_a, so D sums the dual moments
    d_diag = np.bincount(tri.ravel(), mu_moment.ravel(), minlength=nvert)

    # gradient against dual functions: grad(rho_a) is constant, so only
    # the dual moments enter; B = [B_x, B_y]
    b_mat = canonical(scipy.sparse.hstack([
        _on_pattern(mesh, grads[:, :, c, None] * mu_moment[:, None, :]) for c in range(2)
    ], format="csr"))

    # boundary terms
    erule = edge_quadrature(P1_EDGE_DEGREE)
    tr = edge_traces(erule)                              # (k, 2)
    pairing_ref = tr.T @ (erule.weights[:, None] * tr)   # (2, 2), edge P1 x P1
    bedges = mesh.boundary_edges
    h_e = mesh.boundary_length
    normals = mesh.boundary_normal

    e_rows = np.repeat(bedges, 2, axis=1).ravel()
    e_cols = np.tile(bedges, (1, 2)).ravel()
    edge_pairings = h_e[:, None] * pairing_ref.ravel()[None, :]  # (E, 4)

    # penalty: the 1/h_e weight cancels the h_e of the edge measure
    c_vals = (edge_pairings / h_e[:, None]).ravel()
    c_mat = scipy.sparse.coo_array((c_vals, (e_rows, e_cols)), shape=(nvert, nvert))

    a_rows = np.concatenate([e_rows, e_rows])
    a_cols = np.concatenate([e_cols, nvert + e_cols])
    a_vals = np.concatenate(
        [
            (normals[:, 0:1] * edge_pairings).ravel(),
            (normals[:, 1:2] * edge_pairings).ravel(),
        ]
    )
    a_mat = scipy.sparse.coo_array((a_vals, (a_rows, a_cols)), shape=(nvert, 2 * nvert))

    # loads
    lrule = triangle_quadrature(DATA_TRI_DEGREE)
    f1_loc = np.empty((len(tri), 3))
    for blk, x, y in quadrature_blocks(mesh, lrule):
        f1_loc[blk] = scale[blk, None] * ((data.f(x, y) * lrule.weights) @ lrule.points)
    f1_source = np.bincount(tri.ravel(), f1_loc.ravel(), minlength=nvert)

    lerule = edge_quadrature(DATA_EDGE_DEGREE)
    ltr = edge_traces(lerule)
    xk = edge_points(mesh, lerule)
    g_vals = data.g_dirichlet(xk[..., 0], xk[..., 1])    # (E, k)
    edge_data = np.einsum("k,ek,kp->ep", lerule.weights, g_vals, ltr)  # (E, 2)

    # data against the penalty's traces: (1/h_e) * h_e cancels again
    f1_penalty = np.bincount(bedges.ravel(), edge_data.ravel(), minlength=nvert)

    # component c of the flux pairing sums onto the dofs c*N + vertex
    flux_data = normals.T[:, :, None] * (h_e[:, None] * edge_data)  # (2, E, 2)
    f2 = np.bincount((bedges + nvert * np.arange(2)[:, None, None]).ravel(),
                     flux_data.ravel(), minlength=2 * nvert)

    return BlockSystem(
        S=s_mat,
        M=m_mat,
        D=np.concatenate([d_diag, d_diag]),
        A=canonical(a_mat),
        B=b_mat,
        C=canonical(c_mat),
        f1_source=f1_source,
        f1_penalty=f1_penalty,
        f2=f2,
    )

