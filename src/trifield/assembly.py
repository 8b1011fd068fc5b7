"""Assembly of the block saddle-point system.

Six matrices and two load vectors: stiffness S, vector mass M, diagonal
dual pairing D, Nitsche boundary coupling A, gradient-multiplier
coupling B, boundary penalty C, and the loads f1 (domain source plus
penalty-weighted Dirichlet data) and f2 (normal-flux pairing with the
Dirichlet data).

Vector-valued degrees of freedom are two stacked scalar blocks: dof
(c, j) of component c lives at index c*N + j. Dirichlet data is
evaluated pointwise at quadrature nodes, never interpolated first. The
matrix integrands are products of P1 functions, so the default degrees
(2 on triangles, 3 on edges) integrate them exactly; the data integrals
default to higher-degree rules so data integration error stays far
below the discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .femcore import DualBasis, edge_quadrature, quadrature_blocks, triangle_quadrature
from .linsolve import canonical
from .mesh import Mesh, all_element_geometry
from .problems import ProblemData


@dataclass(frozen=True)
class BlockSystem:
    """Assembled matrices and loads of the three-field formulation."""

    S: scipy.sparse.csr_array  # N x N stiffness
    M: scipy.sparse.csr_array  # 2N x 2N vector mass (block-diagonal)
    D: np.ndarray              # 2N diagonal of the biorthogonal pairing
    A: scipy.sparse.csr_array  # N x 2N Nitsche boundary coupling
    B: scipy.sparse.csr_array  # N x 2N gradient-multiplier coupling
    C: scipy.sparse.csr_array  # N x N boundary penalty
    f1: np.ndarray             # length N
    f2: np.ndarray             # length 2N
    n_primal: int              # number of scalar (vertex) dofs
    alpha: float

    def __post_init__(self):
        self.D.flags.writeable = False
        self.f1.flags.writeable = False
        self.f2.flags.writeable = False


def _element_triplet_pattern(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return rows, cols


def _edge_trace_matrix(rule) -> np.ndarray:
    """Traces of the two endpoint P1 functions at the edge rule points, (k, 2)."""
    s = rule.points
    return np.column_stack([1.0 - s, s])


def assemble(
    mesh: Mesh,
    data: ProblemData,
    alpha: float,
    dual: DualBasis | None = None,
    tri_degree: int = 2,
    edge_degree: int = 3,
    load_tri_degree: int = 6,
    load_edge_degree: int = 5,
) -> BlockSystem:
    """Assemble all blocks of the saddle-point system on the given mesh.

    alpha is the boundary penalty weight. Passing a rescaled DualBasis
    rescales D and B together, which leaves the condensed problem
    invariant.
    """
    if alpha < 0.0:
        raise ValueError(f"penalty weight must be nonnegative, got {alpha}")
    dual = dual or DualBasis()
    nvert = mesh.num_vertices
    tri = mesh.triangles
    areas, grads = all_element_geometry(mesh)

    rule = triangle_quadrature(tri_degree)
    shp = rule.points                      # (q, 3) P1 values = barycentrics
    w = rule.weights
    mu = dual.values(rule.points)          # (q, 3)
    scale = 2.0 * areas                    # reference weights sum to 1/2

    # stiffness: constant gradients, quadrature reduces to the area factor
    s_loc = np.einsum("tad,tbd->tab", grads, grads) * areas[:, None, None]

    # scalar mass and dual pairing
    mass_ref = np.einsum("q,qa,qb->ab", w, shp, shp)
    m_loc = scale[:, None, None] * mass_ref
    d_loc = scale[:, None] * np.einsum("q,qa,qa->a", w, shp, mu)

    # gradient against dual functions: grad(rho_a) is constant, so only
    # the dual moments 2|T| * sum_q w_q mu_b(q) enter
    mu_moment = scale[:, None] * (w @ mu)  # (T, 3)
    b_loc = np.einsum("tac,tb->tcab", grads, mu_moment)  # (T, 2, 3, 3)

    rows, cols = _element_triplet_pattern(tri)
    s_mat = scipy.sparse.coo_array((s_loc.ravel(), (rows, cols)), shape=(nvert, nvert))
    m_scalar = scipy.sparse.coo_array((m_loc.ravel(), (rows, cols)), shape=(nvert, nvert))
    m_mat = scipy.sparse.block_diag((m_scalar, m_scalar))

    d_diag = np.zeros(nvert)
    np.add.at(d_diag, tri.ravel(), d_loc.ravel())

    b_rows = np.concatenate([rows, rows])
    b_cols = np.concatenate([cols, nvert + cols])
    b_vals = np.concatenate([b_loc[:, 0].ravel(), b_loc[:, 1].ravel()])
    b_mat = scipy.sparse.coo_array((b_vals, (b_rows, b_cols)), shape=(nvert, 2 * nvert))

    # boundary terms
    erule = edge_quadrature(edge_degree)
    tr = _edge_trace_matrix(erule)                       # (k, 2)
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
    lrule = triangle_quadrature(load_tri_degree)
    f1_loc = np.empty((len(tri), 3))
    for blk, x, y in quadrature_blocks(mesh, lrule):
        f1_loc[blk] = scale[blk, None] * ((data.f(x, y) * lrule.weights) @ lrule.points)
    f1 = np.zeros(nvert)
    np.add.at(f1, tri, f1_loc)

    lerule = edge_quadrature(load_edge_degree)
    ltr = _edge_trace_matrix(lerule)
    pa = mesh.vertices[bedges[:, 0]]
    pb = mesh.vertices[bedges[:, 1]]
    xk = pa[:, None, :] + lerule.points[None, :, None] * (pb - pa)[:, None, :]
    g_vals = data.g_dirichlet(xk[..., 0], xk[..., 1])    # (E, k)
    edge_data = np.einsum("k,ek,kp->ep", lerule.weights, g_vals, ltr)  # (E, 2)

    # penalty-weighted data: (1/h_e) * h_e cancels again
    np.add.at(f1, bedges, alpha * edge_data)

    f2 = np.zeros(2 * nvert)
    flux_data = h_e[:, None] * edge_data
    np.add.at(f2, bedges, normals[:, 0:1] * flux_data)
    np.add.at(f2, nvert + bedges, normals[:, 1:2] * flux_data)

    return BlockSystem(
        S=canonical(s_mat),
        M=canonical(m_mat),
        D=np.concatenate([d_diag, d_diag]),
        A=canonical(a_mat),
        B=canonical(b_mat),
        C=canonical(c_mat),
        f1=f1,
        f2=f2,
        n_primal=nvert,
        alpha=alpha,
    )


def assemble_penalty_norm_product(
    mesh: Mesh, u_dofs: np.ndarray, v_dofs: np.ndarray, edge_degree: int = 3
) -> float:
    """Edge-weighted boundary product sum_e (1/h_e) int_e u v ds for P1 fields.

    Evaluated edge by edge with quadrature, independently of the
    assembled penalty matrix; equals x^T C y up to roundoff.
    """
    u_dofs = np.asarray(u_dofs, dtype=float)
    v_dofs = np.asarray(v_dofs, dtype=float)
    if u_dofs.shape != (mesh.num_vertices,) or v_dofs.shape != (mesh.num_vertices,):
        raise ValueError("dof vectors must have one entry per mesh vertex")
    rule = edge_quadrature(edge_degree)
    tr = _edge_trace_matrix(rule)
    u_trace = u_dofs[mesh.boundary_edges] @ tr.T  # (E, k)
    v_trace = v_dofs[mesh.boundary_edges] @ tr.T
    # the h_e measure cancels against the 1/h_e weight
    return float(np.einsum("k,ek,ek->", rule.weights, u_trace, v_trace))


def dual_pairing_matrix(
    mesh: Mesh, dual: DualBasis | None = None, tri_degree: int = 2
) -> scipy.sparse.csr_array:
    """Full pairing matrix int_Omega rho_i mu_j dx, for biorthogonality checks.

    Off-diagonal entries vanish analytically; assembling all nine local
    couplings makes that a measurable property rather than an assumption.
    """
    dual = dual or DualBasis()
    nvert = mesh.num_vertices
    areas, _ = all_element_geometry(mesh)
    rule = triangle_quadrature(tri_degree)
    mu = dual.values(rule.points)
    loc = (2.0 * areas)[:, None, None] * np.einsum(
        "q,qa,qb->ab", rule.weights, rule.points, mu
    )
    rows, cols = _element_triplet_pattern(mesh.triangles)
    pairing = scipy.sparse.coo_array((loc.ravel(), (rows, cols)), shape=(nvert, nvert))
    return canonical(pairing)
