"""Linearization of the power-density map and its exact discrete adjoint.

The conductivity-to-data derivative is a composition of linear maps on
the discrete level (per-triangle averaging, the constrained Neumann
solve, gradient pairings, and the vertex projection). Its adjoint is
implemented as the exact transpose of that composition with respect to
the mass-weighted data inner product and the selected domain inner
product, which makes the inner-product identity

    <dF h, w>_data = <h, adjoint(w)>_domain

hold to solver precision. Gradient-descent stepsizes rely on this, so
the adjoint deliberately transposes the implemented discretization
instead of re-discretizing the continuous adjoint.

Nothing here rebuilds mesh structure per call: the averaging, gradient
and projection maps are products with the mesh's cached sparse
operators, and the pairing transposes come from the forward state,
which forms them once from its potential gradients.
"""

from __future__ import annotations

import numpy as np

from .fem import GramSolver, NodalField, triangle_average, triangle_average_t
from .forward import (
    ForwardState,
    gradient_on_triangles,
    project_to_vertices,
    pullback_to_triangles,
)
from .mesh import rowwise


def _directional_pairing(state: ForwardState, columns: np.ndarray) -> np.ndarray:
    """(M, T) pairings grad(u_j) . grad(v_j) per triangle, v_j column j of (V, M) columns."""
    return np.einsum(
        "mtd,mtd->mt", state.grad_u, gradient_on_triangles(state.mesh, columns.T)
    )


def derivative_apply(state: ForwardState, h: NodalField) -> NodalField:
    """Directional derivative of the forward map: an (M, V) stack of fields.

    Per triangle the perturbation is h |grad u_j|^2 + 2 sigma grad u_j .
    grad(u'_j), projected to vertices like the power density itself. The
    linearized solves for all measurements share one back-substitution.
    """
    h.check_single("the direction h")
    mesh = state.mesh
    h_tri = triangle_average(mesh, h.values)
    weights = h_tri * mesh.triangle_areas
    rhs = -np.column_stack([pairing @ weights for pairing in state.pairing_t])
    uprime = state.solver.solve(rhs)
    tri = state.grad_sq * h_tri + 2.0 * state.sigma_tri * _directional_pairing(state, uprime)
    return NodalField(mesh, project_to_vertices(mesh, tri))


def adjoint_apply(state: ForwardState, w: NodalField, gram: GramSolver) -> NodalField:
    """Adjoint of ``derivative_apply`` applied to an (M, V) stack of data fields.

    Exact transpose of the discrete derivative: data fields are pulled
    back to triangles through the mass-weighted vertex projection (the
    data Riesz map is ``mesh.mass``, whatever the domain product), the
    adjoint potentials reuse the forward factorization, and the final
    Gram solve maps the accumulated functional into the domain space
    selected by ``gram`` (for the L2 inner product this reduces to a
    mass solve, i.e. the plain L2 adjoint with no extra smoothing).
    """
    expected = (state.num_measurements, state.mesh.num_vertices)
    if w.values.shape != expected:
        raise ValueError(f"expected a data stack of shape {expected}, got {w.values.shape}")
    mesh = state.mesh
    q = pullback_to_triangles(mesh, rowwise(mesh.mass, w.values))
    weights = state.sigma_tri * q
    rhs = np.column_stack([pairing @ wj for pairing, wj in zip(state.pairing_t, weights)])
    z = state.solver.solve(rhs)
    tri = state.grad_sq * q - 2.0 * mesh.triangle_areas * _directional_pairing(state, z)
    dual = triangle_average_t(mesh, tri).sum(axis=0)  # row by row, in order
    return NodalField(mesh, gram.solve_dual(dual))
