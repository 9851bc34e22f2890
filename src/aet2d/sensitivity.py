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


def _directional_pairing(state: ForwardState, j: int, values: np.ndarray) -> np.ndarray:
    """(T,) pairing grad(u_j) . grad(field) per triangle."""
    return np.einsum(
        "td,td->t", state.grad_u[j], gradient_on_triangles(state.mesh, values)
    )


def _directional_pairing_t(state: ForwardState, j: int, tri_values: np.ndarray) -> np.ndarray:
    """Transpose of ``_directional_pairing``: triangle weights -> vertex vector.

    Component i is sum_T w_T (grad u_j . grad phi_i)_T.
    """
    return state.pairing_t[j] @ tri_values


def derivative_apply(state: ForwardState, h: NodalField) -> list[NodalField]:
    """Directional derivative of the forward map: one field per measurement.

    Per triangle the perturbation is h |grad u_j|^2 + 2 sigma grad u_j .
    grad(u'_j), projected to vertices like the power density itself. The
    linearized solves for all measurements share one back-substitution.
    """
    mesh = state.mesh
    h_tri = triangle_average(mesh, h.values)
    rhs = np.column_stack(
        [
            -_directional_pairing_t(state, j, h_tri * mesh.triangle_areas)
            for j in range(state.num_measurements)
        ]
    )
    uprime = state.solver.solve(rhs)
    out = []
    for j in range(state.num_measurements):
        tri = state.grad_sq[j] * h_tri + 2.0 * state.sigma_tri * _directional_pairing(
            state, j, uprime[:, j]
        )
        out.append(NodalField(mesh, project_to_vertices(mesh, tri)))
    return out


def adjoint_apply(
    state: ForwardState, w: list[NodalField], gram: GramSolver
) -> NodalField:
    """Adjoint of ``derivative_apply`` applied to a stack of data fields.

    Exact transpose of the discrete derivative: data fields are pulled
    back to triangles through the mass-weighted vertex projection, the
    adjoint potentials reuse the forward factorization, and the final
    Gram solve maps the accumulated functional into the domain space
    selected by ``gram`` (for the L2 inner product this reduces to a
    mass solve, i.e. the plain L2 adjoint with no extra smoothing).
    """
    if len(w) != state.num_measurements:
        raise ValueError(
            f"expected {state.num_measurements} data fields, got {len(w)}"
        )
    mesh = state.mesh
    q = [
        pullback_to_triangles(mesh, gram.mass @ w[j].values)
        for j in range(state.num_measurements)
    ]
    rhs = np.column_stack(
        [
            _directional_pairing_t(state, j, state.sigma_tri * q[j])
            for j in range(state.num_measurements)
        ]
    )
    z = state.solver.solve(rhs)
    dual = np.zeros(mesh.num_vertices)
    for j in range(state.num_measurements):
        tri = state.grad_sq[j] * q[j] - 2.0 * mesh.triangle_areas * _directional_pairing(
            state, j, z[:, j]
        )
        dual += triangle_average_t(mesh, tri)
    return NodalField(mesh, gram.solve_dual(dual))
