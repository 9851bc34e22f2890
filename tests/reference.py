"""Matrix-free references of the forward map and its linearization, and
a reader of the iteration log, for cross-checks in tests.

``power_density`` evaluates sigma |grad u|^2 for a given potential u.
``linearized_potential`` solves for one measurement's potential
perturbation on its own, and ``derivative_pairing`` pairs the derivative
with the nodal data basis triangle by triangle. None of them assembles a
matrix, so they check the transfer matrix and the derivative
independently of how the package forms them.
"""

import numpy as np

from aet2d.fem import NodalField, triangle_average
from aet2d.forward import ForwardState, gradient_on_triangles, project_to_vertices
from aet2d.mesh import MASS_BASE


def power_density(sigma: NodalField, u: NodalField) -> NodalField:
    """Power density sigma * |grad u|^2 of one potential, as a vertex field."""
    mesh = sigma.mesh
    grad = gradient_on_triangles(mesh, u.values)
    tri_vals = triangle_average(mesh, sigma.values) * np.einsum("td,td->t", grad, grad)
    return NodalField(mesh, project_to_vertices(mesh, tri_vals))


def read_iteration_log(path):
    """Return the (k, residual, omega, rel_error) columns of an iteration log."""
    rows = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    return rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3]


def linearized_potential(state: ForwardState, j: int, h: NodalField) -> NodalField:
    """Potential perturbation for a conductivity perturbation h.

    Solves the zero-mean weak problem
    int sigma grad(u') . grad(v) = -int h grad(u_j) . grad(v) for all v,
    reusing the forward factorization of K(sigma).
    """
    mesh = state.mesh
    rhs = state.pairing_t[j] @ (triangle_average(mesh, h.values) * mesh.triangle_areas)
    return NodalField(mesh, state.solver.solve(-rhs))


def derivative_pairing(state: ForwardState, h: NodalField) -> np.ndarray:
    """Stacked pairings of the derivative in direction h with the data basis.

    Per measurement, component row is int psi_row [h |grad u_j|^2 +
    2 sigma grad u_j . grad u'_j(h)], evaluated triangle by triangle.
    """
    mesh = state.mesh
    t = mesh.triangles
    h_loc = h.values[t]
    sig_loc = state.sigma.values[t]
    out = []
    for j in range(state.num_measurements):
        up = linearized_potential(state, j, h)
        dir_pair = np.einsum(
            "td,td->t", state.grad_u[j], gradient_on_triangles(mesh, up.values)
        )
        # int_T h phi_a weights (exact for P1 h), plus the constant term
        mult = np.einsum("ab,tb->ta", MASS_BASE, h_loc) * (
            state.grad_sq[j] * mesh.triangle_areas
        )[:, None]
        second = np.einsum("ab,tb->ta", MASS_BASE, sig_loc) * (
            2.0 * dir_pair * mesh.triangle_areas
        )[:, None]
        row = np.bincount(
            t.ravel(), weights=(mult + second).ravel(), minlength=mesh.num_vertices
        )
        out.append(row)
    return np.concatenate(out)
