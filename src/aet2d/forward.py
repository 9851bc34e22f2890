"""Boundary-current families, potential solves, and power densities.

The forward map takes a conductivity to the stack of interior power
densities, one per applied boundary current. Per-triangle quantities
(P1 gradients are piecewise constant) are projected to vertex fields by
area-weighted averaging over the incident triangles, so the data space
shares the nodal basis of the domain space. The map is defined for every
conductivity that is positive everywhere; the lower bound that the
reconstruction keeps is Landweber's (``inversion``).

The maps between vertex and triangle values (gradients, the projection
and its transpose) are products with the mesh's cached fixed-pattern
sparse operators. Their entries are stored in local (triangle, corner)
order, so each sum runs in the same order as the gather/scatter it
stands for. A ``ForwardState`` holds each measurement's pairing
coefficients as such an operator, formed once per state on first use.

``simulate_data`` keeps, for each live data mesh, the factorized
solver of the last fine conductivity it synthesized data for, weakly
keyed by the mesh, so data for several arcs of one phantom share one
factorization of K(sigma).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from . import fem
from .fem import NodalField, ZeroMeanSolver, assemble_boundary_load, assemble_stiffness
from .mesh import FULL_CIRCLE, BoundaryArc, Mesh, accessible_boundary_edges, interpolate, rowwise
from .phantom import PhantomSpec, phantom_field

FAMILIES = ("trig", "special")

# Per data mesh: (fine conductivity values, solver) of the last
# ``simulate_data`` call on it. The solver holds no reference to the mesh.
_FINE_SOLVERS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class MeasurementSet:
    """The boundary currents j in ``indices`` of one family, applied on one arc.

    ``trig``: sin(2*j*pi*theta/alpha) supported on the arc [0, alpha],
    zero elsewhere (j >= 1). ``special``: the three full-circle currents
    sin(theta), cos(theta), (sin+cos)/sqrt(2) (j in {1, 2, 3}, arc
    ``FULL_CIRCLE``); their unit-conductivity potentials are the linear
    fields y, x, (x + y)/sqrt(2).
    """

    family: str
    indices: tuple[int, ...]
    arc: BoundaryArc = FULL_CIRCLE

    def __post_init__(self):
        # a tuple, so the checked indices cannot change afterwards
        object.__setattr__(self, "indices", tuple(self.indices))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r} (expected trig or special)")
        if not self.indices:
            raise ValueError("a measurement set needs at least one boundary current")
        if self.family == "trig":
            if min(self.indices) < 1:
                raise ValueError(f"family trig requires j >= 1, got {self.indices}")
        else:
            if not set(self.indices) <= {1, 2, 3}:
                raise ValueError(f"family special requires j in {{1, 2, 3}}, got {self.indices}")
            if self.arc != FULL_CIRCLE:
                raise ValueError(
                    f"family = special drives the whole boundary, so alpha = "
                    f"{self.arc.alpha!r} would be ignored; leave alpha at 2pi"
                )

    def __len__(self) -> int:
        return len(self.indices)

    def current(self, j: int, theta) -> np.ndarray:
        """Current density j of this set at polar angle(s) theta."""
        theta = np.asarray(theta, dtype=np.float64)
        if self.family == "trig":
            alpha = self.arc.alpha
            inside = theta <= alpha
            return np.where(inside, np.sin(2.0 * j * math.pi * theta / alpha), 0.0)
        if j == 1:
            return np.sin(theta)
        if j == 2:
            return np.cos(theta)
        return (np.sin(theta) + np.cos(theta)) / math.sqrt(2.0)

    @classmethod
    def trig(cls, alpha: float, indices=(1, 2, 3)) -> "MeasurementSet":
        return cls("trig", indices, BoundaryArc(alpha))

    @classmethod
    def special(cls, indices=(1, 2, 3)) -> "MeasurementSet":
        return cls("special", indices)


@dataclass
class ForwardState:
    """Potentials and power densities for one conductivity.

    Both are (M, V) stacks, one row per measurement. Also carries the
    pieces that the sensitivity computations reuse: the factorized
    zero-mean solver for K(sigma), the per-triangle conductivity, the
    per-triangle potential gradients, and the pairing transposes derived
    from them.
    """

    sigma: NodalField
    potentials: NodalField
    power_densities: NodalField
    solver: ZeroMeanSolver = field(repr=False)
    sigma_tri: np.ndarray = field(repr=False)
    grad_u: np.ndarray = field(repr=False)  # (M, T, 2)
    grad_sq: np.ndarray = field(repr=False)  # (M, T)

    @cached_property
    def pairing_t(self) -> list[sparse.csc_matrix]:
        """Per measurement, the (V, T) matrix with entry (i, T) = (grad u_j . grad phi_i)_T.

        Formed on first use, once per state: a state that only produces
        data (``simulate_data``) never holds these.
        """
        mesh = self.mesh
        return [
            mesh.corner_matrix_t(np.einsum("tcd,td->tc", mesh.hat_gradients, g))
            for g in self.grad_u
        ]

    @property
    def mesh(self) -> Mesh:
        return self.sigma.mesh

    @property
    def num_measurements(self) -> int:
        return self.grad_sq.shape[0]


def project_to_vertices(mesh: Mesh, tri_values: np.ndarray) -> np.ndarray:
    """Area-weighted average of per-triangle values over incident triangles.

    ``tri_values`` is (T,) or an (M, T) stack, projected row by row.
    """
    return rowwise(mesh.incidence_t, tri_values * mesh.triangle_areas) / mesh.vertex_patch_areas


def pullback_to_triangles(mesh: Mesh, vertex_dual: np.ndarray) -> np.ndarray:
    """Transpose of ``project_to_vertices`` (vertex functional -> triangles)."""
    return rowwise(mesh.incidence, vertex_dual / mesh.vertex_patch_areas) * mesh.triangle_areas


def gradient_on_triangles(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """(T, 2) piecewise-constant gradient of a nodal field, (M, T, 2) of a stack."""
    grad = rowwise(mesh.gradient_operator, values)
    return grad.reshape(values.shape[:-1] + (mesh.num_triangles, 2))


def measurement_loads(mesh: Mesh, ms: MeasurementSet) -> np.ndarray:
    """(V, M) boundary load vectors, one column per boundary current."""
    return np.column_stack(
        [
            assemble_boundary_load(mesh, lambda th, j=j: ms.current(j, th), ms.arc)
            for j in ms.indices
        ]
    )


def solve_measurement_set(
    sigma: NodalField,
    ms: MeasurementSet,
    loads: np.ndarray | None = None,
    solver: ZeroMeanSolver | None = None,
) -> ForwardState:
    """Solve all boundary-current potentials and their power densities.

    One factorization of K(sigma) is shared by every measurement; the
    loads are solved as a single multi-RHS back-substitution. Callers
    looping over conductivities can precompute ``loads`` once, and callers
    solving several sets at one conductivity can pass its ``solver``
    once built. The conductivity must be positive (``assemble_stiffness``).
    The power density of measurement j is sigma |grad u_j|^2 per
    triangle, projected to the vertices.
    """
    mesh = sigma.mesh
    if solver is None:
        solver = ZeroMeanSolver(assemble_stiffness(mesh, sigma), mesh)
    if loads is None:
        loads = measurement_loads(mesh, ms)
    potentials = solver.solve(loads).T
    sigma_tri = fem.triangle_average(mesh, sigma.values)
    grad_u = gradient_on_triangles(mesh, potentials)
    grad_sq = np.einsum("mtd,mtd->mt", grad_u, grad_u)
    return ForwardState(
        sigma=sigma,
        potentials=NodalField(mesh, potentials),
        power_densities=NodalField(mesh, project_to_vertices(mesh, sigma_tri * grad_sq)),
        solver=solver,
        sigma_tri=sigma_tri,
        grad_u=grad_u,
        grad_sq=grad_sq,
    )


def determinant_diagnostic(potentials: NodalField):
    """Per-triangle det(grad u1, grad u2) of the first two rows u1, u2 of an
    (M >= 2, V) stack of potentials, and its minimum absolute value.

    A minimum bounded away from zero indicates a stable two-measurement
    configuration.
    """
    if potentials.values.ndim != 2 or len(potentials.values) < 2:
        raise ValueError(
            f"expected a stack of at least two fields, got shape {potentials.values.shape}"
        )
    g1, g2 = gradient_on_triangles(potentials.mesh, potentials.values[:2])
    det = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
    return det, float(np.min(np.abs(det)))


def simulate_data(spec: PhantomSpec, ms: MeasurementSet, recon_mesh: Mesh, fine_mesh: Mesh):
    """Synthesize power-density data on ``fine_mesh`` and transfer it to ``recon_mesh``.

    Generating the data on a mesh with many more vertices than the
    reconstruction mesh and interpolating the stack at the reconstruction
    vertices avoids the inverse crime of inverting the same
    discretization that produced the data.

    The factorized solver of K(sigma) on ``fine_mesh`` is kept for as
    long as that mesh lives. A later call on the same mesh whose fine
    conductivity is equal, value for value, reuses it, so data for
    several arcs of one phantom cost one factorization and are
    bit-identical to data made on a fresh mesh. Any other call releases
    the kept solver before it factorizes, so a data mesh holds at most
    one factorization. The phantom must be positive everywhere, and an
    arc that holds no boundary edge of ``recon_mesh`` raises
    ``ValueError`` (``accessible_boundary_edges``) before the data mesh
    is touched.

    Returns
    -------
    data : NodalField
        (M, V) stack of power densities on the reconstruction mesh.
    fine_potentials : NodalField
        (M, V_fine) stack of the potentials on ``fine_mesh``. The rest of
        the fine forward solution is released before this returns. The
        stack refers to ``fine_mesh``, so the mesh's kept solver lives
        while a caller keeps it.
    """
    accessible_boundary_edges(recon_mesh, ms.arc)
    sigma_fine = phantom_field(spec, fine_mesh)
    # popped either way, so a solver that does not match is released before factorizing
    values, solver = _FINE_SOLVERS.pop(fine_mesh, (None, None))
    if not np.array_equal(values, sigma_fine.values):
        solver = None
    state = solve_measurement_set(sigma_fine, ms, solver=solver)
    _FINE_SOLVERS[fine_mesh] = (sigma_fine.values, state.solver)
    data = interpolate(fine_mesh, state.power_densities.values, recon_mesh.vertices)
    return NodalField(recon_mesh, data), state.potentials
