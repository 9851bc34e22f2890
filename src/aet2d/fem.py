"""P1 finite-element assembly and constrained Neumann solves.

Conventions used throughout the package:

* conductivity is positive and piecewise linear in the vertices, and
  enters element integrals through its per-triangle vertex average; any
  lower bound above zero is the reconstruction's (``inversion``);
* every global matrix (stiffness, weighted mass) is scattered from its
  (T, 3, 3) local blocks by ``Mesh.scatter`` over the mesh's cached
  ``assembly_plan``, so reassembly only recomputes the data array; the
  result is bit for bit the matrix ``coo_matrix(...).tocsr()`` builds;
* the mass matrix is the mesh's cached ``Mesh.mass``; it is the one
  data-space inner product, and ``norm_sq`` is its (stacked) norm;
* the hat-function integrals int phi_i are the mesh's cached
  ``Mesh.vertex_weights``: the mean constraint of the Neumann solve and
  the lumped mass of the Laplacian surrogate use the same array;
* both sparse solves, the reduced stiffness matrix of the Neumann solve
  and the domain Gram matrix, are symmetric positive definite and go
  through one factorization, ``_spd_factor`` (sparse LU with a symmetric
  fill-reducing ordering and no pivoting); each solver checks its own
  residuals;
* vertex -> triangle averaging and its transpose are products with the
  mesh's cached incidence matrices ``incidence`` and ``incidence_t``;
* pure-Neumann systems are closed by pinning one vertex: the reduced
  stiffness matrix is symmetric positive definite and factorized once;
  loads are projected onto the compatible ones and solutions shifted to
  zero mean, which reproduces the Lagrange-multiplier (bordered) closure;
* the second-order block of the weighted Sobolev inner product uses the
  lumped-mass discrete Laplacian surrogate, which is the standard
  spectrally equivalent stand-in for P1 elements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import MASS_BASE, BoundaryArc, Mesh, accessible_boundary_edges, rowwise

_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


class SolverError(RuntimeError):
    """A linear solve failed to reach its residual tolerance."""


class CompatibilityWarning(UserWarning):
    """Neumann load with a nonzero total flux; the solver projects it out."""


@dataclass
class NodalField:
    """Piecewise-linear scalar field given by one coefficient per vertex.

    ``values`` is one field (V,) or a stack of M fields, one per row of a
    C-contiguous (M, V) array, such as the M power densities of one
    measurement set. The stack is checked once, not field by field.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.mesh.num_vertices:
            raise ValueError(
                f"expected {self.mesh.num_vertices} coefficients per field, "
                f"got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "NodalField":
        return cls(mesh, np.full(mesh.num_vertices, float(value)))

    def check_single(self, what: str) -> None:
        """Raise ``ValueError`` unless this is one field rather than a stack."""
        if self.values.ndim != 1:
            raise ValueError(
                f"{what} must be a single field, got a stack of shape {self.values.shape}"
            )


@dataclass(frozen=True)
class InnerProductSpec:
    """Domain-space inner product (u, v) + beta1 (grad u, grad v) + beta2 (Lu, Lv).

    The zeroth-order weight is 1: scaling the whole Gram matrix by c
    divides the Landweber direction by c and multiplies its steepest-descent
    stepsize by c, so it moves no iterate. beta1 = beta2 = 0 is L2, and
    beta1 = beta2 = 1 is H2.
    """

    beta1: float = 1e-3
    beta2: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.beta1 < math.inf and 0.0 <= self.beta2 < math.inf):
            raise ValueError(
                f"inner-product weights must be finite and >= 0, got "
                f"beta1 = {self.beta1!r}, beta2 = {self.beta2!r}"
            )

    @classmethod
    def l2(cls) -> "InnerProductSpec":
        return cls(0.0, 0.0)

    @classmethod
    def h2(cls) -> "InnerProductSpec":
        return cls(1.0, 1.0)

    @classmethod
    def h2_beta(cls) -> "InnerProductSpec":
        return cls()


def triangle_average(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle average of a nodal field (e.g. the conductivity)."""
    return (mesh.incidence @ values) / 3.0


def triangle_average_t(mesh: Mesh, tri_values: np.ndarray) -> np.ndarray:
    """Transpose of ``triangle_average`` (scatter thirds to the vertices).

    ``tri_values`` is (T,) or an (M, T) stack, mapped row by row.
    """
    return rowwise(mesh.incidence_t, tri_values / 3.0)


def assemble_stiffness(mesh: Mesh, sigma: NodalField) -> sparse.csr_matrix:
    """Stiffness matrix K(sigma)_ij = sum_T sigma_T int_T grad(phi_i).grad(phi_j).

    The conductivity must be positive everywhere, so that K is symmetric
    positive semidefinite with the constants as kernel.
    """
    smin = float(np.min(sigma.values))
    if not smin > 0.0:
        raise ValueError(f"conductivity must be positive: min {smin}")
    sig_t = triangle_average(mesh, sigma.values)
    return mesh.scatter(sig_t[:, None, None] * mesh.local_stiffness)


def unit_stiffness(mesh: Mesh) -> sparse.csr_matrix:
    """Stiffness matrix for unit conductivity (no positivity check)."""
    return mesh.scatter(mesh.local_stiffness)


def assemble_weighted_mass(mesh: Mesh, tri_weights: np.ndarray) -> sparse.csr_matrix:
    """Mass matrix weighted by a piecewise-constant factor c_T."""
    local = (tri_weights * mesh.triangle_areas)[:, None, None] * MASS_BASE
    return mesh.scatter(local)


def assemble_boundary_load(
    mesh: Mesh,
    g: Callable[[np.ndarray], np.ndarray],
    arc: BoundaryArc,
) -> np.ndarray:
    """Load vector b_i = int_{Gamma(alpha)} g phi_i ds (2-point Gauss per edge).

    ``g`` is evaluated at the polar angle of each quadrature point. Emits
    ``CompatibilityWarning`` when the total flux fails to vanish relative
    to the load norm; the zero-mean solver projects such loads anyway. An
    arc that holds no boundary edge midpoint of the mesh raises ``ValueError``.
    """
    b = np.zeros(mesh.num_vertices)
    idx = accessible_boundary_edges(mesh, arc)
    if not idx.size:
        raise ValueError(
            f"the arc alpha = {arc.alpha!r} holds no boundary edge of the mesh: its first "
            f"edge midpoint lies at angle {float(mesh.boundary_edge_angles.min())!r}"
        )
    edges = mesh.boundary_edges[idx]
    p0 = mesh.vertices[edges[:, 0]]
    p1 = mesh.vertices[edges[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    for t in _GAUSS2:
        pts = p0 + t * (p1 - p0)
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        vals = np.asarray(g(theta)) * lengths / 2.0
        np.add.at(b, edges[:, 0], (1.0 - t) * vals)
        np.add.at(b, edges[:, 1], t * vals)
    total = abs(b.sum())
    norm = np.linalg.norm(b)
    if norm > 0.0 and total > 1e-8 * norm:
        warnings.warn(
            f"boundary load has nonzero total flux ({total:.3e} vs |b|={norm:.3e})",
            CompatibilityWarning,
            stacklevel=2,
        )
    return b


class ZeroMeanSolver:
    """Direct solver for K u = b subject to int u = 0.

    K is the stiffness matrix of a pure-Neumann problem: symmetric
    positive semidefinite with the constants as kernel. Vertex 0 is
    pinned, and the reduced matrix K[1:, 1:], which is symmetric positive
    definite, is factorized once by ``_spd_factor``. Each load b is made
    compatible by removing lam * mean_row with lam = sum(b) / sum(mean_row),
    where mean_row is ``mesh.vertex_weights``, the integrals of the hat
    functions; the pinned solution is then shifted to zero weighted mean.
    This gives the solution (u, lam) of the bordered system
    K u + lam * mean_row = b, mean_row . u = 0.

    The factorization is reused for many right-hand sides (pass a 2D
    array to solve several simultaneously). Every solve checks its
    residual and raises ``SolverError`` when it exceeds 1e-10 relative
    to the load.
    """

    def __init__(self, K: sparse.spmatrix, mesh: Mesh):
        self.K = sparse.csr_matrix(K)
        self.mean_row = mesh.vertex_weights
        self._total = float(self.mean_row.sum())
        self._n = self.K.shape[0]
        self._lu = _spd_factor(self.K[1:, 1:])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one RHS (V,) or a stack of them (V, k)."""
        return self.solve_with_multiplier(b)[0]

    def solve_with_multiplier(self, b: np.ndarray):
        """Return (u, lam) with K u + lam * mean_row = b and mean_row . u = 0."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        cols = b.reshape(self._n, -1)
        lam = cols.sum(axis=0) / self._total
        u = np.zeros_like(cols)
        u[1:] = self._lu.solve(cols[1:] - self.mean_row[1:, None] * lam)
        u -= (self.mean_row @ u) / self._total
        resid = self.K @ u + self.mean_row[:, None] * lam - cols
        _check_residual("Neumann", resid, np.linalg.norm(cols, axis=0), "|b|")
        if single:
            return u[:, 0], float(lam[0])
        return u, lam


def _spd_factor(a: sparse.csr_matrix):
    """Sparse LU factor (an object with ``solve``) of a symmetric positive definite ``a``.

    The one factorization of the package: a symmetric fill-reducing
    ordering (minimum degree on A^T + A) and no pivoting, which an SPD
    matrix does not need. ``a`` must be exactly symmetric in values and
    pattern, with sorted indices, so that its CSR arrays are its CSC
    arrays and are handed to SuperLU as they are, without a conversion.
    Every matrix assembled by ``Mesh.scatter`` on a conforming P1 mesh
    is: an off-diagonal entry (i, j) sums the terms of the at most two
    triangles that share the edge ij, and a two-term floating-point sum
    does not depend on its order. The Gram matrices are symmetrized
    explicitly.
    """
    return splu(
        sparse.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _check_residual(what: str, resid: np.ndarray, scale: np.ndarray, label: str) -> None:
    """Raise ``SolverError`` where a column's residual norm exceeds 1e-10 * scale."""
    rnorm = np.atleast_1d(np.linalg.norm(resid, axis=0))
    scale = np.atleast_1d(scale)
    bad = (scale > 0.0) & (rnorm > 1e-10 * scale)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SolverError(
            f"{what} solve residual {rnorm[j]:.3e} exceeds "
            f"1e-10 * {label} = {1e-10 * scale[j]:.3e} (column {j})"
        )


def gram_matrix(mesh: Mesh, spec: InnerProductSpec) -> sparse.csr_matrix:
    """Gram matrix of the domain inner product ``spec``.

    L2 (beta1 = beta2 = 0): ``mesh.mass`` itself. Otherwise
    M + beta1*K1 + beta2*G2 with K1 the unit-conductivity stiffness and
    G2 = L^T M L the discrete Laplacian surrogate (L = lumped-mass inverse
    times K1); symmetric positive definite.
    """
    m = mesh.mass
    if spec.beta1 == 0.0 and spec.beta2 == 0.0:
        return m
    k1 = unit_stiffness(mesh)
    lump_inv = sparse.diags(1.0 / mesh.vertex_weights)
    lap = lump_inv @ k1
    g2 = (lap.T @ m @ lap).tocsr()
    g = (m + spec.beta1 * k1 + spec.beta2 * g2).tocsr()
    return ((g + g.T) * 0.5).tocsr()


class GramSolver:
    """Factorized Gram matrix ``gram = gram_matrix(mesh, spec)`` of a domain product.

    Provides the dual solve G x = y, which maps a functional (for an L2
    functional w, y = M w with M = ``mesh.mass``) to a domain-space
    field, and the induced inner product. Build once per (mesh, spec) and
    reuse. The data-space product is not held here: it is ``mesh.mass``.
    G is factorized once by ``_spd_factor``, the factorization that
    ``ZeroMeanSolver`` uses for the reduced stiffness matrix.

    The solve checks its residual and raises ``SolverError`` when
    |G x - y| exceeds 1e-10 * (|G| |x| + |y|), with |G| the largest
    absolute row sum: a normwise backward error above 1e-10. The bound is
    relative to |G| |x| rather than to |y| alone because the unit-weight
    H2 Gram is ill-conditioned: its backward-stable solves of Landweber
    duals at 2000 vertices leave |G x - y| ~ 8e-10 |y| while |G| |x| is
    ~1e7 |y|. A factor of another matrix gives a backward error of order
    one.
    """

    def __init__(self, mesh: Mesh, spec: InnerProductSpec):
        self.gram = gram_matrix(mesh, spec)
        self._lu = _spd_factor(self.gram)
        self._gram_norm = float(abs(self.gram).sum(axis=1).max())

    def solve_dual(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        x = self._lu.solve(y)
        scale = self._gram_norm * np.linalg.norm(x, axis=0) + np.linalg.norm(y, axis=0)
        _check_residual("Gram", self.gram @ x - y, scale, "(|G| |x| + |y|)")
        return x

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ (self.gram @ b))


def norm_sq(mesh: Mesh, values: np.ndarray) -> float:
    """Squared mass norm of a (V,) field, or the stacked one of an (M, V) stack.

    The stacked norm sums the rows' squared norms in row order; a one-row
    stack gives the (V,) field's value bit for bit.
    """
    return sum(float(r @ (mesh.mass @ r)) for r in np.atleast_2d(values))
