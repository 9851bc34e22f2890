"""Transfer-matrix assembly, SVD, and condition-number grids.

The transfer matrix discretizes the linearized forward map at a
reference conductivity through the exact variational pairing of the
derivative fields with the nodal data basis: entry (row of block j, i)
is int psi_row [phi_i |grad u_j|^2 + 2 sigma grad u_j . grad u'_i], with
all P1 x P1 products integrated exactly. Forming the products this way
(rather than through the vertex-projected fields the reconstruction
uses) avoids an artificial high-frequency near-nullspace that would
inflate the condition numbers by more than an order of magnitude.

Assembly reuses one factorization of K(sigma) and solves once for the
dense zero-mean inverse K+ (the solution operator of the checked
zero-mean solve, applied to the identity). Every measurement's block of
linearized potentials is then a sparse-dense-sparse product with K+, so
an assembly costs one V-column back-substitution whatever the number of
measurements.

Condition numbers of row-stacked blocks come from the eigenvalues of
the summed block Grams sum_j B_j^T B_j. Forming a Gram squares the
condition number, so its relative error grows like eps * cond^2; above
GRAM_COND_LIMIT (or for a Gram that is not positive definite) the
stacked matrix goes through the dense SVD instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from .fem import NodalField, _MASS_BASE, assemble_weighted_mass
from .forward import ForwardState, MeasurementSet, gradient_on_triangles, solve_measurement_set
from .mesh import Mesh

# Condition-number grid of the shipped configuration: measurement-index
# combinations (descending count) by accessible-arc angle.
TABLE_COMBOS = ((1, 2, 3), (1, 2), (2, 3), (1, 3), (1,), (2,), (3,))
TABLE_ANGLES = (2.0 * np.pi, 1.5 * np.pi, np.pi, 0.5 * np.pi)

# Largest condition number taken from a Gram spectrum. The Gram result
# has relative error ~eps * cond^2, about 2e-6 at this limit; larger
# condition numbers are recomputed with the SVD.
GRAM_COND_LIMIT = 1e5


@dataclass
class TransferMatrix:
    """Dense discretization of the linearized forward operator.

    Rows are the stacked data basis (one block of vertex functions per
    measurement), columns the domain vertex basis.
    """

    matrix: np.ndarray  # (M*V, V)
    blocks: list[np.ndarray]  # per-measurement (V, V) views
    mesh: Mesh
    ms: MeasurementSet
    sigma: NodalField

    @property
    def num_measurements(self) -> int:
        return len(self.blocks)


@dataclass
class SvdReport:
    """Singular values (descending), condition number, selected vectors."""

    singular_values: np.ndarray
    condition_number: float
    vector_indices: tuple[int, ...]
    vectors: list[NodalField]

    def __post_init__(self):
        s = self.singular_values
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be nonnegative and nonincreasing")


def assemble_transfer_matrix(
    sigma_truth: NodalField, ms: MeasurementSet
) -> TransferMatrix:
    """Assemble the transfer matrix of the linearization at sigma_truth.

    By linearity over the hat basis the matrix action T @ h coincides
    with ``derivative_pairing`` for arbitrary nodal directions h.
    """
    mesh = sigma_truth.mesh
    state = solve_measurement_set(sigma_truth, ms)
    # (V, T) entry (v, t) = int_t sigma phi_v, exact for P1 sigma. CSR, not
    # the CSC that corner_matrix_t builds: a CSC left factor sums the
    # products below in another order, which moves their last bits.
    sigma_ints = mesh.corner_matrix_t(
        np.einsum("ab,tb->ta", _MASS_BASE, sigma_truth.values[mesh.triangles])
        * mesh.triangle_areas[:, None]
    ).tocsr()
    area_avg = sparse.diags(mesh.triangle_areas) @ (mesh.incidence / 3.0)
    kinv = state.solver.solve(np.eye(mesh.num_vertices))

    blocks = []
    for j in range(state.num_measurements):
        # (T, V) per-triangle pairings grad(u_j) . grad(phi_i).
        pair = state.pairing_t[j].T
        # The hat-function linearizations are u' = -K+ pair^T diag(area) avg.
        blk = assemble_weighted_mass(mesh, state.grad_sq[j]).toarray()
        blk -= 2.0 * (sigma_ints @ pair @ kinv @ (pair.T @ area_avg))
        blocks.append(blk)
    matrix = np.vstack(blocks)
    return TransferMatrix(matrix=matrix, blocks=blocks, mesh=mesh, ms=ms, sigma=sigma_truth)


def derivative_pairing(state: ForwardState, h: NodalField) -> np.ndarray:
    """Stacked pairings of the derivative in direction h with the data basis.

    Operator-path counterpart of the transfer matrix: per measurement,
    component row is int psi_row [h |grad u_j|^2 + 2 sigma grad u_j .
    grad u'_j(h)], evaluated triangle by triangle without assembling any
    matrix. Used to cross-check the assembled matrix.
    """
    from .sensitivity import linearized_potential

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
        mult = np.einsum("ab,tb->ta", _MASS_BASE, h_loc) * (
            state.grad_sq[j] * mesh.triangle_areas
        )[:, None]
        second = np.einsum("ab,tb->ta", _MASS_BASE, sig_loc) * (
            2.0 * dir_pair * mesh.triangle_areas
        )[:, None]
        row = np.bincount(
            t.ravel(), weights=(mult + second).ravel(), minlength=mesh.num_vertices
        )
        out.append(row)
    return np.concatenate(out)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.svd(matrix, compute_uv=False)


def _truncated(s: np.ndarray, truncate: int | None) -> np.ndarray:
    if truncate is None:
        return s
    if int(truncate) < 1:
        raise ValueError(f"truncate must keep at least one singular value, got {truncate}")
    return s[: int(truncate)]


def condition_number(matrix: np.ndarray, truncate: int | None = None) -> float:
    """Ratio of largest to smallest retained singular value."""
    s = _truncated(singular_values(matrix), truncate)
    return float(s[0] / s[-1])


def svd_analyze(
    T: TransferMatrix,
    vector_indices: tuple[int, ...] = (),
    truncate: int | None = None,
) -> SvdReport:
    """Full SVD of the transfer matrix.

    ``vector_indices`` selects right singular vectors by 1-based rank
    (1 = largest singular value) for export as nodal fields. Indices past
    the spectrum are skipped with a warning. ``truncate`` drops trailing
    singular values before forming the condition number only.
    """
    _, s, vt = np.linalg.svd(T.matrix, full_matrices=False)
    kept = _truncated(s, truncate)
    vectors = []
    indices = []
    for k in vector_indices:
        if not 1 <= k <= len(s):
            warnings.warn(f"singular-vector index {k} exceeds rank {len(s)}; skipped")
            continue
        indices.append(k)
        vectors.append(NodalField(T.mesh, vt[k - 1].copy()))
    return SvdReport(
        singular_values=s,
        condition_number=float(kept[0] / kept[-1]),
        vector_indices=tuple(indices),
        vectors=vectors,
    )


def _stacked_condition(
    blocks: list[np.ndarray], grams: list[np.ndarray], truncate: int | None
) -> float:
    """Condition number of np.vstack(blocks) from the spectrum of sum(grams).

    Falls back to the SVD of the stacked blocks when the smallest retained
    eigenvalue is not positive or the estimate exceeds GRAM_COND_LIMIT.
    """
    eigs = _truncated(linalg.eigvalsh(sum(grams))[::-1], truncate)
    if eigs[-1] > 0.0:
        cond = math.sqrt(eigs[0] / eigs[-1])
        if cond <= GRAM_COND_LIMIT:
            return cond
    return condition_number(np.vstack(blocks), truncate)


def condition_table(
    sigma_truth: NodalField,
    angles=TABLE_ANGLES,
    combos=TABLE_COMBOS,
    truncate: int | None = None,
):
    """Condition numbers over the (measurement combination, angle) grid.

    Assembles the full-measurement transfer matrix once per angle and
    forms each block's Gram B_j^T B_j once. Each combination's condition
    number is sqrt(lambda_max / lambda_min) of its summed Grams, with
    ``truncate`` applied to the descending eigenvalues as it is to
    singular values. Entries whose Gram estimate exceeds GRAM_COND_LIMIT,
    or whose retained lambda_min is not positive, are computed by
    ``condition_number`` on the stacked blocks instead. One angle's blocks
    are released before the next angle is assembled.

    Returns
    -------
    list of dict
        One row per combination with key ``indices`` and one condition
        number per angle (keyed by the angle value).
    """
    all_indices = tuple(sorted({j for combo in combos for j in combo}))
    rows = [{"indices": combo} for combo in combos]
    for alpha in angles:
        T = assemble_transfer_matrix(sigma_truth, MeasurementSet.trig(alpha, all_indices))
        blocks = dict(zip(all_indices, T.blocks))
        grams = {j: blk.T @ blk for j, blk in blocks.items()}
        for row in rows:
            combo = row["indices"]
            row[alpha] = _stacked_condition(
                [blocks[j] for j in combo], [grams[j] for j in combo], truncate
            )
        del T, blocks, grams
    return rows
