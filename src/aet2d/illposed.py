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
measurements. Neither the factorization nor K+ depends on the arc, so
the condition grid builds both once for the whole grid: each angle adds
only its own few-column solve for the potentials.

A tall transfer matrix (two or more measurements) is reduced to the
(V, V) triangle of its Householder QR before the SVD that exports
singular vectors (Chan's R-SVD). LAPACK's gesdd makes the same
reduction internally, so every value and vector keeps its bits, but the
(M*V, V) left singular vectors that nothing reads are never formed.

The condition grid is the fixed table ``TABLE_COMBOS`` x ``TABLE_ANGLES``
of the first three trigonometric currents. Its condition numbers of
row-stacked blocks come from triangular factors, without forming a Gram
matrix (so without squaring the condition number). Each block is reduced
once to the R of its Householder QR; the R of a stack of blocks is the R
of the stacked triangles (TSQR), which LAPACK tpqrt computes from two
triangles in one fixed fold per angle (see ``condition_table``). The
extreme singular values of R are found by Lanczos on R^T R and on its
inverse through triangular solves. Householder QR is backward stable, so
the smallest singular value is accurate to about eps * sigma_max in
absolute terms, as it is from the SVD of the stacked blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import LinearOperator, eigsh

from .fem import NodalField, ZeroMeanSolver, assemble_stiffness, assemble_weighted_mass
from .forward import ForwardState, MeasurementSet, solve_measurement_set
from .mesh import MASS_BASE, Mesh

# Condition-number grid of the shipped configuration: measurement-index
# combinations (descending count) by accessible-arc angle.
TABLE_COMBOS = ((1, 2, 3), (1, 2), (2, 3), (1, 3), (1,), (2,), (3,))
TABLE_ANGLES = (2.0 * np.pi, 1.5 * np.pi, np.pi, 0.5 * np.pi)

# Block size of the blocked LAPACK tpqrt that stacks two triangles.
_TPQRT_BLOCK = 32


@dataclass
class TransferMatrix:
    """Dense discretization of the linearized forward operator.

    Rows are the stacked data basis (one block of vertex functions per
    measurement), columns the domain vertex basis.
    """

    matrix: np.ndarray  # (M*V, V); block j is matrix.reshape(M, V, V)[j]
    mesh: Mesh


@dataclass
class SvdReport:
    """Singular values (descending), condition number, selected vectors."""

    singular_values: np.ndarray
    condition_number: float
    vector_indices: tuple[int, ...]
    vectors: tuple[NodalField, ...]

    def __post_init__(self):
        s = self.singular_values
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be nonnegative and nonincreasing")


def assemble_transfer_matrix(
    sigma_truth: NodalField, ms: MeasurementSet
) -> TransferMatrix:
    """Assemble the transfer matrix of the linearization at sigma_truth.

    By linearity over the hat basis the matrix action T @ h is the
    stacked pairing of the derivative in direction h with the data basis,
    for arbitrary nodal directions h. Each block is written in place into
    its rows of the matrix.
    """
    mesh = sigma_truth.mesh
    state = solve_measurement_set(sigma_truth, ms)
    v = mesh.num_vertices
    matrix = np.empty((state.num_measurements * v, v))
    blocks = matrix.reshape(state.num_measurements, v, v)
    kinv = state.solver.solve(np.eye(v))
    for j in range(state.num_measurements):
        _transfer_block(state, kinv, j, blocks[j])
    return TransferMatrix(matrix=matrix, mesh=mesh)


def _transfer_block(state: ForwardState, kinv: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """Write measurement j's (V, V) transfer block into ``out`` and return it.

    ``kinv`` is K+ of the state's conductivity, ``state.solver`` applied
    to the identity.
    """
    mesh = state.mesh
    # (V, T) entry (v, t) = int_t sigma phi_v, exact for P1 sigma. CSR, not
    # the CSC that corner_matrix_t builds: a CSC left factor sums the
    # products below in another order, which moves their last bits.
    sigma_ints = mesh.corner_matrix_t(
        np.einsum("ab,tb->ta", MASS_BASE, state.sigma.values[mesh.triangles])
        * mesh.triangle_areas[:, None]
    ).tocsr()
    area_avg = sparse.diags(mesh.triangle_areas) @ (mesh.incidence / 3.0)
    # (T, V) per-triangle pairings grad(u_j) . grad(phi_i).
    pair = state.pairing_t[j].T
    # The hat-function linearizations are u' = -K+ pair^T diag(area) avg.
    assemble_weighted_mass(mesh, state.grad_sq[j]).toarray(out=out)
    out -= 2.0 * (sigma_ints @ pair @ kinv @ (pair.T @ area_avg))
    return out


def singular_values(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.svd(matrix, compute_uv=False)


def _check_truncate(truncate: int | None) -> None:
    if truncate is not None and truncate < 1:
        raise ValueError(f"truncate must keep at least one singular value, got {truncate}")


def condition_number(matrix: np.ndarray, truncate: int | None = None) -> float:
    """Ratio of largest to smallest retained singular value."""
    _check_truncate(truncate)
    s = singular_values(matrix)[:truncate]
    return float(s[0] / s[-1])


def svd_analyze(
    T: TransferMatrix,
    vector_indices: tuple[int, ...] = (),
    truncate: int | None = None,
) -> SvdReport:
    """Full SVD of the transfer matrix.

    ``vector_indices`` selects right singular vectors by 1-based rank
    (1 = largest singular value) for export as nodal fields; an index
    below 1 raises ``ValueError`` before any work. Indices past the
    spectrum are skipped with a warning. ``truncate`` drops trailing
    singular values before forming the condition number only.

    With ``vector_indices`` no left singular vectors are formed. A tall T
    (rows >= floor(11/6 * columns), where LAPACK's gesdd itself switches
    to a QR: two or more measurements) goes to the SVD as the (V, V)
    triangle of its QR (Chan's R-SVD), a square T as itself. The values
    and Vt are the thin SVD's bit for bit. At 1000 vertices and three
    measurements, on one BLAS thread, this took 0.78-0.83 s against
    1.10-1.12 s for the thin SVD, and the process peak fell from 204 to
    157 MB.

    With no ``vector_indices`` the spectrum comes from LAPACK's
    values-only path, which forms neither U nor Vt: about half the time
    and memory of the thin SVD, with values that differ from its values
    in the last bits.
    """
    _check_truncate(truncate)
    if min(vector_indices, default=1) < 1:
        raise ValueError(f"singular-vector indices are 1-based ranks, got {vector_indices}")
    if vector_indices:
        a = T.matrix
        rows, cols = a.shape
        if rows >= 11 * cols // 6:
            a = np.linalg.qr(a, mode="r")
        _, s, vt = np.linalg.svd(a, full_matrices=False)
    else:
        s = singular_values(T.matrix)
    kept = s[:truncate]
    vectors = []
    indices = []
    for k in vector_indices:
        if k > len(s):
            warnings.warn(f"singular-vector index {k} exceeds rank {len(s)}; skipped")
            continue
        indices.append(k)
        vectors.append(NodalField(T.mesh, vt[k - 1].copy()))
    return SvdReport(
        singular_values=s,
        condition_number=float(kept[0] / kept[-1]),
        vector_indices=tuple(indices),
        vectors=tuple(vectors),
    )


def _stacked_factor(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """R of the QR of two stacked upper triangles (one TSQR step)."""
    n = top.shape[0]
    r, _, _, info = lapack.dtpqrt(n, min(_TPQRT_BLOCK, n), top, bottom)
    if info != 0:
        raise ValueError(f"LAPACK dtpqrt failed with info={info}")
    return np.triu(r)


def _largest_eigenvalue(n: int, matvec) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos (ARPACK).

    The fixed start vector makes the result repeat bit for bit; ARPACK
    draws a random one otherwise.
    """
    v0 = np.random.default_rng(0).standard_normal(n)
    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    return float(eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def _factor_condition(r: np.ndarray, truncate: int | None) -> float:
    """Condition number of any matrix whose QR has the triangle r.

    cond = sqrt(lambda_max(R^T R) * lambda_max((R^T R)^-1)), with BLAS
    triangular products and solves. A truncated spectrum, or an exactly
    zero pivot (a rank-deficient stack), goes to ``condition_number`` on
    the square r instead.
    """
    if truncate is not None or not np.all(np.diagonal(r)):
        return condition_number(r, truncate)
    n = r.shape[0]
    # L = R^T in Fortran order, which BLAS reads without a copy.
    low = np.asfortranarray(r.T)
    lam_max = _largest_eigenvalue(
        n, lambda x: blas.dtrmv(low, blas.dtrmv(low, x, lower=1, trans=1), lower=1)
    )
    lam_inv = _largest_eigenvalue(
        n, lambda x: blas.dtrsv(low, blas.dtrsv(low, x, lower=1), lower=1, trans=1)
    )
    return math.sqrt(lam_max * lam_inv)


def condition_table(sigma_truth: NodalField, truncate: int | None = None):
    """Condition numbers over the fixed grid ``TABLE_COMBOS`` x ``TABLE_ANGLES``.

    Factorizes K(sigma) and forms K+ once for the whole grid. Each angle
    solves its own potentials with that factorization, then forms the
    three transfer blocks B_j one at a time in one buffer, reducing each
    to the R_j of its QR before the next is formed. The stacked
    combinations come from LAPACK tpqrt on two triangles: R_12 from
    (R_1, R_2), then R_123 from (R_12, R_3), R_23 from (R_2, R_3) and R_13
    from (R_1, R_3), so an angle makes 3 QRs and 4 tpqrt calls. Besides
    R_1, R_2, R_3 and R_12 at most one stacked triangle is alive, and
    every triangle is released before the next angle's solve.

    An entry's condition number is sqrt(lambda_max(R^T R) *
    lambda_max((R^T R)^-1)), each eigenvalue from Lanczos (ARPACK
    ``eigsh`` with a fixed start vector, so the grid repeats bit for bit;
    non-convergence raises). With ``truncate`` set, or for an R with an
    exactly zero diagonal entry, the entry is ``condition_number`` of the
    square R, whose singular values are those of the stacked blocks.

    Returns
    -------
    list of dict
        One row per combination of ``TABLE_COMBOS`` with key ``indices``
        and one condition number per angle (keyed by the angle value).
    """
    _check_truncate(truncate)
    mesh = sigma_truth.mesh
    v = mesh.num_vertices
    solver = ZeroMeanSolver(assemble_stiffness(mesh, sigma_truth), mesh)
    kinv = solver.solve(np.eye(v))
    rows = [{"indices": combo} for combo in TABLE_COMBOS]
    for alpha in TABLE_ANGLES:
        state = solve_measurement_set(sigma_truth, MeasurementSet.trig(alpha), solver=solver)
        # each block is reduced to its R before the next overwrites the buffer
        blk = np.empty((v, v))
        r1, r2, r3 = (
            linalg.qr(_transfer_block(state, kinv, j, blk), mode="r", check_finite=False)[0]
            for j in range(3)
        )
        del blk  # so that no buffer is alive during the folds
        r12 = _stacked_factor(r1, r2)
        conds = {
            (1, 2, 3): _factor_condition(_stacked_factor(r12, r3), truncate),
            (1, 2): _factor_condition(r12, truncate),
            (2, 3): _factor_condition(_stacked_factor(r2, r3), truncate),
            (1, 3): _factor_condition(_stacked_factor(r1, r3), truncate),
            (1,): _factor_condition(r1, truncate),
            (2,): _factor_condition(r2, truncate),
            (3,): _factor_condition(r3, truncate),
        }
        del r1, r2, r3, r12
        for row in rows:
            row[alpha] = conds[row["indices"]]
    return rows
