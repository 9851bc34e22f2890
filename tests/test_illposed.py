import math

import numpy as np
import pytest
from scipy import sparse

from aet2d import illposed
from aet2d.fem import NodalField, assemble_weighted_mass
from aet2d.forward import MeasurementSet, solve_measurement_set
from aet2d.illposed import (
    TABLE_ANGLES,
    TABLE_COMBOS,
    SvdReport,
    TransferMatrix,
    _averaging_matrix,
    _p1_test_integrals,
    _pairing_matrix,
    assemble_transfer_matrix,
    condition_number,
    condition_table,
    derivative_pairing,
    singular_values,
    svd_analyze,
)
from aet2d.phantom import default_phantom, phantom_field


@pytest.fixture(scope="module")
def desk_transfer(mesh500):
    truth = phantom_field(default_phantom(), mesh500)
    ms = MeasurementSet.trig(1.5 * math.pi)
    return assemble_transfer_matrix(truth, ms), truth, ms


def _report_from_matrix(mesh, matrix, **kw):
    wrapped = TransferMatrix(
        matrix=matrix,
        blocks=[matrix],
        mesh=mesh,
        ms=MeasurementSet.trig(2.0 * math.pi, (1,)),
        sigma=NodalField.constant(mesh, 1.0),
    )
    return svd_analyze(wrapped, **kw)


def _linearized_solutions(state, j):
    """(V, V) linearized potentials, one zero-mean solve per hat column."""
    mesh = state.mesh
    avg = _averaging_matrix(mesh)
    pair = _pairing_matrix(mesh, state.grad_u[j])
    rhs = (pair.T @ sparse.diags(mesh.triangle_areas) @ avg).toarray()
    return -state.solver.solve(rhs)


def _reference_blocks(truth, ms):
    """Transfer blocks with one V-column solve per measurement."""
    mesh = truth.mesh
    state = solve_measurement_set(truth, ms)
    sigma_ints = _p1_test_integrals(mesh, truth.values)
    blocks = []
    for j in range(state.num_measurements):
        pair = _pairing_matrix(mesh, state.grad_u[j])
        blk = assemble_weighted_mass(mesh, state.grad_sq[j]).toarray()
        blk += 2.0 * (sigma_ints @ (pair @ _linearized_solutions(state, j)))
        blocks.append(blk)
    return blocks


def test_single_inverse_matches_per_measurement_solves(desk_transfer):
    T, truth, ms = desk_transfer
    reference = _reference_blocks(truth, ms)
    for blk, ref in zip(T.blocks, reference, strict=True):
        assert np.max(np.abs(blk - ref)) <= 1e-12 * np.max(np.abs(ref))
    again = assemble_transfer_matrix(truth, ms)
    assert np.array_equal(again.matrix, T.matrix)
    assert all(np.array_equal(a, b) for a, b in zip(again.blocks, T.blocks, strict=True))


def test_matrix_agrees_with_operator(desk_transfer, rng):
    T, truth, ms = desk_transfer
    state = solve_measurement_set(truth, ms)
    for _ in range(3):
        h = NodalField(T.mesh, rng.standard_normal(T.mesh.num_vertices))
        direct = derivative_pairing(state, h)
        via_matrix = T.matrix @ h.values
        assert np.linalg.norm(via_matrix - direct) <= 1e-10 * np.linalg.norm(direct)


def test_matrix_shape_and_blocks(desk_transfer):
    T, _, _ = desk_transfer
    v = T.mesh.num_vertices
    assert T.matrix.shape == (3 * v, v)
    assert np.array_equal(T.matrix[:v], T.blocks[0])
    assert np.all(np.isfinite(T.matrix))


def test_constant_direction_column_sum(mesh500):
    # sigma = c, full circle, g = sin(theta): the derivative of the
    # constant direction is -1/c^2 uniformly, so T @ 1 is the pairing of
    # that constant with the data basis, i.e. -(1/c^2) * (M @ 1)
    from aet2d.fem import assemble_mass

    c = 2.0
    truth = NodalField.constant(mesh500, c)
    T = assemble_transfer_matrix(truth, MeasurementSet.trig(2.0 * math.pi, (1,)))
    ones = np.ones(mesh500.num_vertices)
    expected = -(1.0 / c**2) * (assemble_mass(mesh500) @ ones)
    got = T.matrix @ ones
    assert np.linalg.norm(got - expected) <= 0.02 * np.linalg.norm(expected)


def test_interior_column_norm_strictly_between(desk_transfer):
    T, _, _ = desk_transfer
    norms = np.linalg.norm(T.matrix, axis=0)
    center_vertex = int(np.argmin(np.linalg.norm(T.mesh.vertices, axis=1)))
    assert 0.0 < norms[center_vertex] < norms.max()


def test_action_is_linear(desk_transfer, rng):
    T, _, _ = desk_transfer
    h = rng.standard_normal(T.mesh.num_vertices)
    assert np.allclose(T.matrix @ (2.0 * h), 2.0 * (T.matrix @ h), rtol=1e-13, atol=1e-16)


def test_svd_identity(mesh200):
    report = _report_from_matrix(mesh200, np.eye(mesh200.num_vertices))
    assert report.condition_number == pytest.approx(1.0)
    assert np.allclose(report.singular_values, 1.0)


def test_svd_diagonal(mesh200):
    v = mesh200.num_vertices
    d = np.ones(v)
    d[0], d[1], d[2] = 3.0, 1.0, 0.5
    d[3:] = 1.0
    report = _report_from_matrix(mesh200, np.diag(d))
    assert report.singular_values[0] == pytest.approx(3.0)
    assert report.singular_values[-1] == pytest.approx(0.5)
    assert report.condition_number == pytest.approx(6.0)


def test_svd_report_order_invariant(desk_transfer):
    T, _, _ = desk_transfer
    report = svd_analyze(T)
    s = report.singular_values
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0)
    assert report.condition_number >= 1.0


def test_operator_norm_power_iteration(desk_transfer, rng):
    # independent oracle for the largest singular value
    T, _, _ = desk_transfer
    s_max = svd_analyze(T).singular_values[0]
    x = rng.standard_normal(T.mesh.num_vertices)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(500):
        y = T.matrix.T @ (T.matrix @ x)
        est = np.linalg.norm(y)
        x = y / est
    assert math.sqrt(est) == pytest.approx(s_max, rel=1e-6)


def test_svd_vectors_and_rank_warning(desk_transfer):
    T, _, _ = desk_transfer
    v = T.mesh.num_vertices
    with pytest.warns(UserWarning, match="exceeds rank"):
        report = svd_analyze(T, vector_indices=(1, v + 10))
    assert report.vector_indices == (1,)
    assert len(report.vectors) == 1
    assert report.vectors[0].values.shape == (v,)


def test_truncate_reduces_condition(desk_transfer):
    T, _, _ = desk_transfer
    full = svd_analyze(T).condition_number
    truncated = svd_analyze(T, truncate=100).condition_number
    assert truncated < full
    assert condition_number(T.matrix, truncate=100) == pytest.approx(truncated)
    with pytest.raises(ValueError):
        svd_analyze(T, truncate=0)


def test_condition_grid_orderings(mesh200):
    truth = phantom_field(default_phantom(), mesh200)
    angles = (2.0 * math.pi, math.pi)
    rows = condition_table(truth, angles=angles)
    by_count = {}
    for row in rows:
        by_count.setdefault(len(row["indices"]), []).append(row)
    for alpha in angles:
        worst_m2 = max(r[alpha] for r in by_count[2])
        best_m1 = min(r[alpha] for r in by_count[1])
        assert worst_m2 < best_m1
        for r in rows:
            assert r[alpha] >= 1.0
        # the third measurement does not reduce the conditioning much
        # further: it stays within a small factor of the best pair
        best_m2 = min(r[alpha] for r in by_count[2])
        assert by_count[3][0][alpha] <= 3.0 * best_m2
    m3 = by_count[3][0]
    assert m3[math.pi] > m3[2.0 * math.pi]


def test_singular_values_grow_with_measurements(mesh200):
    # appending measurement blocks can only raise each singular value
    # (Weyl monotonicity); this is the measurement-sweep ordering of the
    # singular-value curves
    truth = phantom_field(default_phantom(), mesh200)
    alpha = 1.5 * math.pi
    spectra = {}
    for m in (1, 2, 3):
        T = assemble_transfer_matrix(truth, MeasurementSet.trig(alpha, tuple(range(1, m + 1))))
        spectra[m] = svd_analyze(T).singular_values
    v = mesh200.num_vertices
    assert all(len(spectra[m]) == v for m in (1, 2, 3))
    assert np.all(spectra[2] >= spectra[1] - 1e-12 * spectra[1][0])
    assert np.all(spectra[3] >= spectra[2] - 1e-12 * spectra[2][0])


def test_svd_matches_eigendecomposition_tiny():
    # brute-force oracle: singular values squared are the eigenvalues of T^T T
    from aet2d.mesh import generate_disk_mesh

    mesh = generate_disk_mesh(40)
    assert mesh.num_vertices < 50
    truth = phantom_field(default_phantom(), mesh)
    T = assemble_transfer_matrix(truth, MeasurementSet.trig(math.pi, (1, 2)))
    s = svd_analyze(T).singular_values
    eigs = np.linalg.eigvalsh(T.matrix.T @ T.matrix)[::-1]
    eigs = np.clip(eigs, 0.0, None)
    assert np.allclose(s, np.sqrt(eigs), rtol=1e-8, atol=1e-12)


def test_svd_report_validation():
    with pytest.raises(ValueError):
        SvdReport(np.array([1.0, 2.0]), 2.0, (), [])  # increasing order
    with pytest.raises(ValueError):
        SvdReport(np.array([1.0, -0.5]), 2.0, (), [])


@pytest.fixture(scope="module")
def grid500(mesh500):
    """Phantom on 500 vertices and the SVD spectrum of every grid entry."""
    truth = phantom_field(default_phantom(), mesh500)
    spectra = {}
    for alpha in TABLE_ANGLES:
        T = assemble_transfer_matrix(truth, MeasurementSet.trig(alpha))
        for combo in TABLE_COMBOS:
            stacked = np.vstack([T.blocks[j - 1] for j in combo])
            spectra[combo, alpha] = singular_values(stacked)
    return truth, spectra


def _spy_condition_number(monkeypatch):
    calls = []

    def spy(matrix, truncate=None):
        # the SVD of an exactly singular stack divides by a zero singular value
        with np.errstate(divide="ignore"):
            value = condition_number(matrix, truncate)
        calls.append(value)
        return value

    monkeypatch.setattr(illposed, "condition_number", spy)
    return calls


@pytest.mark.parametrize("truncate", [None, 100])
def test_condition_table_matches_stacked_svd(grid500, monkeypatch, truncate):
    truth, spectra = grid500
    fallbacks = _spy_condition_number(monkeypatch)
    rows = condition_table(truth, truncate=truncate)
    assert [row["indices"] for row in rows] == list(TABLE_COMBOS)
    exact = []
    for row in rows:
        for alpha in TABLE_ANGLES:
            s = spectra[row["indices"], alpha][:truncate]
            oracle = float(s[0] / s[-1])
            assert row[alpha] == pytest.approx(oracle, rel=1e-6)
            if row[alpha] == oracle:
                exact.append(row[alpha])
    # every fallback entry is the SVD value itself, bit for bit
    assert all(value in exact for value in fallbacks)
    if truncate is None:
        # the grid reaches both sides of the Gram limit
        assert 0 < len(fallbacks) < len(TABLE_COMBOS) * len(TABLE_ANGLES)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_table_rank_deficient_block_falls_back(mesh200, monkeypatch):
    # A zero column gives the Gram an eigenvalue of exactly 0: the Gram path
    # must hand it to the SVD without dividing by it.
    assemble = illposed.assemble_transfer_matrix

    def zero_first_column(sigma, ms):
        T = assemble(sigma, ms)
        for blk in T.blocks:
            blk[:, 0] = 0.0
        return T

    monkeypatch.setattr(illposed, "assemble_transfer_matrix", zero_first_column)
    fallbacks = _spy_condition_number(monkeypatch)
    truth = phantom_field(default_phantom(), mesh200)
    alpha = 2.0 * math.pi
    rows = condition_table(truth, angles=(alpha,))
    assert len(fallbacks) == len(TABLE_COMBOS)
    T = zero_first_column(truth, MeasurementSet.trig(alpha))
    for row, value in zip(rows, fallbacks, strict=True):
        stacked = np.vstack([T.blocks[j - 1] for j in row["indices"]])
        with np.errstate(divide="ignore"):
            assert row[alpha] == value == condition_number(stacked)
