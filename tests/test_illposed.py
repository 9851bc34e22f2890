import math
import weakref

import numpy as np
import pytest
from scipy import linalg, sparse

from aet2d import illposed
from aet2d.fem import NodalField, ZeroMeanSolver, assemble_weighted_mass
from aet2d.forward import MeasurementSet, solve_measurement_set
from aet2d.mesh import MASS_BASE
from aet2d.illposed import (
    TABLE_ANGLES,
    TABLE_COMBOS,
    SvdReport,
    TransferMatrix,
    assemble_transfer_matrix,
    condition_number,
    condition_table,
    singular_values,
    svd_analyze,
)
from aet2d.phantom import default_phantom, phantom_field
from reference import derivative_pairing


@pytest.fixture(scope="module")
def desk_transfer(mesh500):
    truth = phantom_field(default_phantom(), mesh500)
    ms = MeasurementSet.trig(1.5 * math.pi)
    return assemble_transfer_matrix(truth, ms), truth, ms


def _blocks(T):
    """(M, V, V) view of the per-measurement blocks of a transfer matrix."""
    v = T.mesh.num_vertices
    return T.matrix.reshape(-1, v, v)


def _report_from_matrix(mesh, matrix, **kw):
    return svd_analyze(TransferMatrix(matrix=matrix, mesh=mesh), **kw)


# Reference operators of the transfer matrix, built by COO -> CSR scatter.


def _averaging_matrix(mesh):
    """(T, V) matrix averaging the three corner values of each triangle."""
    t = mesh.triangles
    rows = np.repeat(np.arange(mesh.num_triangles), 3)
    return sparse.coo_matrix(
        (np.full(t.size, 1.0 / 3.0), (rows, t.ravel())),
        shape=(mesh.num_triangles, mesh.num_vertices),
    ).tocsr()


def _pairing_matrix(mesh, grad_u):
    """(T, V) matrix of per-triangle pairings grad(u) . grad(phi_i)."""
    t = mesh.triangles
    rows = np.repeat(np.arange(mesh.num_triangles), 3)
    vals = np.einsum("tcd,td->tc", mesh.hat_gradients, grad_u)
    return sparse.coo_matrix(
        (vals.ravel(), (rows, t.ravel())),
        shape=(mesh.num_triangles, mesh.num_vertices),
    ).tocsr()


def _p1_test_integrals(mesh, vertex_values):
    """(V, T) matrix with entry (v, t) = int_t f phi_v for P1 f (exact)."""
    t = mesh.triangles
    w = np.einsum("ab,tb->ta", MASS_BASE, vertex_values[t]) * mesh.triangle_areas[:, None]
    cols = np.repeat(np.arange(mesh.num_triangles), 3)
    return sparse.coo_matrix(
        (w.ravel(), (t.ravel(), cols)),
        shape=(mesh.num_vertices, mesh.num_triangles),
    ).tocsr()


def _coo_transfer_blocks(truth, ms):
    """Transfer blocks from the COO-built operators and one dense K+."""
    mesh = truth.mesh
    state = solve_measurement_set(truth, ms)
    sigma_ints = _p1_test_integrals(mesh, truth.values)
    area_avg = sparse.diags(mesh.triangle_areas) @ _averaging_matrix(mesh)
    kinv = state.solver.solve(np.eye(mesh.num_vertices))
    blocks = []
    for j in range(state.num_measurements):
        pair = _pairing_matrix(mesh, state.grad_u[j])
        blk = assemble_weighted_mass(mesh, state.grad_sq[j]).toarray()
        blk -= 2.0 * (sigma_ints @ pair @ kinv @ (pair.T @ area_avg))
        blocks.append(blk)
    return blocks


@pytest.mark.parametrize("alpha", [2.0 * math.pi, 0.5 * math.pi])
def test_transfer_matrix_matches_coo_operators_bitwise(mesh500, alpha):
    truth = phantom_field(default_phantom(), mesh500)
    ms = MeasurementSet.trig(alpha)
    T = assemble_transfer_matrix(truth, ms)
    reference = np.vstack(_coo_transfer_blocks(truth, ms))
    assert T.matrix.tobytes() == reference.tobytes()


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
    for blk, ref in zip(_blocks(T), reference, strict=True):
        assert np.max(np.abs(blk - ref)) <= 1e-12 * np.max(np.abs(ref))
    again = assemble_transfer_matrix(truth, ms)
    assert np.array_equal(again.matrix, T.matrix)


def test_matrix_agrees_with_operator(desk_transfer, rng):
    T, truth, ms = desk_transfer
    state = solve_measurement_set(truth, ms)
    for _ in range(3):
        h = NodalField(T.mesh, rng.standard_normal(T.mesh.num_vertices))
        direct = derivative_pairing(state, h)
        via_matrix = T.matrix @ h.values
        assert np.linalg.norm(via_matrix - direct) <= 1e-10 * np.linalg.norm(direct)


def test_matrix_shape(desk_transfer):
    T, _, _ = desk_transfer
    v = T.mesh.num_vertices
    assert T.matrix.shape == (3 * v, v)
    assert np.all(np.isfinite(T.matrix))


def test_constant_direction_column_sum(mesh500):
    # sigma = c, full circle, g = sin(theta): the derivative of the
    # constant direction is -1/c^2 uniformly, so T @ 1 is the pairing of
    # that constant with the data basis, i.e. -(1/c^2) * (M @ 1)
    c = 2.0
    truth = NodalField.constant(mesh500, c)
    T = assemble_transfer_matrix(truth, MeasurementSet.trig(2.0 * math.pi, (1,)))
    ones = np.ones(mesh500.num_vertices)
    expected = -(1.0 / c**2) * (mesh500.mass @ ones)
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


def test_svd_vectors_and_rank_warning(desk_transfer, monkeypatch):
    T, _, _ = desk_transfer
    v = T.mesh.num_vertices
    with pytest.warns(UserWarning, match="exceeds rank"):
        report = svd_analyze(T, vector_indices=(1, v + 10))
    assert report.vector_indices == (1,)
    assert len(report.vectors) == 1
    assert report.vectors[0].values.shape == (v,)

    # an index below 1 is no rank: it fails before any SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the vector indices were checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for indices in ((0,), (1, -1)):
        with pytest.raises(ValueError, match="singular-vector indices are 1-based ranks"):
            svd_analyze(T, vector_indices=indices)


def _recorded_svd_shapes(monkeypatch):
    """Record the shape of every matrix that ``np.linalg.svd`` receives."""
    svd = np.linalg.svd
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


@pytest.mark.parametrize("count", [1, 2, 3])
def test_svd_of_a_tall_matrix_goes_through_its_triangle_bitwise(mesh200, monkeypatch, count):
    # Chan's R-SVD: a tall T reaches the SVD as its (V, V) QR triangle, a
    # square T as itself, and both give the thin SVD's values and right
    # vectors bit for bit
    truth = phantom_field(default_phantom(), mesh200)
    T = assemble_transfer_matrix(truth, MeasurementSet.trig(math.pi, tuple(range(1, count + 1))))
    _, s, vt = np.linalg.svd(T.matrix, full_matrices=False)
    shapes = _recorded_svd_shapes(monkeypatch)
    report = svd_analyze(T, vector_indices=(1, 5, 100))
    v = mesh200.num_vertices
    assert shapes == [(v, v)]
    assert np.array_equal(report.singular_values, s)
    assert report.vector_indices == (1, 5, 100)
    for k, vec in zip(report.vector_indices, report.vectors, strict=True):
        assert np.array_equal(vec.values, vt[k - 1])
    assert np.array_equal(report.condition_number, s[0] / s[-1])


def test_values_only_spectrum_matches_the_thin_svd(desk_transfer, monkeypatch):
    T, _, _ = desk_transfer
    with_vectors = svd_analyze(T, vector_indices=(1,))
    svd = np.linalg.svd
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    values_only = svd_analyze(T)
    assert calls == [False]  # neither U nor Vt is formed
    assert values_only.vector_indices == () and values_only.vectors == ()
    s, ref = values_only.singular_values, with_vectors.singular_values
    assert s.shape == ref.shape
    assert np.max(np.abs(s - ref) / ref) <= 1e-13
    assert values_only.condition_number == pytest.approx(with_vectors.condition_number, rel=1e-13)


def test_truncate_reduces_condition(desk_transfer):
    T, _, _ = desk_transfer
    full = svd_analyze(T).condition_number
    truncated = svd_analyze(T, truncate=100).condition_number
    assert truncated < full
    assert condition_number(T.matrix, truncate=100) == pytest.approx(truncated)
    with pytest.raises(ValueError):
        svd_analyze(T, truncate=0)


def test_truncate_is_checked_before_any_work(desk_transfer, monkeypatch):
    T, truth, _ = desk_transfer

    def heavy(*args, **kwargs):
        raise AssertionError("heavy work ran before truncate was checked")

    monkeypatch.setattr(np.linalg, "svd", heavy)
    monkeypatch.setattr(illposed, "ZeroMeanSolver", heavy)
    monkeypatch.setattr(illposed, "_transfer_block", heavy)
    for call in (
        lambda: svd_analyze(T, truncate=0),
        lambda: condition_table(truth, truncate=0),
        lambda: condition_number(T.matrix, truncate=0),
    ):
        with pytest.raises(ValueError, match="truncate must keep at least one singular value"):
            call()


def test_condition_grid_orderings(mesh200):
    truth = phantom_field(default_phantom(), mesh200)
    rows = condition_table(truth)
    by_count = {}
    for row in rows:
        by_count.setdefault(len(row["indices"]), []).append(row)
    for alpha in TABLE_ANGLES:
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
            stacked = np.vstack([_blocks(T)[j - 1] for j in combo])
            spectra[combo, alpha] = singular_values(stacked)
    return truth, spectra


def _spy_condition_number(monkeypatch):
    """Record (shape, is upper triangular, value) of every fallback call."""
    calls = []

    def spy(matrix, truncate=None):
        # the SVD of an exactly singular matrix divides by a zero singular value
        with np.errstate(divide="ignore"):
            value = condition_number(matrix, truncate)
        calls.append((matrix.shape, not np.any(np.tril(matrix, -1)), value))
        return value

    monkeypatch.setattr(illposed, "condition_number", spy)
    return calls


@pytest.mark.parametrize("truncate", [None, 100])
def test_condition_table_matches_stacked_svd(grid500, monkeypatch, truncate):
    truth, spectra = grid500
    fallbacks = _spy_condition_number(monkeypatch)
    rows = condition_table(truth, truncate=truncate)
    assert [row["indices"] for row in rows] == list(TABLE_COMBOS)
    for row in rows:
        for alpha in TABLE_ANGLES:
            s = spectra[row["indices"], alpha][:truncate]
            oracle = float(s[0] / s[-1])
            assert row[alpha] == pytest.approx(oracle, rel=1e-6)
    if truncate is None:
        # full-rank triangles take the Lanczos path: no SVD at all
        assert fallbacks == []
    else:
        # a truncated spectrum needs every singular value: each entry is
        # the SVD of its square triangle, not of the stacked blocks
        v = truth.mesh.num_vertices
        assert all(shape == (v, v) and upper for shape, upper, _ in fallbacks)
        values = [value for _, _, value in fallbacks]
        assert values == [row[alpha] for alpha in TABLE_ANGLES for row in rows]


def test_condition_table_within_1e10_of_stacked_svd(grid500):
    truth, spectra = grid500
    rows = condition_table(truth)
    for row in rows:
        for alpha in TABLE_ANGLES:
            s = spectra[row["indices"], alpha]
            assert row[alpha] == pytest.approx(float(s[0] / s[-1]), rel=1e-10)


def test_condition_table_repeats_bitwise(mesh500):
    truth = phantom_field(default_phantom(), mesh500)
    # the entries are finite and >= 1, so equal floats are equal bits
    assert condition_table(truth) == condition_table(truth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_table_rank_deficient_block_falls_back(mesh200, monkeypatch):
    # A zero column gives every triangle an exactly zero pivot: the grid
    # must hand it to the SVD of the triangle without dividing by it.
    transfer_block = illposed._transfer_block

    def zero_first_column(*args):
        blk = transfer_block(*args)
        blk[:, 0] = 0.0
        return blk

    # condition_table and assemble_transfer_matrix both form their blocks here
    monkeypatch.setattr(illposed, "_transfer_block", zero_first_column)
    fallbacks = _spy_condition_number(monkeypatch)
    truth = phantom_field(default_phantom(), mesh200)
    rows = condition_table(truth)
    assert len(fallbacks) == len(TABLE_COMBOS) * len(TABLE_ANGLES) == 28
    v = mesh200.num_vertices
    calls = iter(fallbacks)  # angle by angle, each in the order of the rows
    for alpha in TABLE_ANGLES:
        T = assemble_transfer_matrix(truth, MeasurementSet.trig(alpha))
        for row, (shape, upper, value) in zip(rows, calls):
            assert shape == (v, v) and upper
            stacked = np.vstack([_blocks(T)[j - 1] for j in row["indices"]])
            with np.errstate(divide="ignore"):
                assert row[alpha] == value == condition_number(stacked) == math.inf


def _reference_grid(truth):
    """The grid from a per-angle transfer matrix, folded explicitly."""
    cond = illposed._factor_condition
    grid = {}
    for alpha in TABLE_ANGLES:
        T = assemble_transfer_matrix(truth, MeasurementSet.trig(alpha))
        r1, r2, r3 = (linalg.qr(blk, mode="r", check_finite=False)[0] for blk in _blocks(T))
        r12 = illposed._stacked_factor(r1, r2)
        stacks = {
            (1, 2, 3): illposed._stacked_factor(r12, r3),
            (1, 2): r12,
            (2, 3): illposed._stacked_factor(r2, r3),
            (1, 3): illposed._stacked_factor(r1, r3),
            (1,): r1,
            (2,): r2,
            (3,): r3,
        }
        for combo, r in stacks.items():
            grid[combo, alpha] = cond(r, None)
    return grid


def test_condition_table_factorizes_once_per_grid(mesh200, monkeypatch):
    # one factorization of K(sigma) and one K+ serve every angle, and the
    # grid equals, bit for bit, a per-angle assembly of the transfer matrix
    truth = phantom_field(default_phantom(), mesh200)
    reference = _reference_grid(truth)
    init = ZeroMeanSolver.__init__
    builds = []

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ZeroMeanSolver, "__init__", counted)
    rows = condition_table(truth)
    assert len(builds) == 1
    assert [row["indices"] for row in rows] == list(TABLE_COMBOS)
    for row in rows:
        for alpha in TABLE_ANGLES:
            assert row[alpha] == reference[row["indices"], alpha]


def test_condition_table_releases_each_angles_triangles(mesh200, monkeypatch):
    # each angle folds 3 QRs into its 7 entries with 4 tpqrt calls, and no
    # triangle from linalg.qr or _stacked_factor outlives its angle
    triangles = []
    counts = {"qr": 0, "tpqrt": 0}
    at_solve = []  # (triangles alive, counts since the previous solve)
    qr, dtpqrt = illposed.linalg.qr, illposed.lapack.dtpqrt
    stacked_factor, solve = illposed._stacked_factor, illposed.solve_measurement_set

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        result = qr(*args, **kwargs)
        triangles.append(weakref.ref(result[0]))
        return result

    def counted_tpqrt(*args, **kwargs):
        counts["tpqrt"] += 1
        return dtpqrt(*args, **kwargs)

    def tracked_stacked_factor(*args):
        r = stacked_factor(*args)
        triangles.append(weakref.ref(r))
        return r

    def checked_solve(*args, **kwargs):
        at_solve.append((sum(ref() is not None for ref in triangles), dict(counts)))
        counts.update(qr=0, tpqrt=0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(illposed.linalg, "qr", counted_qr)
    monkeypatch.setattr(illposed.lapack, "dtpqrt", counted_tpqrt)
    monkeypatch.setattr(illposed, "_stacked_factor", tracked_stacked_factor)
    monkeypatch.setattr(illposed, "solve_measurement_set", checked_solve)
    condition_table(phantom_field(default_phantom(), mesh200))
    per_angle = {"qr": 3, "tpqrt": 4}
    assert at_solve == [(0, {"qr": 0, "tpqrt": 0})] + [(0, per_angle)] * (len(TABLE_ANGLES) - 1)
    assert counts == per_angle and len(triangles) == 7 * len(TABLE_ANGLES)


def test_condition_table_releases_each_angles_block_buffer(mesh200, monkeypatch):
    # the buffer that holds an angle's blocks dies after their three QRs,
    # so none is alive at any tpqrt fold
    buffers = []
    alive_at_fold = []
    transfer_block, stacked_factor = illposed._transfer_block, illposed._stacked_factor

    def tracked_transfer_block(state, kinv, j, out):
        buffers.append(weakref.ref(out))
        return transfer_block(state, kinv, j, out)

    def checked_stacked_factor(*args):
        alive_at_fold.append(sum(ref() is not None for ref in buffers))
        return stacked_factor(*args)

    monkeypatch.setattr(illposed, "_transfer_block", tracked_transfer_block)
    monkeypatch.setattr(illposed, "_stacked_factor", checked_stacked_factor)
    condition_table(phantom_field(default_phantom(), mesh200))
    assert len(buffers) == 3 * len(TABLE_ANGLES)
    assert alive_at_fold == [0] * (4 * len(TABLE_ANGLES))
