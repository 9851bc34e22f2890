import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from aet2d import fem
from aet2d.fem import (
    CompatibilityWarning,
    GramSolver,
    InnerProductSpec,
    NodalField,
    SolverError,
    ZeroMeanSolver,
    assemble_boundary_load,
    assemble_stiffness,
    assemble_weighted_mass,
    gram_matrix,
    norm_sq,
    unit_stiffness,
)
from aet2d.mesh import MASS_BASE, BoundaryArc, Mesh, generate_disk_mesh
from aet2d.phantom import default_phantom, phantom_field
from reference import in_order_scatter

FULL = BoundaryArc(2.0 * math.pi)


@pytest.fixture(scope="module")
def reference_triangle():
    return Mesh(
        vertices=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        triangles=[(0, 1, 2)],
        boundary_edges=[(0, 1), (1, 2), (2, 0)],
        boundary_edge_angles=[0.0, 0.0, 0.0],
    )


def test_local_stiffness_reference_triangle(reference_triangle):
    # hand integration of P1 gradients on the unit right triangle
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    k = assemble_stiffness(reference_triangle, NodalField.constant(reference_triangle, 1.0))
    assert np.allclose(k.toarray(), expected, atol=1e-14)


def test_local_mass_reference_triangle(reference_triangle):
    # exact quadratic quadrature: (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
    expected = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    m = reference_triangle.mass
    assert np.allclose(m.toarray(), expected, atol=1e-15)


def test_stiffness_kernel_constants(mesh500):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    assert np.max(np.abs(k @ np.ones(mesh500.num_vertices))) <= 1e-12


def test_stiffness_scales_exactly(mesh500):
    k1 = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    k2 = assemble_stiffness(mesh500, NodalField.constant(mesh500, 2.0))
    assert (k2 - 2.0 * k1).nnz == 0


def test_stiffness_linear_in_sigma(mesh500, rng):
    s1 = NodalField(mesh500, rng.uniform(0.5, 1.5, mesh500.num_vertices))
    s2 = NodalField(mesh500, rng.uniform(0.5, 1.5, mesh500.num_vertices))
    combo = NodalField(mesh500, 1.5 * s1.values + 2.5 * s2.values)
    lhs = assemble_stiffness(mesh500, combo).toarray()
    rhs = 1.5 * assemble_stiffness(mesh500, s1).toarray() + 2.5 * assemble_stiffness(
        mesh500, s2
    ).toarray()
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def assert_same_csr(a, b):
    """Equal structure and equal data bytes (this also compares signs of zero)."""
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture(scope="module")
def mesh40000():
    return generate_disk_mesh(40000)


@pytest.mark.parametrize("mesh_name", ["mesh500", "mesh2000", "mesh40000"])
def test_assembly_matches_coo_scatter_bitwise(request, mesh_name, rng):
    # The pattern is coo_matrix(...).tocsr()'s byte for byte, and each entry
    # is the sum of its element contributions in element order.
    mesh = request.getfixturevalue(mesh_name)
    sigma = NodalField(mesh, rng.uniform(0.5, 2.0, mesh.num_vertices))
    sigma_tri = sigma.values[mesh.triangles].mean(axis=1)
    k = assemble_stiffness(mesh, sigma)
    assert_same_csr(k, in_order_scatter(mesh, sigma_tri[:, None, None] * mesh.local_stiffness))
    assert (k != k.T).nnz == 0
    areas = mesh.triangle_areas[:, None, None]
    assert_same_csr(mesh.mass, in_order_scatter(mesh, areas * MASS_BASE))
    weights = rng.uniform(0.0, 3.0, mesh.num_triangles)
    weights[::7] = 0.0
    assert_same_csr(
        assemble_weighted_mass(mesh, weights),
        in_order_scatter(mesh, (weights * mesh.triangle_areas)[:, None, None] * MASS_BASE),
    )


def test_assembly_plan_is_int32_and_read_only(mesh500):
    plan = mesh500.assembly_plan
    assert len(plan) == 3
    for arr in plan:
        assert arr.dtype == np.int32
        assert not arr.flags.writeable
    assert plan.slot.size == 9 * mesh500.num_triangles
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    assert np.shares_memory(k.indices, plan.indices)
    assert np.shares_memory(k.indptr, plan.indptr)
    assert k.has_canonical_format


def test_stiffness_rejects_inadmissible(mesh500):
    # any positive conductivity is admissible here: the floor is Landweber's
    low = np.ones(mesh500.num_vertices)
    low[7] = 0.05
    assemble_stiffness(mesh500, NodalField(mesh500, low))
    for value in (0.0, -0.5):
        bad = np.ones(mesh500.num_vertices)
        bad[7] = value
        with pytest.raises(ValueError, match="positive"):
            assemble_stiffness(mesh500, NodalField(mesh500, bad))


def test_mass_partition_of_unity(mesh500):
    m = mesh500.mass
    ones = np.ones(mesh500.num_vertices)
    assert abs(ones @ (m @ ones) - mesh500.triangle_areas.sum()) <= 1e-12
    assert np.max(np.abs((m - m.T).toarray())) <= 1e-12


def test_weighted_mass_matches_mass(mesh200):
    w = np.ones(mesh200.num_triangles)
    assert (assemble_weighted_mass(mesh200, w) - mesh200.mass).nnz == 0


def test_mesh_mass_is_cached_and_read_only(mesh500):
    m = mesh500.mass
    assert mesh500.mass is m
    assert not m.data.flags.writeable
    with pytest.raises(ValueError):
        m.data[0] = 1.0


def test_norm_sq_of_a_one_row_stack_is_the_field_norm(mesh500, rng):
    w = rng.standard_normal(mesh500.num_vertices)
    assert norm_sq(mesh500, w[None, :]).hex() == norm_sq(mesh500, w).hex()
    assert norm_sq(mesh500, w) == float(w @ (mesh500.mass @ w))
    stack = rng.standard_normal((3, mesh500.num_vertices))
    assert norm_sq(mesh500, stack) == sum(norm_sq(mesh500, row) for row in stack)


def test_boundary_load_zero(mesh500):
    b = assemble_boundary_load(mesh500, lambda th: np.zeros_like(th), FULL)
    assert np.all(b == 0.0)


def test_boundary_load_sin_full_circle(mesh2000):
    b = assemble_boundary_load(mesh2000, np.sin, FULL)
    assert abs(b.sum()) <= 1e-10
    # b . y approximates the boundary integral of sin^2 = pi
    assert abs(b @ mesh2000.vertices[:, 1] - math.pi) <= 0.01 * math.pi


def test_boundary_load_incompatible_warns(mesh500):
    with pytest.warns(CompatibilityWarning):
        assemble_boundary_load(
            mesh500, lambda th: np.ones_like(th), BoundaryArc(math.pi / 2)
        )


def test_an_arc_that_holds_no_boundary_edge_raises(mesh500):
    # its currents would all be zero: the 500-vertex mesh's first boundary
    # edge midpoint lies at 2pi/152 = 0.0413, beyond alpha = 0.01
    first = float(mesh500.boundary_edge_angles.min())
    message = rf"^the arc alpha = 0\.01 holds no boundary edge of the mesh: .* at angle {first!r}$"
    with pytest.raises(ValueError, match=message):
        assemble_boundary_load(mesh500, np.sin, BoundaryArc(0.01))


def test_limited_angle_load_vanishes_off_arc(mesh500):
    arc = BoundaryArc(math.pi / 2)
    b = assemble_boundary_load(mesh500, lambda th: np.sin(4.0 * th), arc)
    onarc = np.unique(
        mesh500.boundary_edges[mesh500.boundary_edge_angles <= arc.alpha]
    )
    mask = np.ones(mesh500.num_vertices, dtype=bool)
    mask[onarc] = False
    assert np.all(b[mask] == 0.0)


def test_neumann_solve_zero_load(mesh500):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    u = ZeroMeanSolver(k, mesh500).solve(np.zeros(mesh500.num_vertices))
    assert np.all(u == 0.0)


def test_neumann_solve_matches_harmonic(mesh2000):
    # sigma = 1, g = sin(theta): the solution is u = r sin(theta) = y
    k = assemble_stiffness(mesh2000, NodalField.constant(mesh2000, 1.0))
    b = assemble_boundary_load(mesh2000, np.sin, FULL)
    u = ZeroMeanSolver(k, mesh2000).solve(b)
    y = mesh2000.vertices[:, 1]
    assert math.sqrt(norm_sq(mesh2000, u - y) / norm_sq(mesh2000, y)) <= 0.02


def test_neumann_solve_zero_mean_and_residual(mesh500, rng):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.3))
    b = assemble_boundary_load(mesh500, np.sin, FULL)
    solver = ZeroMeanSolver(k, mesh500)
    u, lam = solver.solve_with_multiplier(b)
    area = mesh500.triangle_areas.sum()
    assert abs(solver.mean_row @ u) <= 1e-10 * np.linalg.norm(u) * area
    assert np.linalg.norm(k @ u + lam * solver.mean_row - b) <= 1e-10 * np.linalg.norm(b)


def test_neumann_solution_scales_with_sigma(mesh500):
    b = assemble_boundary_load(mesh500, np.sin, FULL)
    k1 = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    k3 = assemble_stiffness(mesh500, NodalField.constant(mesh500, 3.0))
    u1 = ZeroMeanSolver(k1, mesh500).solve(b)
    u3 = ZeroMeanSolver(k3, mesh500).solve(b)
    assert np.allclose(u3, u1 / 3.0, rtol=1e-12, atol=1e-14)


def _bordered_reference(k, mesh, b):
    """Lagrange-multiplier closure: LU of [[K, m], [m^T, 0]] with m_i = int phi_i."""
    m = np.asarray(mesh.mass.sum(axis=1)).ravel()
    lu = splu(sparse.bmat([[k, m[:, None]], [m[None, :], None]], format="csc"))
    cols = b.reshape(k.shape[0], -1)
    x = lu.solve(np.vstack([cols, np.zeros((1, cols.shape[1]))]))
    return x[:-1].reshape(b.shape), x[-1]


def _assert_matches_bordered(solver, k, mesh, b):
    u, lam = solver.solve_with_multiplier(b)
    u_ref, lam_ref = _bordered_reference(k, mesh, b)
    cols = b.reshape(k.shape[0], -1)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    # lam is measured against the flux scale sum|b| / |Omega|; it vanishes
    # for compatible loads, where a plain relative error is meaningless.
    lam_scale = np.abs(cols).sum(axis=0) / mesh.triangle_areas.sum()
    assert np.all(np.abs(np.atleast_1d(lam) - lam_ref) <= 1e-12 * lam_scale)
    return lam


def test_zero_mean_solver_matches_bordered_closure(mesh500):
    k = assemble_stiffness(
        mesh500, NodalField(mesh500, 1.0 + mesh500.vertices[:, 0] ** 2)
    )
    solver = ZeroMeanSolver(k, mesh500)
    one = assemble_boundary_load(mesh500, np.sin, FULL)
    _assert_matches_bordered(solver, k, mesh500, one)
    stack = np.column_stack(
        [assemble_boundary_load(mesh500, f, FULL) for f in (np.sin, np.cos, np.sin)]
    )
    stack[:, 2] *= -2.5
    _assert_matches_bordered(solver, k, mesh500, stack)
    with pytest.warns(CompatibilityWarning):
        flux = assemble_boundary_load(
            mesh500, lambda th: np.ones_like(th), BoundaryArc(math.pi / 2)
        )
    lam = _assert_matches_bordered(solver, k, mesh500, flux)
    assert lam == pytest.approx(flux.sum() / mesh500.triangle_areas.sum(), rel=1e-12)


def test_zero_mean_solver_refactorization_is_bitwise(mesh500):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.7))
    b = np.column_stack(
        [assemble_boundary_load(mesh500, f, FULL) for f in (np.sin, np.cos)]
    )
    u1, lam1 = ZeroMeanSolver(k, mesh500).solve_with_multiplier(b)
    u2, lam2 = ZeroMeanSolver(k.copy(), mesh500).solve_with_multiplier(b)
    assert np.array_equal(u1, u2)
    assert np.array_equal(lam1, lam2)


def test_zero_mean_solver_factors_csr_arrays_as_csc_bitwise(mesh2000):
    # The solver hands the CSR arrays of K[1:, 1:] to splu as CSC arrays.
    # K is exactly symmetric, so they are the arrays of a CSC conversion
    # byte for byte, and the solves are those of the converted matrix.
    x = mesh2000.vertices[:, 0]
    k = assemble_stiffness(mesh2000, NodalField(mesh2000, 1.0 + x**2))
    sub = k[1:, 1:]
    converted = sub.tocsc()
    for name in ("data", "indices", "indptr"):
        assert getattr(sub, name).tobytes() == getattr(converted, name).tobytes()
    b = np.column_stack(
        [assemble_boundary_load(mesh2000, f, FULL)[1:] for f in (np.sin, np.cos)]
    )
    lu = splu(
        converted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    solver = ZeroMeanSolver(k, mesh2000)
    assert solver._lu.solve(b).tobytes() == lu.solve(b).tobytes()


def _seam_matrix(case, mesh2000):
    """A matrix that ``_spd_factor`` factorizes: K(phantom) or a domain Gram."""
    if case.startswith("K"):
        mesh = mesh2000 if case == "K2000" else generate_disk_mesh(300)
        return assemble_stiffness(mesh, phantom_field(default_phantom(), mesh))
    return gram_matrix(mesh2000, getattr(InnerProductSpec, case)())


@pytest.mark.parametrize("case", ["K300", "K2000", "l2", "h2", "h2_beta"])
def test_seam_matrices_have_their_csc_arrays_as_csr_arrays(mesh2000, case):
    # The precondition of _spd_factor, which hands CSR arrays to splu as CSC.
    a = _seam_matrix(case, mesh2000)
    for m in (a, a[1:, 1:]) if case.startswith("K") else (a,):
        converted = m.tocsc()
        for name in ("data", "indices", "indptr"):
            assert getattr(m, name).tobytes() == getattr(converted, name).tobytes()


@pytest.mark.parametrize("spec", ["l2", "h2", "h2_beta"])
def test_splu_is_reached_only_through_the_seam(mesh500, monkeypatch, spec):
    calls = []
    seam = fem._spd_factor
    inside = []

    def spy_seam(a):
        inside.append(True)
        try:
            return seam(a)
        finally:
            inside.pop()

    def spy_splu(a, **options):
        calls.append((bool(inside), options))
        return splu(a, **options)

    monkeypatch.setattr(fem, "_spd_factor", spy_seam)
    monkeypatch.setattr(fem, "splu", spy_splu)
    symmetric = dict(
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
    )
    GramSolver(mesh500, getattr(InnerProductSpec, spec)())
    assert calls == [(True, symmetric)]
    ZeroMeanSolver(assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0)), mesh500)
    assert calls == [(True, symmetric)] * 2


def test_zero_mean_solver_mean_row_is_vertex_weights(mesh500):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    assert ZeroMeanSolver(k, mesh500).mean_row is mesh500.vertex_weights


def test_gram_lumps_with_vertex_weights(mesh2000):
    spec = InnerProductSpec.h2_beta()
    m = mesh2000.mass
    k1 = unit_stiffness(mesh2000)
    lap = sparse.diags(1.0 / mesh2000.vertex_weights) @ k1
    g = (m + spec.beta1 * k1 + spec.beta2 * (lap.T @ m @ lap).tocsr()).tocsr()
    g = ((g + g.T) * 0.5).tocsr()
    built = gram_matrix(mesh2000, spec)
    for name in ("data", "indices", "indptr"):
        assert getattr(built, name).tobytes() == getattr(g, name).tobytes()


def test_zero_mean_solver_rejects_matrix_without_constant_kernel(mesh500):
    k = assemble_stiffness(mesh500, NodalField.constant(mesh500, 1.0))
    shifted = (k + 1e-3 * sparse.identity(mesh500.num_vertices)).tocsr()
    b = assemble_boundary_load(mesh500, np.sin, FULL)
    solver = ZeroMeanSolver(shifted, mesh500)
    with pytest.raises(SolverError, match="residual"):
        solver.solve(b)


def test_gram_l2_is_mass(mesh500):
    g = gram_matrix(mesh500, InnerProductSpec.l2())
    assert g is mesh500.mass


def test_gram_constant_field(mesh500):
    # constants lie in the kernel of both derivative blocks
    g = gram_matrix(mesh500, InnerProductSpec(2e-3, 3e-6))
    c = 0.7 * np.ones(mesh500.num_vertices)
    assert abs(c @ (g @ c) - 0.49 * mesh500.triangle_areas.sum()) <= 1e-10


def test_gram_positive_definite_power_iteration(mesh500, rng):
    # power iteration on G^{-1} estimates 1/lambda_min(G)
    g = gram_matrix(mesh500, InnerProductSpec.h2_beta())
    lu = splu(g.tocsc())
    x = rng.standard_normal(mesh500.num_vertices)
    lam = 0.0
    for _ in range(200):
        x = lu.solve(x)
        lam = np.linalg.norm(x)
        x /= lam
    assert lam > 0.0 and np.isfinite(lam)
    assert 1.0 / lam > 0.0


@pytest.mark.parametrize(
    "bad", [(-1.0, 1e-6), (1e-3, -1e-6), (math.inf, 0.0), (0.0, math.nan)]
)
def test_inner_product_spec_validation(bad):
    with pytest.raises(ValueError, match="finite and >= 0"):
        InnerProductSpec(*bad)


def test_inner_product_presets_are_weight_pairs(mesh500):
    assert InnerProductSpec.l2() == InnerProductSpec(0.0, 0.0)
    assert InnerProductSpec.h2() == InnerProductSpec(1.0, 1.0)
    assert InnerProductSpec.h2_beta() == InnerProductSpec() == InnerProductSpec(1e-3, 1e-6)
    # one derivative weight of zero still builds the full Gram
    g = gram_matrix(mesh500, InnerProductSpec(1e-3, 0.0))
    assert g is not mesh500.mass and (g - mesh500.mass).count_nonzero() > 0


def test_embedding_adjoint_zero(mesh500):
    gram = GramSolver(mesh500, InnerProductSpec.h2())
    out = gram.solve_dual(mesh500.mass @ np.zeros(mesh500.num_vertices))
    assert np.max(np.abs(out)) <= 1e-14


def test_embedding_adjoint_constant(mesh500):
    gram = GramSolver(mesh500, InnerProductSpec.h2_beta())
    out = gram.solve_dual(mesh500.mass @ np.full(mesh500.num_vertices, 0.9))
    assert np.max(np.abs(out - 0.9)) <= 1e-8


def test_embedding_adjoint_pairing(mesh500, rng):
    # <x, v>_G = <w, v>_L2 for all nodal v
    spec = InnerProductSpec.h2_beta()
    g = gram_matrix(mesh500, spec)
    m = mesh500.mass
    w = rng.standard_normal(mesh500.num_vertices)
    gram = GramSolver(mesh500, spec)
    x = gram.solve_dual(m @ w)
    for _ in range(10):
        v = rng.standard_normal(mesh500.num_vertices)
        lhs = x @ (g @ v)
        rhs = w @ (m @ v)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_embedding_adjoint_l2_identity(mesh500, rng):
    # the L2 Gram is the mass matrix, so the embedding adjoint is the identity
    gram = GramSolver(mesh500, InnerProductSpec.l2())
    assert gram.gram is mesh500.mass
    w = rng.standard_normal(mesh500.num_vertices)
    out = gram.solve_dual(mesh500.mass @ w)
    assert np.max(np.abs(out - w)) <= 1e-10 * np.max(np.abs(w))


def test_gram_solver_rejects_factor_of_another_matrix(mesh500, rng):
    # the factor is the mass matrix's, the matrix checked against is H2's
    gram = GramSolver(mesh500, InnerProductSpec.l2())
    gram.gram = gram_matrix(mesh500, InnerProductSpec.h2())
    y = rng.standard_normal(mesh500.num_vertices)
    with pytest.raises(SolverError, match="Gram solve residual"):
        gram.solve_dual(y)


def test_gram_solver_checked_solves_pass(mesh500, rng):
    gram = GramSolver(mesh500, InnerProductSpec.h2_beta())
    y = rng.standard_normal((mesh500.num_vertices, 2))
    x = gram.solve_dual(y)
    assert x.shape == y.shape
    assert np.all(gram.solve_dual(np.zeros(mesh500.num_vertices)) == 0.0)


def test_embedding_self_adjoint(mesh500, rng):
    # w1^T M G^{-1} M w2 must be symmetric in (w1, w2)
    gram = GramSolver(mesh500, InnerProductSpec.h2_beta())
    w1 = rng.standard_normal(mesh500.num_vertices)
    w2 = rng.standard_normal(mesh500.num_vertices)
    m = mesh500.mass
    a = w1 @ (m @ gram.solve_dual(m @ w2))
    b = w2 @ (m @ gram.solve_dual(m @ w1))
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_nodal_field_validation(mesh200):
    with pytest.raises(ValueError):
        NodalField(mesh200, np.ones(mesh200.num_vertices - 1))
    bad = np.ones(mesh200.num_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        NodalField(mesh200, bad)
