import math

import numpy as np
import pytest
from scipy import sparse

from aet2d.fem import (
    GramSolver,
    InnerProductSpec,
    NodalField,
    ZeroMeanSolver,
    norm_sq,
)
from aet2d.forward import MeasurementSet, measurement_loads, solve_measurement_set
from aet2d.inversion import ReconstructionConfig, add_noise, run_landweber
from aet2d.mesh import generate_disk_mesh
from aet2d.phantom import default_phantom, phantom_field
from aet2d.sensitivity import adjoint_apply, derivative_apply
from reference import linearized_potential

SPECS = {
    "L2": InnerProductSpec.l2(),
    "H2": InnerProductSpec.h2(),
    "H2_beta": InnerProductSpec.h2_beta(),
}


@pytest.fixture(scope="module")
def phantom_state(mesh500):
    sigma = phantom_field(default_phantom(), mesh500)
    return solve_measurement_set(sigma, MeasurementSet.trig(1.5 * math.pi))


def smooth_direction(mesh, scale=0.1):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    h = np.sin(2.0 * x + 1.0) * np.cos(3.0 * y) + 0.5 * x * y
    return NodalField(mesh, scale * h / np.abs(h).max())


def test_linearized_potential_zero(phantom_state):
    h = NodalField.constant(phantom_state.mesh, 0.0)
    up = linearized_potential(phantom_state, 0, h)
    assert np.all(up.values == 0.0)


def test_linearized_potential_constant_identity(mesh500):
    # sigma = s, h = c: K(h) = (c/s) K(sigma), so u' = -(c/s) u exactly
    s, c = 2.0, 0.6
    state = solve_measurement_set(
        NodalField.constant(mesh500, s), MeasurementSet.special((1,))
    )
    up = linearized_potential(state, 0, NodalField.constant(mesh500, c))
    expected = -(c / s) * state.potentials.values[0]
    assert np.max(np.abs(up.values - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_linearized_potential_linearity(phantom_state, rng):
    h = NodalField(phantom_state.mesh, rng.standard_normal(phantom_state.mesh.num_vertices))
    h2 = NodalField(phantom_state.mesh, 2.0 * h.values)
    u1 = linearized_potential(phantom_state, 0, h).values
    u2 = linearized_potential(phantom_state, 0, h2).values
    assert np.allclose(u2, 2.0 * u1, rtol=1e-12, atol=1e-15)


def test_derivative_zero(phantom_state):
    out = derivative_apply(phantom_state, NodalField.constant(phantom_state.mesh, 0.0))
    assert out.values.shape == (3, phantom_state.mesh.num_vertices)
    assert np.all(out.values == 0.0)


def test_derivative_constant_case(mesh2000):
    # around sigma = s the constant direction gives -c/s^2 (derivative of 1/s)
    s, c = 1.5, 0.3
    state = solve_measurement_set(
        NodalField.constant(mesh2000, s), MeasurementSet.special((1,))
    )
    df = derivative_apply(state, NodalField.constant(mesh2000, c)).values[0]
    target = -c / s**2
    assert np.max(np.abs(df - target)) <= 0.02 * abs(target)


def test_derivative_linearity(phantom_state, rng):
    h = rng.standard_normal(phantom_state.mesh.num_vertices)
    d1 = derivative_apply(phantom_state, NodalField(phantom_state.mesh, h)).values
    d2 = derivative_apply(phantom_state, NodalField(phantom_state.mesh, 2.0 * h)).values
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-14)


def test_taylor_remainder_second_order(mesh500):
    # finite-difference oracle: |F(sigma + eps h) - F(sigma) - eps F'h|
    # must shrink like eps^2 around sigma = 1.5
    mesh = mesh500
    ms = MeasurementSet.trig(2.0 * math.pi)
    sigma0 = NodalField.constant(mesh, 1.5)
    state = solve_measurement_set(sigma0, ms)
    h = smooth_direction(mesh)
    f0 = state.power_densities.values
    df = derivative_apply(state, h).values
    eps_values = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    remainders = []
    for eps in eps_values:
        pert = NodalField(mesh, sigma0.values + eps * h.values)
        f_eps = solve_measurement_set(pert, ms).power_densities.values
        r = f_eps - f0 - eps * df
        remainders.append(math.sqrt(norm_sq(mesh, r)))
    slope = np.polyfit(np.log(eps_values), np.log(remainders), 1)[0]
    assert abs(slope - 2.0) <= 0.2


@pytest.mark.parametrize("mode", list(SPECS))
@pytest.mark.parametrize("m_count", [1, 3])
def test_adjoint_identity(mesh500, rng, mode, m_count):
    sigma = phantom_field(default_phantom(), mesh500)
    state = solve_measurement_set(sigma, MeasurementSet.trig(math.pi, tuple(range(1, m_count + 1))))
    gram = GramSolver(mesh500, SPECS[mode])
    for _ in range(5):
        h = NodalField(mesh500, rng.standard_normal(mesh500.num_vertices))
        w = NodalField(mesh500, rng.standard_normal((m_count, mesh500.num_vertices)))
        fh = derivative_apply(state, h).values
        fstar = adjoint_apply(state, w, gram)
        lhs = sum(f @ (mesh500.mass @ wj) for f, wj in zip(fh, w.values))
        rhs = gram.inner(h.values, fstar.values)
        fh_norm = math.sqrt(norm_sq(mesh500, fh))
        w_norm = math.sqrt(norm_sq(mesh500, w.values))
        assert abs(lhs - rhs) <= 1e-8 * fh_norm * w_norm


def test_adjoint_apply_zero(phantom_state):
    mesh = phantom_state.mesh
    gram = GramSolver(mesh, InnerProductSpec.h2_beta())
    zero = NodalField(mesh, np.zeros((phantom_state.num_measurements, mesh.num_vertices)))
    out = adjoint_apply(phantom_state, zero, gram)
    assert np.all(out.values == 0.0)


def test_adjoint_apply_constant_case(mesh2000):
    # mirror of the derivative constant case through the adjoint identity
    s, c = 1.5, 0.4
    state = solve_measurement_set(
        NodalField.constant(mesh2000, s), MeasurementSet.special((1,))
    )
    gram = GramSolver(mesh2000, InnerProductSpec.l2())
    w = NodalField(mesh2000, np.full((1, mesh2000.num_vertices), c))
    out = adjoint_apply(state, w, gram).values
    target = -c / s**2
    area = mesh2000.triangle_areas.sum()
    rel = math.sqrt(norm_sq(mesh2000, out - target)) / (abs(target) * math.sqrt(area))
    assert rel <= 0.02


def test_adjoint_apply_linearity(phantom_state, rng):
    mesh = phantom_state.mesh
    gram = GramSolver(mesh, InnerProductSpec.l2())
    w = NodalField(mesh, rng.standard_normal((phantom_state.num_measurements, mesh.num_vertices)))
    w2 = NodalField(mesh, 2.0 * w.values)
    a1 = adjoint_apply(phantom_state, w, gram).values
    a2 = adjoint_apply(phantom_state, w2, gram).values
    assert np.allclose(a2, 2.0 * a1, rtol=1e-12, atol=1e-14)


def test_adjoint_apply_h2_gram_check_accepts_stable_solve(mesh2000):
    # The unit-weight H2 Gram is ill-conditioned: the dual of a Landweber
    # residual at 2000 vertices is solved to a backward error of ~1e-16,
    # yet |G x - y| is ~8e-10 |y|. The check must not reject that solve.
    ms = MeasurementSet.trig(math.pi)
    data = solve_measurement_set(phantom_field(default_phantom(), mesh2000), ms)
    state = solve_measurement_set(NodalField.constant(mesh2000, 1.5), ms)
    residual = NodalField(mesh2000, data.power_densities.values - state.power_densities.values)
    out = adjoint_apply(state, residual, GramSolver(mesh2000, InnerProductSpec.h2()))
    assert np.all(np.isfinite(out.values))


def test_adjoint_apply_wrong_count(phantom_state):
    mesh = phantom_state.mesh
    gram = GramSolver(mesh, InnerProductSpec.l2())
    for shape in ((2, mesh.num_vertices), (4, mesh.num_vertices), (mesh.num_vertices,)):
        with pytest.raises(ValueError, match="data stack of shape"):
            adjoint_apply(phantom_state, NodalField(mesh, np.zeros(shape)), gram)


def test_derivative_direction_must_be_single(phantom_state):
    mesh = phantom_state.mesh
    stack = NodalField(mesh, np.zeros((phantom_state.num_measurements, mesh.num_vertices)))
    with pytest.raises(ValueError, match="the direction h must be a single field"):
        derivative_apply(phantom_state, stack)


# Reference kernels: the gather/einsum/bincount forms that the mesh's
# sparse operators replace, run on the forward state they produce.


def reference_hat_gradients(mesh):
    """P1 hat gradients in the memory layout of the element-wise formula.

    einsum picks its summation kernel by memory layout, so the reference
    gradient must see this layout rather than the cached view.
    """
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    return np.stack([b, c], axis=-1) / (2.0 * mesh.triangle_areas)[:, None, None]


class ReferenceKernels:
    def __init__(self, mesh):
        self.mesh = mesh
        self.hat = reference_hat_gradients(mesh)
        self.corners = mesh.triangles.ravel()

    def average(self, values):
        return values[self.mesh.triangles].mean(axis=1)

    def average_t(self, tri_values):
        return np.bincount(
            self.corners, weights=np.repeat(tri_values / 3.0, 3),
            minlength=self.mesh.num_vertices,
        )

    def project(self, tri_values):
        w = np.bincount(
            self.corners, weights=np.repeat(tri_values * self.mesh.triangle_areas, 3),
            minlength=self.mesh.num_vertices,
        )
        return w / self.mesh.vertex_patch_areas

    def pullback(self, vertex_dual):
        scaled = vertex_dual / self.mesh.vertex_patch_areas
        return scaled[self.mesh.triangles].sum(axis=1) * self.mesh.triangle_areas

    def gradient(self, values):
        return np.einsum("tc,tcd->td", values[self.mesh.triangles], self.hat)

    def pairing(self, grad_u, values):
        return np.einsum("td,td->t", grad_u, self.gradient(values))

    def pairing_t(self, grad_u, tri_values):
        contrib = np.einsum("tcd,td->tc", self.hat, grad_u) * tri_values[:, None]
        return np.bincount(
            self.corners, weights=contrib.ravel(), minlength=self.mesh.num_vertices
        )

    def stiffness(self, sigma_values):
        t = self.mesh.triangles
        local = self.average(sigma_values)[:, None, None] * self.mesh.local_stiffness
        v = self.mesh.num_vertices
        return sparse.coo_matrix(
            (
                local.ravel(),
                (np.broadcast_to(t[:, :, None], local.shape).ravel(),
                 np.broadcast_to(t[:, None, :], local.shape).ravel()),
            ),
            shape=(v, v),
        ).tocsr()

    def forward(self, sigma, ms):
        solver = ZeroMeanSolver(self.stiffness(sigma.values), self.mesh)
        sols = solver.solve(measurement_loads(self.mesh, ms))
        sigma_tri = self.average(sigma.values)
        grads = [self.gradient(sols[:, j]) for j in range(sols.shape[1])]
        grads_sq = [np.einsum("td,td->t", g, g) for g in grads]
        densities = [self.project(sigma_tri * gsq) for gsq in grads_sq]
        return solver, sols, sigma_tri, grads, grads_sq, densities

    def derivative(self, ref, h_values):
        solver, _, sigma_tri, grads, grads_sq, _ = ref
        areas = self.mesh.triangle_areas
        h_tri = self.average(h_values)
        rhs = np.column_stack([-self.pairing_t(g, h_tri * areas) for g in grads])
        uprime = solver.solve(rhs)
        return [
            self.project(
                grads_sq[j] * h_tri + 2.0 * sigma_tri * self.pairing(grads[j], uprime[:, j])
            )
            for j in range(len(grads))
        ]

    def adjoint(self, ref, w_values, gram):
        solver, _, sigma_tri, grads, grads_sq, _ = ref
        areas = self.mesh.triangle_areas
        q = [self.pullback(self.mesh.mass @ w) for w in w_values]
        rhs = np.column_stack(
            [self.pairing_t(g, sigma_tri * qj) for g, qj in zip(grads, q)]
        )
        z = solver.solve(rhs)
        dual = np.zeros(self.mesh.num_vertices)
        for j, g in enumerate(grads):
            tri = grads_sq[j] * q[j] - 2.0 * areas * self.pairing(g, z[:, j])
            dual += self.average_t(tri)
        return gram.solve_dual(dual)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mesh_name", ["mesh500", "mesh2000"])
@pytest.mark.parametrize("alpha", [2.0 * math.pi, math.pi / 2])
def test_forward_and_sensitivity_match_reference_kernels_bitwise(
    request, mesh_name, alpha, rng
):
    mesh = request.getfixturevalue(mesh_name)
    kernels = ReferenceKernels(mesh)
    sigma = phantom_field(default_phantom(), mesh)
    ms = MeasurementSet.trig(alpha)
    state = solve_measurement_set(sigma, ms)
    ref = kernels.forward(sigma, ms)
    _, sols, sigma_tri, grads, grads_sq, densities = ref
    assert same_bytes(state.sigma_tri, sigma_tri)
    for j in range(len(ms)):
        assert same_bytes(state.potentials.values[j], sols[:, j])
        assert same_bytes(state.grad_u[j], grads[j])
        assert same_bytes(state.grad_sq[j], grads_sq[j])
        assert same_bytes(state.power_densities.values[j], densities[j])

    h = rng.standard_normal(mesh.num_vertices)
    derivative = derivative_apply(state, NodalField(mesh, h)).values
    for out, expected in zip(derivative, kernels.derivative(ref, h), strict=True):
        assert same_bytes(out, expected)

    w = rng.standard_normal((len(ms), mesh.num_vertices))
    gram = GramSolver(mesh, InnerProductSpec.h2_beta())
    out = adjoint_apply(state, NodalField(mesh, w), gram)
    assert same_bytes(out.values, kernels.adjoint(ref, w, gram))


def test_landweber_bitwise_on_fresh_and_warm_meshes():
    ms = MeasurementSet.trig(math.pi)
    data_mesh = generate_disk_mesh(500)
    truth = phantom_field(default_phantom(), data_mesh)
    data = solve_measurement_set(truth, ms).power_densities
    noisy, delta_abs = add_noise(data, 0.05, 11)
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=40)

    logs = []
    fresh = generate_disk_mesh(500)  # no cached plan or operators yet
    for mesh in (fresh, fresh, data_mesh):
        sigma, log = run_landweber(
            config, NodalField(mesh, noisy.values), delta_abs, ms, NodalField(mesh, truth.values)
        )
        logs.append((sigma.values, log))
    sigma0, log0 = logs[0]
    assert log0.num_iterations > 5
    for sigma, log in logs[1:]:
        assert same_bytes(sigma, sigma0)
        assert same_bytes(log.residuals, log0.residuals)
        assert same_bytes(log.omegas, log0.omegas)
        assert same_bytes(log.rel_errors, log0.rel_errors)
        assert log.stop_reason == log0.stop_reason
