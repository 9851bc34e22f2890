import math
import re

import numpy as np
import pytest

from aet2d import fem, inversion
from aet2d.fem import GramSolver, InnerProductSpec, NodalField, norm_sq
from aet2d.forward import MeasurementSet, simulate_data, solve_measurement_set
from aet2d.inversion import (
    IterationLog,
    ReconstructionConfig,
    add_noise,
    run_landweber,
)
from aet2d.mesh import generate_disk_mesh
from aet2d.phantom import default_phantom, phantom_field


@pytest.fixture(scope="module")
def desk_problem(mesh500, fine3000):
    """Noise-free phantom data at desk scale."""
    spec = default_phantom()
    ms = MeasurementSet.trig(2.0 * math.pi)
    data, _ = simulate_data(spec, ms, mesh500, fine_mesh=fine3000)
    truth = phantom_field(spec, mesh500)
    return ms, data, truth


def _mass_norm(mesh, stack):
    """Stacked mass-weighted data norm of an (M, V) array."""
    return math.sqrt(norm_sq(mesh, stack))


def _one_step(data, ms, spec, safeguard=False):
    """One Landweber step from sigma = 1.5; returns (sigma_1, log)."""
    config = ReconstructionConfig(max_iter=1, spec=spec, safeguard=safeguard)
    return run_landweber(config, data, 0.0, ms)


def test_add_noise_zero_level(mesh200, rng):
    data = NodalField(mesh200, rng.standard_normal((2, mesh200.num_vertices)))
    noisy, delta = add_noise(data, 0.0, seed=5)
    assert delta == 0.0
    assert np.array_equal(noisy.values, data.values)
    assert not np.shares_memory(noisy.values, data.values)


@pytest.mark.parametrize("delta_rel", [-0.1, float("nan"), float("inf")])
def test_add_noise_rejects_a_negative_or_non_finite_level(mesh200, monkeypatch, delta_rel):
    # NaN and inf would scale the noise and fail later in NodalField, whose
    # "non-finite values" names the wrong cause
    def heavy(*args):
        raise AssertionError("noise was scaled before delta_rel was checked")

    monkeypatch.setattr(inversion, "norm_sq", heavy)
    data = NodalField(mesh200, np.ones((2, mesh200.num_vertices)))
    message = f"delta_rel must be finite and >= 0, got {delta_rel!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        add_noise(data, delta_rel, seed=5)


def test_add_noise_exact_relative_level(desk_problem):
    _, data, _ = desk_problem
    mesh = data.mesh
    noisy, delta = add_noise(data, 0.05, seed=11)
    diff = noisy.values - data.values
    data_norm = _mass_norm(mesh, data.values)
    assert _mass_norm(mesh, diff) / data_norm == pytest.approx(0.05, rel=1e-12)
    assert delta == pytest.approx(0.05 * data_norm, rel=1e-12)


def test_only_the_data_mesh_builds_its_mass_matrix(mesh200):
    # Mesh.mass is built on first use: noisy data needs it on the mesh the
    # data live on, never on the fine mesh they are interpolated from.
    fine = generate_disk_mesh(1500)
    ms = MeasurementSet.trig(math.pi, (1,))
    data, _ = simulate_data(default_phantom(), ms, mesh200, fine_mesh=fine)
    add_noise(data, 0.05, seed=3)
    assert "mass" in vars(mesh200)
    assert "mass" not in vars(fine)


def test_add_noise_seed_behavior(desk_problem):
    _, data, _ = desk_problem
    n1, d1 = add_noise(data, 0.05, seed=1)
    n1b, _ = add_noise(data, 0.05, seed=1)
    n2, d2 = add_noise(data, 0.05, seed=2)
    assert np.array_equal(n1.values, n1b.values)
    assert not np.array_equal(n1.values, n2.values)
    assert d1 == d2  # same magnitude by construction
    for noisy in (n1, n2):
        assert _mass_norm(data.mesh, noisy.values - data.values) == pytest.approx(d1, rel=1e-12)


def test_add_noise_bitwise_against_l2_gram_mass(desk_problem):
    # Reference: the same scaling with the L2 Gram matrix (the mass matrix),
    # each row's norm taken as a Python float and squared again; the noisy
    # data and the noise level must match to the bit.
    _, data, _ = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=20241)
    mass = GramSolver(data.mesh, InnerProductSpec.l2()).gram

    def row_norm(row):
        return float(np.sqrt(max(float(row @ (mass @ row)), 0.0)))

    values = data.values
    noise = np.random.default_rng(20241).standard_normal(values.shape)
    data_scale = np.sqrt(sum(row_norm(row) ** 2 for row in values))
    noise_scale = np.sqrt(sum(row_norm(row) ** 2 for row in noise))
    expected_delta = 0.05 * data_scale
    assert delta == expected_delta
    assert np.array_equal(noisy.values, values + expected_delta * noise / noise_scale)


def test_step_zero_gradient_at_exact_data(mesh500, desk_problem):
    # data made at the initial guess with no noise level: the residual,
    # and so the descent direction, is exactly zero
    ms, _, _ = desk_problem
    state = solve_measurement_set(NodalField.constant(mesh500, 1.5), ms)
    sigma, log = _one_step(state.power_densities, ms, InnerProductSpec.l2(), safeguard=True)
    assert log.stop_reason == "zero_gradient"
    assert log.num_iterations == 0
    assert np.all(sigma.values == 1.5)


def test_step_update_homogeneity(mesh500, desk_problem):
    # doubling the residual doubles the update: omega is scale-invariant
    ms, _, _ = desk_problem
    sigma = NodalField.constant(mesh500, 1.5)
    state = solve_measurement_set(sigma, ms)
    f = state.power_densities.values
    bump = 0.01 * np.ones_like(f)
    data1 = NodalField(mesh500, f + bump)
    data2 = NodalField(mesh500, f + 2.0 * bump)
    s1, log1 = _one_step(data1, ms, InnerProductSpec.l2())
    s2, log2 = _one_step(data2, ms, InnerProductSpec.l2())
    om1, om2 = log1.omegas[0], log2.omegas[0]
    assert om2 == pytest.approx(om1, rel=1e-10)
    upd1 = s1.values - sigma.values
    upd2 = s2.values - sigma.values
    assert np.allclose(upd2, 2.0 * upd1, rtol=1e-9, atol=1e-13)


def test_step_decreases_residual(desk_problem):
    # the raw (unsafeguarded) step with the H2 inner product; the less
    # smoothing an inner product applies, the more the first step from a
    # large misfit overshoots, which is what the run_landweber safeguard
    # is for
    ms, data, _ = desk_problem
    _, log = _one_step(data, ms, InnerProductSpec.h2())
    assert log.omegas[0] > 0.0
    assert log.residuals[1] < log.residuals[0]


def test_safeguard_halves_an_overshooting_step(desk_problem):
    # with the L2 inner product the raw first step raises the residual
    # (0.670 -> 0.893); one halving gives a decrease
    ms, data, _ = desk_problem
    _, raw = _one_step(data, ms, InnerProductSpec.l2())
    assert raw.residuals[1] > raw.residuals[0]
    _, guarded = _one_step(data, ms, InnerProductSpec.l2(), safeguard=True)
    assert guarded.stop_reason == "max_iter"
    assert guarded.omegas[0] == 0.5 * raw.omegas[0]
    assert guarded.residuals[0] == raw.residuals[0]
    assert guarded.residuals[1] < guarded.residuals[0]


def test_safeguard_without_halvings_stagnates(desk_problem, monkeypatch):
    ms, data, _ = desk_problem
    monkeypatch.setattr(inversion, "MAX_HALVINGS", 0)
    sigma, log = _one_step(data, ms, InnerProductSpec.l2(), safeguard=True)
    assert log.stop_reason == "stagnation"
    assert log.num_iterations == 0
    assert np.all(sigma.values == 1.5)


def test_landweber_stops_immediately_on_exact_data(mesh500, desk_problem):
    # data generated at the initial guess: residual 0 <= tau * delta
    ms, _, truth = desk_problem
    start = NodalField.constant(mesh500, 1.5)
    state = solve_measurement_set(start, ms)
    config = ReconstructionConfig(tau=1.0, max_iter=50)
    sigma, log = run_landweber(
        config, state.power_densities, delta_abs=0.3, ms=ms, truth=truth
    )
    assert log.stop_reason == "discrepancy"
    assert log.num_iterations == 0
    assert np.all(sigma.values == 1.5)


def test_landweber_noise_free_reduces_error(mesh500, desk_problem):
    ms, data, truth = desk_problem
    config = ReconstructionConfig(max_iter=60, spec=InnerProductSpec.h2_beta())
    sigma, log = run_landweber(config, data, 0.0, ms, truth)
    assert log.stop_reason == "max_iter"
    assert log.rel_errors[-1] < log.rel_errors[0]
    assert np.all(np.diff(log.residuals) <= 1e-14)
    assert np.all(sigma.values >= config.sigma_floor)


def test_landweber_deterministic(mesh500, desk_problem):
    ms, data, truth = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=42)
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=40)
    _, log1 = run_landweber(config, noisy, delta, ms, truth)
    _, log2 = run_landweber(config, noisy, delta, ms, truth)
    assert np.array_equal(log1.residuals, log2.residuals)
    assert np.array_equal(log1.omegas, log2.omegas, equal_nan=True)
    assert np.array_equal(log1.rel_errors, log2.rel_errors)
    assert log1.stop_reason == log2.stop_reason


@pytest.mark.parametrize("spec", [InnerProductSpec.l2(), InnerProductSpec.h2_beta()])
def test_scaling_the_gram_moves_no_iterate(desk_problem, monkeypatch, spec):
    # why the zeroth-order weight is fixed at 1: the Gram c*G gives the
    # direction s/c and the stepsize c*omega, so the same update omega*s
    ms, data, truth = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=5)
    config = ReconstructionConfig(tau=1.0, max_iter=30, spec=spec)
    sigma, log = run_landweber(config, noisy, delta, ms, truth)
    gram_matrix = fem.gram_matrix
    monkeypatch.setattr(fem, "gram_matrix", lambda mesh, spec: 2.0 * gram_matrix(mesh, spec))
    scaled_sigma, scaled = run_landweber(config, noisy, delta, ms, truth)
    assert np.array_equal(scaled_sigma.values, sigma.values)
    assert np.array_equal(scaled.residuals, log.residuals)
    assert np.array_equal(scaled.omegas, 2.0 * log.omegas, equal_nan=True)
    assert scaled.stop_reason == log.stop_reason and log.num_iterations > 1


def test_landweber_l2_stops_before_h2(mesh500, desk_problem):
    # smoother adjoints fit the noise more slowly, so the discrepancy
    # index grows with the smoothing
    ms, data, truth = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=3)
    k_star = {}
    for name, spec in [("L2", InnerProductSpec.l2()), ("H2", InnerProductSpec.h2())]:
        config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=150, spec=spec)
        _, log = run_landweber(config, noisy, delta, ms, truth)
        k_star[name] = log.num_iterations
        assert np.isfinite(log.residuals[-1])
    assert k_star["L2"] <= k_star["H2"]


def test_landweber_discrepancy_contract(mesh500, desk_problem):
    ms, data, truth = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=9)
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=400)
    _, log = run_landweber(config, noisy, delta, ms, truth)
    assert log.stop_reason == "discrepancy"
    assert log.residuals[-1] <= config.tau * delta
    assert len(log.residuals) <= config.max_iter + 1


def test_landweber_budget_of_exactly_the_discrepancy_index(desk_problem):
    # the iterate k* that meets tau * delta stops by discrepancy even when
    # the budget ends there; one step less ends by max_iter
    ms, data, truth = desk_problem
    noisy, delta = add_noise(data, 0.05, seed=9)
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=400)
    sigma, log = run_landweber(config, noisy, delta, ms, truth)
    k_star = log.num_iterations
    assert log.stop_reason == "discrepancy" and k_star >= 2
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=k_star)
    exact_sigma, exact = run_landweber(config, noisy, delta, ms, truth)
    assert exact.stop_reason == "discrepancy"
    assert np.array_equal(exact_sigma.values, sigma.values)
    for field in ("residuals", "omegas", "rel_errors"):
        assert np.array_equal(getattr(exact, field), getattr(log, field), equal_nan=True)
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=k_star - 1)
    short_sigma, short = run_landweber(config, noisy, delta, ms, truth)
    assert short.stop_reason == "max_iter" and short.num_iterations == k_star - 1
    assert np.array_equal(short.residuals[:-1], log.residuals[: k_star - 1])
    assert short.residuals[-1] > config.tau * delta


def test_landweber_rejects_data_that_does_not_match_the_currents(mesh500, desk_problem):
    ms, data, _ = desk_problem
    config = ReconstructionConfig(max_iter=1)
    for values in (data.values[:2], data.values[0]):
        with pytest.raises(ValueError, match="data stack of shape"):
            run_landweber(config, NodalField(mesh500, values), 0.0, ms)


def test_landweber_rejects_a_truth_that_is_not_one_field_of_the_mesh(mesh200, mesh500):
    # a stack would give a rel_errors column that mixes its rows, and a field of
    # another mesh would fail only after the first forward solve
    ms = MeasurementSet.trig(math.pi)
    data = NodalField(mesh200, np.ones((len(ms), mesh200.num_vertices)))
    stack = NodalField(mesh200, np.ones((2, mesh200.num_vertices)))
    for truth in (stack, NodalField.constant(mesh500, 1.0)):
        with pytest.raises(ValueError, match="expected a truth field of shape"):
            run_landweber(ReconstructionConfig(max_iter=2), data, 0.0, ms, truth)


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(tau=0.5)
    with pytest.raises(ValueError):
        ReconstructionConfig(max_iter=0)
    with pytest.raises(ValueError):
        ReconstructionConfig(sigma_floor=0.0)
    with pytest.raises(ValueError):
        ReconstructionConfig(delta_rel=-0.1)
    # the start must be admissible; one on the floor is
    for sigma0, floor in ((0.05, 0.1), (1.0, 1.2)):
        with pytest.raises(ValueError, match="sigma0 must be >= sigma_floor"):
            ReconstructionConfig(sigma0=sigma0, sigma_floor=floor)
    assert ReconstructionConfig(sigma0=0.1).sigma0 == 0.1
    # NaN fails every range check
    for key in ("tau", "delta_rel", "sigma0", "sigma_floor", "max_iter"):
        with pytest.raises(ValueError):
            ReconstructionConfig(**{key: float("nan")})


@pytest.mark.parametrize("delta_abs", [-1.0, float("nan"), float("inf")])
def test_landweber_rejects_a_negative_or_non_finite_delta_abs(mesh200, delta_abs):
    # a negative or NaN level would skip the discrepancy test and end the run by max_iter
    ms = MeasurementSet.trig(math.pi)
    data = NodalField(mesh200, np.ones((len(ms), mesh200.num_vertices)))
    with pytest.raises(ValueError, match="delta_abs must be finite and >= 0"):
        run_landweber(ReconstructionConfig(max_iter=2), data, delta_abs, ms)


def test_the_clamp_keeps_iterates_on_or_above_the_floor(mesh200):
    # The floor 1.2 lies above the background 1.0 of the truth (178 of the
    # 198 vertices). Only the clamp of the descent step keeps the iterates
    # admissible: the forward solve accepts any positive conductivity.
    truth = phantom_field(default_phantom(), mesh200)
    ms = MeasurementSet.trig(2.0 * math.pi)
    data = solve_measurement_set(truth, ms).power_densities
    config = ReconstructionConfig(sigma_floor=1.2, max_iter=5)
    sigma, log = run_landweber(config, data, 0.0, ms, truth)
    assert log.num_iterations == 5
    assert np.all(sigma.values >= 1.2)
    assert np.any(sigma.values == 1.2)


def test_iteration_log_validation():
    with pytest.raises(ValueError):
        IterationLog(np.array([1.0]), np.array([np.nan]), np.array([np.nan]), "because")
    with pytest.raises(ValueError):
        IterationLog(np.array([-1.0]), np.array([np.nan]), np.array([np.nan]), "max_iter")
