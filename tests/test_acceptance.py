"""End-to-end acceptance criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
Heavy artifacts (the 40000-vertex data mesh, forward states, the
reconstruction sweeps, the 2000-vertex transfer matrices) are shared
through module-scoped fixtures, so the whole module runs in minutes.
"""

import math

import numpy as np
import pytest

from aet2d.fem import GramSolver, InnerProductSpec, NodalField, norm_sq
from aet2d.forward import (
    MeasurementSet,
    determinant_diagnostic,
    simulate_data,
    solve_measurement_set,
)
from aet2d.illposed import condition_table
from aet2d.inversion import ReconstructionConfig, add_noise, run_landweber
from aet2d.mesh import generate_disk_mesh
from aet2d.phantom import default_phantom, phantom_field
from aet2d.sensitivity import adjoint_apply, derivative_apply

pytestmark = pytest.mark.acceptance

ANGLES = (2.0 * math.pi, 1.5 * math.pi, math.pi, math.pi / 2)
SPECS = {
    "L2": InnerProductSpec.l2(),
    "H2": InnerProductSpec.h2(),
    "H2_beta": InnerProductSpec.h2_beta(),
}
TABLE_ROW_M3 = {  # three-measurement trig row of the reference grid
    2.0 * math.pi: 1.45e1,
    1.5 * math.pi: 3.77e2,
    math.pi: 3.59e3,
    math.pi / 2: 8.81e4,
}


def record(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def fine_mesh():
    return generate_disk_mesh(40000)


@pytest.fixture(scope="module")
def data_by_angle(mesh2000, fine_mesh):
    """Noise-free trig-family data for every angle, from the fine mesh."""
    spec = default_phantom()
    out = {}
    for alpha in ANGLES:
        ms = MeasurementSet.trig(alpha)
        data, _ = simulate_data(spec, ms, mesh2000, fine_mesh=fine_mesh)
        out[alpha] = (ms, data)
    return out


@pytest.fixture(scope="module")
def noise_free_run(mesh2000, data_by_angle):
    """Noise-free full-boundary reconstruction, 200 iterations."""
    truth = phantom_field(default_phantom(), mesh2000)
    ms, data = data_by_angle[2.0 * math.pi]
    config = ReconstructionConfig(max_iter=200, spec=InnerProductSpec.h2_beta())
    _, log = run_landweber(config, data, 0.0, ms, truth)
    return log


@pytest.fixture(scope="module")
def noisy_sweep(mesh2000, data_by_angle):
    """5% noise, tau = 1, discrepancy-stopped runs at every angle."""
    truth = phantom_field(default_phantom(), mesh2000)
    runs = {}
    for alpha in ANGLES:
        ms, data = data_by_angle[alpha]
        noisy, delta_abs = add_noise(data, 0.05, seed=2024)
        config = ReconstructionConfig(
            tau=1.0, delta_rel=0.05, max_iter=600, spec=InnerProductSpec.h2_beta()
        )
        _, log = run_landweber(config, noisy, delta_abs, ms, truth)
        runs[alpha] = log
    return runs


@pytest.fixture(scope="module")
def noisy_problem(mesh2000, fine_mesh):
    """5% noise on the full-boundary special-family data."""
    spec = default_phantom()
    truth = phantom_field(spec, mesh2000)
    ms = MeasurementSet.special()
    data, _ = simulate_data(spec, ms, mesh2000, fine_mesh=fine_mesh)
    noisy, delta_abs = add_noise(data, 0.05, seed=2024)
    return ms, noisy, delta_abs, truth


def test_criterion_1_adjoint_identity(mesh500, rng):
    sigma = phantom_field(default_phantom(), mesh500)
    grams = {name: GramSolver(mesh500, s) for name, s in SPECS.items()}
    worst = 0.0
    worst_at = None
    for alpha in ANGLES:
        for m_count in (1, 2, 3):
            ms = MeasurementSet.trig(alpha, tuple(range(1, m_count + 1)))
            state = solve_measurement_set(sigma, ms)
            for name, gram in grams.items():
                for _ in range(20):
                    h = NodalField(mesh500, rng.standard_normal(mesh500.num_vertices))
                    w = NodalField(
                        mesh500, rng.standard_normal((m_count, mesh500.num_vertices))
                    )
                    fh = derivative_apply(state, h).values
                    fstar = adjoint_apply(state, w, gram)
                    lhs = sum(f @ (mesh500.mass @ wj) for f, wj in zip(fh, w.values))
                    rhs = gram.inner(h.values, fstar.values)
                    fh_norm = math.sqrt(norm_sq(mesh500, fh))
                    w_norm = math.sqrt(norm_sq(mesh500, w.values))
                    rel = abs(lhs - rhs) / (fh_norm * w_norm)
                    if rel > worst:
                        worst, worst_at = rel, (alpha, m_count, name)
    record(
        worst <= 1e-8,
        "criterion 1 (adjoint identity)",
        f"worst relative defect {worst:.3e} at {worst_at} (tolerance 1e-8)",
    )


def test_criterion_2_taylor_slope():
    mesh = generate_disk_mesh(1000)
    ms = MeasurementSet.trig(2.0 * math.pi)
    sigma0 = NodalField.constant(mesh, 1.5)
    state = solve_measurement_set(sigma0, ms)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    h = np.sin(2.0 * x + 1.0) * np.cos(3.0 * y) + 0.5 * x * y + 0.3 * np.cos(4.0 * x)
    h = 0.1 * h / np.abs(h).max()
    hf = NodalField(mesh, h)
    f0 = state.power_densities.values
    df = derivative_apply(state, hf).values
    eps_values = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    remainders = []
    for eps in eps_values:
        pert = NodalField(mesh, sigma0.values + eps * h)
        f_eps = solve_measurement_set(pert, ms).power_densities.values
        r = f_eps - f0 - eps * df
        remainders.append(math.sqrt(norm_sq(mesh, r)))
    slope = float(np.polyfit(np.log(eps_values), np.log(remainders), 1)[0])
    record(
        abs(slope - 2.0) <= 0.2,
        "criterion 2 (Taylor remainder)",
        f"log-log slope {slope:.4f} (target 2 +- 0.2)",
    )


def test_criterion_3_analytic_forward_oracle(mesh2000):
    tolerances = {2000: 0.02, 8000: 0.005}
    worst = {}
    for target, tol in tolerances.items():
        mesh = mesh2000 if target == 2000 else generate_disk_mesh(target)
        worst[target] = 0.0
        for c in (0.5, 1.0, 2.0):
            state = solve_measurement_set(
                NodalField.constant(mesh, c), MeasurementSet.special()
            )
            ref = np.full(mesh.num_vertices, 1.0 / c)
            for e in state.power_densities.values:
                rel = math.sqrt(norm_sq(mesh, e - ref) / norm_sq(mesh, ref))
                worst[target] = max(worst[target], rel)
    ok = all(worst[t] <= tol for t, tol in tolerances.items())
    record(
        ok,
        "criterion 3 (analytic forward oracle)",
        f"worst rel L2 error {worst[2000]:.2e} @2000 (tol 2e-2), "
        f"{worst[8000]:.2e} @8000 (tol 5e-3)",
    )


def test_criterion_4_determinant_diagnostic(mesh2000):
    state = solve_measurement_set(
        NodalField.constant(mesh2000, 1.0), MeasurementSet.special((1, 2))
    )
    det, dmin = determinant_diagnostic(state.potentials)
    within = np.max(np.abs(det + 1.0))
    record(
        within <= 0.1 and dmin >= 0.9,
        "criterion 4 (determinant diagnostic)",
        f"max |det - (-1)| = {within:.3e} (tol 0.1), min |det| = {dmin:.4f} (floor 0.9)",
    )


def test_criterion_5a_noise_free_error_reduction(noise_free_run):
    log = noise_free_run
    record(
        log.rel_errors[-1] < log.rel_errors[0],
        "criterion 5a (noise-free error reduction)",
        f"rel error {log.rel_errors[0]:.4f} -> {log.rel_errors[-1]:.4f} "
        f"in {log.num_iterations} iterations",
    )


def test_criterion_5b_discrepancy_termination(noisy_problem):
    ms, noisy, delta_abs, truth = noisy_problem
    config = ReconstructionConfig(
        tau=1.0, delta_rel=0.05, max_iter=1000, spec=InnerProductSpec.h2_beta()
    )
    _, log = run_landweber(config, noisy, delta_abs, ms, truth)
    ok = log.stop_reason == "discrepancy" and log.residuals[-1] <= delta_abs
    record(
        ok,
        "criterion 5b (discrepancy termination)",
        f"stop={log.stop_reason} after {log.num_iterations} iterations, "
        f"residual {log.residuals[-1]:.5f} <= delta {delta_abs:.5f}",
    )


def test_criterion_5c_error_ordering_over_angles(noisy_sweep):
    # the noisy discrepancy-stopped runs: each angle stops at its own
    # index, and the final error grows as the accessible arc shrinks
    finals = [noisy_sweep[a].rel_errors[-1] for a in ANGLES]
    ok = all(finals[i] < finals[i + 1] for i in range(len(finals) - 1))
    record(
        ok,
        "criterion 5c (limited-angle error ordering)",
        "final rel errors "
        + " < ".join(f"{e:.4f}" for e in finals)
        + " for alpha = 2pi, 3pi/2, pi, pi/2 (5% noise, tau=1)",
    )


def test_criterion_6_condition_numbers(mesh2000):
    truth = phantom_field(default_phantom(), mesh2000)
    rows = condition_table(truth)
    m3 = next(r for r in rows if r["indices"] == (1, 2, 3))
    conds = [m3[a] for a in ANGLES]
    monotone = all(conds[i] < conds[i + 1] for i in range(len(conds) - 1))
    within = all(
        0.1 <= m3[a] / TABLE_ROW_M3[a] <= 10.0 for a in ANGLES
    )
    pairwise = True
    for a in ANGLES:
        worst_m2 = max(r[a] for r in rows if len(r["indices"]) == 2)
        best_m1 = min(r[a] for r in rows if len(r["indices"]) == 1)
        pairwise = pairwise and worst_m2 < best_m1
    record(
        monotone and within and pairwise,
        "criterion 6 (ill-posedness quantification)",
        "cond(T) = "
        + ", ".join(f"{c:.3e}" for c in conds)
        + f" (reference 1.45e1, 3.77e2, 3.59e3, 8.81e4); monotone={monotone}, "
        f"within 10x={within}, M2<M1 everywhere={pairwise}",
    )


def test_criterion_7_monotonicity_and_determinism(
    noise_free_run, noisy_sweep, noisy_problem
):
    increases = 0.0
    for log in [noise_free_run, *noisy_sweep.values()]:
        if len(log.residuals) > 1:
            increases = max(increases, float(np.max(np.diff(log.residuals))))
    monotone = increases <= 1e-14

    ms, noisy, delta_abs, truth = noisy_problem
    config = ReconstructionConfig(tau=1.0, delta_rel=0.05, max_iter=60)
    _, log1 = run_landweber(config, noisy, delta_abs, ms, truth)
    _, log2 = run_landweber(config, noisy, delta_abs, ms, truth)
    identical = (
        np.array_equal(log1.residuals, log2.residuals)
        and np.array_equal(log1.omegas, log2.omegas, equal_nan=True)
        and np.array_equal(log1.rel_errors, log2.rel_errors)
        and log1.stop_reason == log2.stop_reason
    )
    record(
        monotone and identical,
        "criterion 7 (monotonicity and determinism)",
        f"max residual increase {increases:.2e}; bitwise-identical reruns: {identical}",
    )
