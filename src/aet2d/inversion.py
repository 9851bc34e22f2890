"""Noise injection and steepest-descent Landweber reconstruction.

The iteration updates the conductivity along the adjoint-preconditioned
residual with the steepest-descent stepsize |s|^2 / |dF s|^2 (domain norm
over data norm), stops by the discrepancy principle when a noise level is
known, and keeps iterates admissible by clamping at the conductivity
floor. A safeguard halves the stepsize when a step would increase the
residual; it can be disabled to recover the plain method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    DEFAULT_SIGMA_FLOOR,
    GramSolver,
    InnerProductSpec,
    NodalField,
    assemble_mass,
    l2_norm,
)
from .forward import (
    MeasurementSet,
    measurement_loads,
    solve_measurement_set,
    stack_fields,
    unstack_fields,
)
from .mesh import Mesh
from .sensitivity import adjoint_apply, derivative_apply

STOP_REASONS = ("discrepancy", "max_iter", "zero_gradient", "stagnation")


@dataclass(frozen=True)
class ReconstructionConfig:
    """Parameters of one Landweber reconstruction run."""

    tau: float = 1.0
    delta_rel: float = 0.0
    sigma0: float = 1.5
    max_iter: int = 1000
    spec: InnerProductSpec = field(default_factory=InnerProductSpec.h2_beta)
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    safeguard: bool = True
    max_halvings: int = 20

    def __post_init__(self):
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")
        if self.delta_rel < 0.0:
            raise ValueError("delta_rel must be >= 0")
        if self.sigma_floor <= 0.0:
            raise ValueError("sigma_floor must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class IterationLog:
    """Per-iterate history of a reconstruction run.

    Row k holds the residual norm and relative reconstruction error at
    iterate k and the stepsize used to produce iterate k+1 (NaN on the
    final row, and NaN throughout ``rel_errors`` when no truth is given).
    """

    residuals: np.ndarray
    omegas: np.ndarray
    rel_errors: np.ndarray
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if np.any(self.residuals < 0.0):
            raise ValueError("residual norms must be nonnegative")

    @property
    def num_iterations(self) -> int:
        """Number of completed update steps."""
        return len(self.residuals) - 1


def add_noise(data: list[NodalField], delta_rel: float, seed: int):
    """Perturb a data stack with normalized Gaussian noise.

    The perturbation direction is standard normal over all stacked
    coefficients and rescaled so that the stacked mass-weighted data norm
    of the perturbation is exactly delta_rel * |data|. Returns the noisy
    fields and the absolute noise level delta_rel * |data|.
    """
    if delta_rel < 0.0:
        raise ValueError("delta_rel must be >= 0")
    mesh = data[0].mesh
    if delta_rel == 0.0:
        return [NodalField(mesh, f.values.copy()) for f in data], 0.0
    mass = assemble_mass(mesh)
    values = stack_fields(data)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(values.shape)
    data_scale = np.sqrt(sum(l2_norm(mass, row) ** 2 for row in values))
    noise_scale = np.sqrt(sum(l2_norm(mass, row) ** 2 for row in noise))
    delta_abs = delta_rel * data_scale
    noisy = values + delta_abs * noise / noise_scale
    return unstack_fields(mesh, noisy), float(delta_abs)


class _Workspace:
    """Shared pieces of one run: Gram factorization and norms."""

    def __init__(self, mesh: Mesh, spec: InnerProductSpec):
        self.gram = GramSolver(mesh, spec)

    def residual_fields(self, data_values: np.ndarray, state) -> list[NodalField]:
        mesh = state.mesh
        return [
            NodalField(mesh, data_values[j] - state.power_densities[j].values)
            for j in range(state.num_measurements)
        ]

    def data_norm_sq(self, fields: list[NodalField]) -> float:
        return sum(
            float(f.values @ (self.gram.mass @ f.values)) for f in fields
        )


def steepest_descent_step(
    sigma_k: NodalField,
    noisy_data: list[NodalField],
    ms: MeasurementSet,
    spec: InnerProductSpec,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
):
    """One steepest-descent update from sigma_k.

    Returns (sigma_next, omega, residual_norm) where the residual norm is
    evaluated at sigma_k before the step. Raises ``ZeroGradientError``
    when the descent direction or its image vanishes (stationary point).
    """
    ws = _Workspace(sigma_k.mesh, spec)
    state = solve_measurement_set(sigma_k, ms, sigma_floor)
    data_values = stack_fields(noisy_data)
    residual = ws.residual_fields(data_values, state)
    res_norm = float(np.sqrt(ws.data_norm_sq(residual)))
    sigma_next, omega, _ = _descent_update(state, residual, ws, sigma_floor)
    return sigma_next, omega, res_norm


class ZeroGradientError(RuntimeError):
    """The descent direction vanished; the iteration is stationary."""


def _descent_update(state, residual, ws: _Workspace, sigma_floor: float):
    """Direction, steepest-descent stepsize, and clamped trial iterate."""
    s = adjoint_apply(state, residual, ws.gram)
    s_norm_sq = ws.gram.inner(s.values, s.values)
    if s_norm_sq == 0.0:
        raise ZeroGradientError("adjoint of the residual vanished")
    image = derivative_apply(state, s)
    image_norm_sq = ws.data_norm_sq(image)
    if image_norm_sq == 0.0:
        raise ZeroGradientError("derivative of the descent direction vanished")
    omega = s_norm_sq / image_norm_sq
    sigma_next = NodalField(
        state.mesh, np.maximum(state.sigma.values + omega * s.values, sigma_floor)
    )
    return sigma_next, float(omega), s


def run_landweber(
    config: ReconstructionConfig,
    noisy_data: list[NodalField],
    delta_abs: float,
    ms: MeasurementSet,
    truth: NodalField | None = None,
):
    """Landweber iteration with discrepancy stopping.

    Iterates until the stacked data residual drops to tau * delta_abs
    (skipped when delta_abs == 0: noise-free runs are governed by
    ``max_iter``), the iteration budget is exhausted, the gradient
    vanishes, or the safeguard cannot find a non-increasing step.

    Returns the final conductivity and the iteration log.
    """
    mesh = noisy_data[0].mesh
    ws = _Workspace(mesh, config.spec)
    data_values = stack_fields(noisy_data)
    loads = measurement_loads(mesh, ms)

    if np.isscalar(config.sigma0):
        sigma = NodalField.constant(mesh, float(config.sigma0))
    else:
        sigma = NodalField(mesh, np.asarray(config.sigma0, dtype=np.float64))

    truth_norm = l2_norm(ws.gram.mass, truth.values) if truth is not None else None

    def rel_error(s: NodalField) -> float:
        if truth is None:
            return float("nan")
        return l2_norm(ws.gram.mass, s.values - truth.values) / truth_norm

    residuals: list[float] = []
    omegas: list[float] = []
    errors: list[float] = []

    state = solve_measurement_set(sigma, ms, config.sigma_floor, loads=loads)
    residual = ws.residual_fields(data_values, state)
    res_norm = float(np.sqrt(ws.data_norm_sq(residual)))
    stop_reason = "max_iter"

    for _ in range(config.max_iter):
        if delta_abs > 0.0 and res_norm <= config.tau * delta_abs:
            stop_reason = "discrepancy"
            break
        try:
            sigma_next, omega, s = _descent_update(state, residual, ws, config.sigma_floor)
        except ZeroGradientError:
            stop_reason = "zero_gradient"
            break

        state_next = solve_measurement_set(sigma_next, ms, config.sigma_floor, loads=loads)
        residual_next = ws.residual_fields(data_values, state_next)
        res_next = float(np.sqrt(ws.data_norm_sq(residual_next)))

        if config.safeguard:
            halvings = 0
            while res_next > res_norm and halvings < config.max_halvings:
                omega *= 0.5
                halvings += 1
                sigma_next = NodalField(
                    mesh,
                    np.maximum(sigma.values + omega * s.values, config.sigma_floor),
                )
                state_next = solve_measurement_set(
                    sigma_next, ms, config.sigma_floor, loads=loads
                )
                residual_next = ws.residual_fields(data_values, state_next)
                res_next = float(np.sqrt(ws.data_norm_sq(residual_next)))
            if res_next > res_norm:
                stop_reason = "stagnation"
                break

        residuals.append(res_norm)
        omegas.append(omega)
        errors.append(rel_error(sigma))
        sigma, state, residual, res_norm = sigma_next, state_next, residual_next, res_next

    if (
        stop_reason == "max_iter"
        and delta_abs > 0.0
        and res_norm <= config.tau * delta_abs
    ):
        # budget ran out on the first iterate satisfying the test
        stop_reason = "discrepancy"

    residuals.append(res_norm)
    omegas.append(float("nan"))
    errors.append(rel_error(sigma))

    log = IterationLog(
        residuals=np.asarray(residuals),
        omegas=np.asarray(omegas),
        rel_errors=np.asarray(errors),
        stop_reason=stop_reason,
    )
    return sigma, log
