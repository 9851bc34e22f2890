"""Noise injection and steepest-descent Landweber reconstruction.

The iteration updates the conductivity along the adjoint-preconditioned
residual with the steepest-descent stepsize |s|^2 / |dF s|^2 (domain norm
over data norm), stops by the discrepancy principle when a noise level is
known, and keeps iterates admissible by clamping at the conductivity
floor. The admissible set sigma >= sigma_floor is this iteration's
constraint and this module owns it; the forward model only asks for
sigma > 0. A safeguard halves the stepsize, at most ``MAX_HALVINGS``
times, when a step would increase the residual; it can be disabled to
recover the plain method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .fem import GramSolver, InnerProductSpec, NodalField, norm_sq
from .forward import ForwardState, MeasurementSet, measurement_loads, solve_measurement_set
from .sensitivity import adjoint_apply, derivative_apply

STOP_REASONS = ("discrepancy", "max_iter", "zero_gradient", "stagnation")

# Most stepsize halvings the safeguard tries before it stops the run.
MAX_HALVINGS = 20

# Default admissibility floor for conductivities.
DEFAULT_SIGMA_FLOOR = 0.1


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

    def __post_init__(self):
        if not self.tau >= 1.0:
            raise ValueError("tau must be >= 1")
        if not self.delta_rel >= 0.0:
            raise ValueError("delta_rel must be >= 0")
        if not self.sigma_floor > 0.0:
            raise ValueError("sigma_floor must be positive")
        if not self.sigma0 >= self.sigma_floor:
            raise ValueError("sigma0 must be >= sigma_floor")
        if not self.max_iter >= 1:
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


def add_noise(data: NodalField, delta_rel: float, seed: int):
    """Perturb an (M, V) data stack with normalized Gaussian noise.

    The perturbation direction is standard normal over all stacked
    coefficients and rescaled so that the stacked mass-weighted data norm
    of the perturbation is exactly delta_rel * |data|. Returns the noisy
    stack and the absolute noise level delta_rel * |data|.
    """
    if not (math.isfinite(delta_rel) and delta_rel >= 0.0):
        raise ValueError(f"delta_rel must be finite and >= 0, got {delta_rel!r}")
    mesh = data.mesh
    if delta_rel == 0.0:
        return NodalField(mesh, data.values.copy()), 0.0
    values = data.values
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(values.shape)
    # Each row's norm squared again, not norm_sq(mesh, values): the rounding
    # of that round trip is part of the noise bits, which fixed seeds keep.
    data_scale = np.sqrt(sum(np.sqrt(norm_sq(mesh, row)) ** 2 for row in values))
    noise_scale = np.sqrt(sum(np.sqrt(norm_sq(mesh, row)) ** 2 for row in noise))
    delta_abs = delta_rel * data_scale
    noisy = values + delta_abs * noise / noise_scale
    return NodalField(mesh, noisy), float(delta_abs)


class _Stop(Exception):
    """A step cannot be taken; ``reason`` is the run's stop reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Iterate(NamedTuple):
    """A conductivity's forward solve, data residual and residual norm."""

    state: ForwardState
    residual: NodalField
    res_norm: float


def _descent_step(
    current: _Iterate,
    gram: GramSolver,
    evaluate: Callable[[NodalField], _Iterate],
    config: ReconstructionConfig,
) -> tuple[float, _Iterate]:
    """One safeguarded steepest-descent step from ``current``.

    The direction s is the adjoint of the residual in the domain inner
    product, the stepsize omega = |s|^2_G / |dF s|^2_data, and the trial
    iterate max(sigma + omega s, sigma_floor) is evaluated by ``evaluate``.
    With the safeguard on, omega is halved until the trial residual does
    not exceed the current one, at most MAX_HALVINGS times. Returns the
    stepsize used and the accepted trial; raises ``_Stop`` when the
    direction or its image vanishes or the halvings run out.
    """
    state = current.state
    s = adjoint_apply(state, current.residual, gram)
    s_norm_sq = gram.inner(s.values, s.values)
    if s_norm_sq == 0.0:
        raise _Stop("zero_gradient")
    image_norm_sq = norm_sq(state.mesh, derivative_apply(state, s).values)
    if image_norm_sq == 0.0:
        raise _Stop("zero_gradient")
    omega = float(s_norm_sq / image_norm_sq)
    for _ in range(MAX_HALVINGS + 1):
        trial = evaluate(
            NodalField(
                state.mesh, np.maximum(state.sigma.values + omega * s.values, config.sigma_floor)
            )
        )
        if not (config.safeguard and trial.res_norm > current.res_norm):
            return omega, trial
        omega *= 0.5
    raise _Stop("stagnation")


def run_landweber(
    config: ReconstructionConfig,
    noisy_data: NodalField,
    delta_abs: float,
    ms: MeasurementSet,
    truth: NodalField | None = None,
):
    """Landweber iteration with discrepancy stopping.

    Iterates until the stacked data residual drops to tau * delta_abs
    (skipped when delta_abs == 0: noise-free runs are governed by
    ``max_iter``), the iteration budget is exhausted, the gradient
    vanishes, or the safeguard cannot find a non-increasing step.
    ``delta_abs`` must be finite and >= 0.

    ``noisy_data`` is the (M, V) stack of measured power densities, one
    row per current of ``ms``; ``truth``, if given, is one (V,) field on
    the same mesh. Returns the final conductivity and the iteration log.
    """
    if not (math.isfinite(delta_abs) and delta_abs >= 0.0):
        raise ValueError(f"delta_abs must be finite and >= 0, got {delta_abs!r}")
    mesh = noisy_data.mesh
    if noisy_data.values.shape != (len(ms), mesh.num_vertices):
        raise ValueError(
            f"expected a data stack of shape {(len(ms), mesh.num_vertices)}, "
            f"got {noisy_data.values.shape}"
        )
    if truth is not None and truth.values.shape != (mesh.num_vertices,):
        raise ValueError(
            f"expected a truth field of shape {(mesh.num_vertices,)}, got {truth.values.shape}"
        )
    gram = GramSolver(mesh, config.spec)
    loads = measurement_loads(mesh, ms)

    def evaluate(sigma: NodalField) -> _Iterate:
        state = solve_measurement_set(sigma, ms, loads=loads)
        residual = NodalField(mesh, noisy_data.values - state.power_densities.values)
        return _Iterate(state, residual, float(np.sqrt(norm_sq(mesh, residual.values))))

    truth_norm = float(np.sqrt(norm_sq(mesh, truth.values))) if truth is not None else None

    def rel_error(s: NodalField) -> float:
        if truth is None:
            return float("nan")
        return float(np.sqrt(norm_sq(mesh, s.values - truth.values))) / truth_norm

    residuals: list[float] = []
    omegas: list[float] = []
    errors: list[float] = []

    current = evaluate(NodalField.constant(mesh, config.sigma0))
    # iterates 0..max_iter: each is tested for the stop before a step from it
    for k in range(config.max_iter + 1):
        if delta_abs > 0.0 and current.res_norm <= config.tau * delta_abs:
            stop_reason = "discrepancy"
            break
        if k == config.max_iter:
            stop_reason = "max_iter"
            break
        try:
            omega, accepted = _descent_step(current, gram, evaluate, config)
        except _Stop as stop:
            stop_reason = stop.reason
            break
        residuals.append(current.res_norm)
        omegas.append(omega)
        errors.append(rel_error(current.state.sigma))
        current = accepted

    residuals.append(current.res_norm)
    omegas.append(float("nan"))
    errors.append(rel_error(current.state.sigma))

    log = IterationLog(
        residuals=np.asarray(residuals),
        omegas=np.asarray(omegas),
        rel_errors=np.asarray(errors),
        stop_reason=stop_reason,
    )
    return current.state.sigma, log
