"""Adaptive observer for plants whose output equation is linear in unknown
parameters.

The observer is a copy of the plant driven by the same input, with the
parameter estimate updated through an antiderivative of the update
regressor: thetahd = H(y) - H(yh). No other output injection is used, so
parameter convergence rides entirely on the contraction induced in the
plant by the design input. The estimator state (yh, zh, thetah) embeds the
plant: freezing thetah at the true value and matching initial conditions
reproduces the plant trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AntiderivativeMismatch, ConfigError, PeriodMismatch
from .integrate import FixedStep, Trajectory, integrate
from .models import ParameterizedPlant, PlainModel
from .signals import InputSignal
from .variational import (
    MonodromyResult,
    StabilityVerdict,
    _spectrum,
    transition_matrix,
)

__all__ = [
    "AdaptiveObserverSpec",
    "build_observer",
    "coupled_system",
    "ObserverRun",
    "run_observer",
    "ObserverContractionResult",
    "observer_contraction_check",
]


@dataclass(frozen=True)
class AdaptiveObserverSpec:
    """Plant family plus the update pair (h, H) with H' = h."""

    plant: ParameterizedPlant
    h_update: Callable[[float], np.ndarray]
    H_update: Callable[[float], np.ndarray]
    m: int
    theta0: np.ndarray


def build_observer(
    plant: ParameterizedPlant,
    h: Callable[[float], np.ndarray] | None = None,
    H: Callable[[float], np.ndarray] | None = None,
    theta0: np.ndarray | None = None,
    fd_step: float = 1e-7,
    fd_tol: float = 1e-6,
    grid_points: int = 401,
) -> AdaptiveObserverSpec:
    """Assemble an observer spec, verifying that H is an antiderivative of h.

    The check is a centered difference of H against h on a grid spanning the
    plant's output range; a mismatch beyond fd_tol raises
    AntiderivativeMismatch. Defaults come from the plant family itself.
    """
    h = h or plant.update_regressor
    H = H or plant.update_antiderivative
    if theta0 is None:
        theta0 = np.array([0.5 * (lo + hi) for lo, hi in plant.theta_box])
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (plant.m,):
        raise ConfigError(f"theta0 must have shape ({plant.m},)")

    lo, hi = plant.sample_box[0]
    worst = 0.0
    for y in np.linspace(lo, hi, grid_points):
        fd = (H(y + fd_step) - H(y - fd_step)) / (2.0 * fd_step)
        worst = max(worst, float(np.max(np.abs(fd - h(y)))))
    if worst > fd_tol:
        raise AntiderivativeMismatch(
            f"centered difference of H deviates from h by {worst:.3e} on [{lo}, {hi}]"
        )
    return AdaptiveObserverSpec(plant=plant, h_update=h, H_update=H, m=plant.m,
                                theta0=theta0)


def coupled_system(spec: AdaptiveObserverSpec, theta_star: np.ndarray) -> PlainModel:
    """Plant and observer stacked as one vector field.

    State layout: (y, z, yh, zh, thetah). Both blocks evaluate the same
    plant functions, so matched initial data with thetah = theta_star gives
    a bitwise-identical observer block (the update difference is exactly
    zero and stays zero).
    """
    plant = spec.plant
    n, m = plant.n, plant.m
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (m,):
        raise ConfigError(f"theta_star must have shape ({m},)")

    def rhs(t: float, s: np.ndarray, u: float) -> np.ndarray:
        y, z = s[0], s[1:n]
        yh, zh = s[n], s[n + 1 : 2 * n]
        th = s[2 * n :]
        out = np.empty(2 * n + m)
        out[0] = plant.f0(t, y, z, u) + float(plant.regressor(y) @ theta_star)
        out[1:n] = plant.g(t, z, y)
        out[n] = plant.f0(t, yh, zh, u) + float(plant.regressor(yh) @ th)
        out[n + 1 : 2 * n] = plant.g(t, zh, yh)
        out[2 * n :] = spec.H_update(y) - spec.H_update(yh)
        return out

    def block(t: float, y: float, z: np.ndarray, u: float, theta: np.ndarray) -> np.ndarray:
        A = np.zeros((n, n))
        A[0, 0] = plant.df0_dy(t, y, z, u) + float(plant.dregressor_dy(y) @ theta)
        A[0, 1:] = plant.df0_dz(t, y, z, u)
        A[1:, 0] = np.asarray(plant.dg_dy(t, z, y)).ravel()
        A[1:, 1:] = np.asarray(plant.dg_dz(t, z, y)).reshape(n - 1, n - 1)
        return A

    def jac(t: float, s: np.ndarray, u: float) -> np.ndarray:
        y, z = s[0], s[1:n]
        yh, zh = s[n], s[n + 1 : 2 * n]
        th = s[2 * n :]
        J = np.zeros((2 * n + m, 2 * n + m))
        J[:n, :n] = block(t, y, z, u, theta_star)
        J[n : 2 * n, n : 2 * n] = block(t, yh, zh, u, th)
        J[n, 2 * n :] = plant.regressor(yh)
        J[2 * n :, 0] = spec.h_update(y)
        J[2 * n :, n] = -spec.h_update(yh)
        return J

    names = list(plant.state_names) or [f"s{i}" for i in range(n)]
    full = (
        names
        + [f"{nm}_hat" for nm in names]
        + [f"theta_hat_{i + 1}" for i in range(m)]
    )
    return PlainModel(
        name=f"{plant.name}-observer",
        n=2 * n + m,
        rhs_fn=rhs,
        jac_fn=jac,
        stiffness=plant.stiffness,
        state_names=tuple(full),
    )


@dataclass(frozen=True)
class ObserverRun:
    """Joint plant/observer trajectory with convergence bookkeeping."""

    traces: Trajectory
    theta_error: np.ndarray
    tolerance: float
    converged_at: float | None


def run_observer(
    spec: AdaptiveObserverSpec,
    theta_star: np.ndarray,
    u_signal: InputSignal,
    horizon: float,
    tolerance: float,
    input_period: float | None = None,
    plant_ic: np.ndarray | None = None,
    observer_ic: np.ndarray | None = None,
    theta0: np.ndarray | None = None,
    policy: FixedStep | None = None,
) -> ObserverRun:
    """Simulate the coupled system and locate parameter convergence.

    Convergence is the first instant from which ||thetah - theta_star||
    stays below tolerance for three consecutive input periods. The input
    period is taken from the signal when it exposes one.
    """
    if input_period is None:
        input_period = getattr(u_signal, "period", None)
        if input_period is None:
            raise ConfigError("u_signal exposes no period; pass input_period")
    theta_star = np.asarray(theta_star, dtype=float)
    plant = spec.plant
    if plant_ic is None:
        plant_ic = np.zeros(plant.n)
    plant_ic = np.asarray(plant_ic, dtype=float)
    if observer_ic is None:
        observer_ic = plant_ic.copy()
    th0 = spec.theta0 if theta0 is None else np.asarray(theta0, dtype=float)
    ic = np.concatenate([plant_ic, observer_ic, th0])

    model = coupled_system(spec, theta_star)
    traj = integrate(model, u_signal, 0.0, horizon, ic, policy)

    th = traj.states[:, 2 * plant.n :]
    theta_error = np.linalg.norm(th - theta_star, axis=1)

    window = 3.0 * input_period
    ok = theta_error < tolerance
    converged_at = None
    i = 0
    ts = traj.ts
    while i < ts.size:
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < ts.size and ok[j + 1]:
            j += 1
        if ts[j] - ts[i] >= window:
            converged_at = float(ts[i])
            break
        i = j + 1

    return ObserverRun(
        traces=traj,
        theta_error=theta_error,
        tolerance=tolerance,
        converged_at=converged_at,
    )


@dataclass(frozen=True)
class ObserverContractionResult:
    """Monodromy of the estimation-error linearization along a reference,
    with a quadratic-form decrease diagnostic."""

    monodromy: MonodromyResult
    verdict: StabilityVerdict
    eps_coupling: float
    lyapunov_shift: float  # max eigenvalue of Phi' Q Phi - Q
    lyapunov_decreases: bool
    q_min_eigenvalue: float


def observer_contraction_check(
    spec: AdaptiveObserverSpec,
    theta_star: np.ndarray,
    ref: Trajectory,
    eps_coupling: float = 0.01,
    period: float | None = None,
    anchor_tol: float = 1e-3,
) -> ObserverContractionResult:
    """Floquet test of the joint (output, internal, parameter) error block.

    The linearization of the observer error around a periodic plant solution
    couples the parameter block to the output through the plant regressor
    (downward) and the update regressor (upward); its monodromy having
    spectral radius below one certifies local parameter convergence. The
    cross-weighted quadratic form W(d) = |d|^2/2 - eps * dtheta . h(y**) dy
    is evaluated over one period as a second, coordinate-level diagnostic.
    """
    plant = spec.plant
    n, m = plant.n, plant.m
    theta_star = np.asarray(theta_star, dtype=float)
    t0 = ref.t0
    if period is None:
        period = ref.t1 - ref.t0
    scale = max(1.0, float(np.max(np.abs(ref.states))))
    gap = float(np.max(np.abs(ref.interp_state(t0 + period) - ref.states[0])))
    if gap > anchor_tol * scale:
        raise PeriodMismatch(
            f"reference does not close up over one period (gap {gap:.3e})"
        )

    def A(t: float) -> np.ndarray:
        s = ref.interp_state(t)
        u = float(np.interp(t, ref.ts, ref.us))
        y, z = s[0], s[1:n]
        J = np.zeros((n + m, n + m))
        J[0, 0] = plant.df0_dy(t, y, z, u) + float(plant.dregressor_dy(y) @ theta_star)
        J[0, 1:n] = plant.df0_dz(t, y, z, u)
        J[1:n, 0] = np.asarray(plant.dg_dy(t, z, y)).ravel()
        J[1:n, 1:n] = np.asarray(plant.dg_dz(t, z, y)).reshape(n - 1, n - 1)
        J[0, n:] = plant.regressor(y)
        J[n:, 0] = -spec.h_update(y)
        return J

    inner = ref.ts[(ref.ts > t0) & (ref.ts < t0 + period)]
    grid = np.concatenate(([t0], inner, [t0 + period]))
    phi = transition_matrix(A, grid)
    lam = _spectrum(phi)
    rho = float(np.max(np.abs(lam)))
    mono = MonodromyResult(
        t0=float(t0), period=float(period), phi=phi, eigenvalues=lam,
        spectral_radius=rho,
    )
    verdict = StabilityVerdict(stable=rho < 1.0, margin=1.0 - rho, method="monodromy")

    h0 = plant.regressor(float(ref.states[0, 0]))
    Q = np.eye(n + m)
    Q[0, n:] = -eps_coupling * h0
    Q[n:, 0] = -eps_coupling * h0
    shift = phi.T @ Q @ phi - Q
    lam_shift = float(np.max(np.linalg.eigvalsh(0.5 * (shift + shift.T))))
    q_min = float(np.min(np.linalg.eigvalsh(Q)))

    return ObserverContractionResult(
        monodromy=mono,
        verdict=verdict,
        eps_coupling=eps_coupling,
        lyapunov_shift=lam_shift,
        lyapunov_decreases=lam_shift < 0.0,
        q_min_eigenvalue=q_min,
    )
