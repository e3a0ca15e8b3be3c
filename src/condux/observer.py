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

import numpy as np

from .errors import ConfigError, PeriodMismatch
from .integrate import Trajectory, integrate
from .models import ParameterizedPlant, PlainModel
from .signals import InputSignal
from .variational import ANCHOR_TOL, MonodromyResult, StabilityVerdict, flow

__all__ = [
    "coupled_system",
    "ObserverRun",
    "run_observer",
    "ObserverContractionResult",
    "observer_contraction_check",
]


def coupled_system(plant: ParameterizedPlant, theta_star: np.ndarray) -> PlainModel:
    """Plant and observer stacked as one vector field.

    State layout: (y, z, yh, zh, thetah). Both blocks evaluate the same
    plant functions, so matched initial data with thetah = theta_star gives
    a bitwise-identical observer block (the update difference is exactly
    zero and stays zero).
    """
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
        out[2 * n :] = plant.update_antiderivative(y) - plant.update_antiderivative(yh)
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
        J[2 * n :, 0] = plant.update_regressor(y)
        J[2 * n :, n] = -plant.update_regressor(yh)
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
    plant: ParameterizedPlant,
    theta_star: np.ndarray,
    u_signal: InputSignal,
    horizon: float,
    tolerance: float,
    plant_ic: np.ndarray,
    theta0: np.ndarray,
    step: float | None = None,
) -> ObserverRun:
    """Simulate the coupled system from (plant_ic, plant_ic, theta0) and
    locate parameter convergence.

    Convergence is the first instant from which ||thetah - theta_star||
    stays below tolerance for three consecutive periods of the input, which
    must expose one.
    """
    period = getattr(u_signal, "period", None)
    if period is None:
        raise ConfigError("u_signal exposes no period")
    theta_star = np.asarray(theta_star, dtype=float)
    plant_ic = np.asarray(plant_ic, dtype=float)
    ic = np.concatenate([plant_ic, plant_ic, np.asarray(theta0, dtype=float)])

    model = coupled_system(plant, theta_star)
    traj = integrate(model, u_signal, 0.0, horizon, ic, step)

    th = traj.states[:, 2 * plant.n :]
    theta_error = np.linalg.norm(th - theta_star, axis=1)

    window = 3.0 * period
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
    lyapunov_shift: float  # max eigenvalue of Phi' Q Phi - Q
    lyapunov_decreases: bool
    q_min_eigenvalue: float


def observer_contraction_check(
    plant: ParameterizedPlant,
    theta_star: np.ndarray,
    ref: Trajectory,
    u_signal: InputSignal,
    step: float | None = None,
    eps_coupling: float = 0.01,
) -> ObserverContractionResult:
    """Floquet test of the joint (output, internal, parameter) error block.

    The linearization of the observer error around a periodic plant solution
    couples the parameter block to the output through the plant regressor
    (downward) and the update regressor (upward); its monodromy having
    spectral radius below one certifies local parameter convergence. It is
    read off the coupled system's transition matrix from the embedded state
    (x, x, theta_star) at the reference's first sample: there the coupled
    Jacobian is block lower-triangular, and its lower-right (n + m) block is
    exactly the error linearization, so the lower-right block of Phi is the
    error monodromy. The cross-weighted quadratic form
    W(d) = |d|^2/2 - eps * dtheta . h(y**) dy is evaluated over one period as
    a second, coordinate-level diagnostic.
    """
    n, m = plant.n, plant.m
    theta_star = np.asarray(theta_star, dtype=float)
    t0 = ref.t0
    period = ref.t1 - ref.t0
    x0 = ref.states[0]
    traj, phi_all = flow(coupled_system(plant, theta_star), u_signal, t0, t0 + period,
                         np.concatenate([x0, x0, theta_star]), step)
    plant_states = traj.states[:, :n]
    scale = max(1.0, float(np.max(np.abs(plant_states))))
    gap = float(np.max(np.abs(plant_states[-1] - x0)))
    if gap > ANCHOR_TOL * scale:
        raise PeriodMismatch(
            f"reference does not close up over one period (gap {gap:.3e})"
        )
    phi = phi_all[n:, n:]
    mono = MonodromyResult.from_phi(t0, period, phi)
    rho = mono.spectral_radius
    verdict = StabilityVerdict(stable=rho < 1.0, margin=1.0 - rho)

    h0 = plant.regressor(float(x0[0]))
    Q = np.eye(n + m)
    Q[0, n:] = -eps_coupling * h0
    Q[n:, 0] = -eps_coupling * h0
    shift = phi.T @ Q @ phi - Q
    lam_shift = float(np.max(np.linalg.eigvalsh(0.5 * (shift + shift.T))))
    q_min = float(np.min(np.linalg.eigvalsh(Q)))

    return ObserverContractionResult(
        monodromy=mono,
        verdict=verdict,
        lyapunov_shift=lam_shift,
        lyapunov_decreases=lam_shift < 0.0,
        q_min_eigenvalue=q_min,
    )
