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

from .errors import ConfigError
from .integrate import Trajectory, integrate
from .models import ParameterizedPlant, PlainModel
from .signals import InputSignal
from .variational import MonodromyResult, StabilityVerdict, floquet

__all__ = [
    "coupled_system",
    "ObserverRun",
    "run_observer",
    "ObserverContractionResult",
    "observer_contraction_check",
]


def coupled_system(plant: ParameterizedPlant, theta_star: np.ndarray) -> PlainModel:
    """Plant and observer stacked as one vector field.

    State layout: (y, z, yh, zh, thetah1, thetah2). Both blocks read the
    plant's hooks in the same arithmetic as plant.model (h(y) . theta
    written out left to right), so matched initial data with
    thetah = theta_star gives a bitwise-identical observer block (the update
    difference is exactly zero and stays zero). rhs reads the values hook
    once per block, and jac reads the derivatives hook once per block.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (plant.m,):
        raise ConfigError(f"theta_star must have shape ({plant.m},)")
    th0, th1 = theta_star.tolist()
    values, derivatives = plant.values, plant.derivatives

    def rhs(t: float, s, u: float) -> tuple[float, ...]:
        f0, g, (h0, h1), (H0, H1) = values(t, s[0], s[1], u)
        f0h, gh, (hh0, hh1), (Hh0, Hh1) = values(t, s[2], s[3], u)
        return (f0 + (h0 * th0 + h1 * th1), g, f0h + (hh0 * s[4] + hh1 * s[5]), gh,
                H0 - Hh0, H1 - Hh1)

    def jac(t: float, s, u: float) -> tuple[tuple[float, ...], ...]:
        df0, dg, (dh0, dh1), _, (hu0, hu1) = derivatives(t, s[0], s[1], u)
        df0h, dgh, (dhh0, dhh1), hh, (huh0, huh1) = derivatives(t, s[2], s[3], u)
        return (
            (df0[0] + (dh0 * th0 + dh1 * th1), df0[1], 0.0, 0.0, 0.0, 0.0),
            (*dg, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, df0h[0] + (dhh0 * s[4] + dhh1 * s[5]), df0h[1], *hh),
            (0.0, 0.0, *dgh, 0.0, 0.0),
            (hu0, 0.0, -huh0, 0.0, 0.0, 0.0),
            (hu1, 0.0, -huh1, 0.0, 0.0, 0.0),
        )

    return PlainModel(
        name=f"{plant.name}-observer",
        n=2 * plant.n + plant.m,
        rhs=rhs,
        jac=jac,
        stiffness=plant.stiffness,
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

    # runs of in-tolerance samples: first index of each, and one past its last
    ok = np.concatenate([[False], theta_error < tolerance, [False]])
    starts, stops = np.flatnonzero(np.diff(ok.astype(int))).reshape(-1, 2).T
    long = np.flatnonzero(traj.ts[stops - 1] - traj.ts[starts] >= 3.0 * period)
    converged_at = float(traj.ts[starts[long[0]]]) if long.size else None

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
    error monodromy; floquet raises PeriodMismatch when the reference does
    not close up over one period. The cross-weighted quadratic form
    W(d) = |d|^2/2 - eps * dtheta . h(y**) dy is evaluated over one period as
    a second, coordinate-level diagnostic.
    """
    n, m = plant.n, plant.m
    theta_star = np.asarray(theta_star, dtype=float)
    t0 = ref.t0
    period = ref.t1 - ref.t0
    x0 = ref.states[0]
    _, joint = floquet(coupled_system(plant, theta_star), u_signal,
                       np.concatenate([x0, x0, theta_star]), t0, period, step)
    phi = joint.phi[n:, n:]
    mono = MonodromyResult.from_phi(t0, period, phi)
    rho = mono.spectral_radius
    verdict = StabilityVerdict(stable=rho < 1.0, margin=1.0 - rho)

    h0 = np.asarray(plant.values(t0, float(x0[0]), float(x0[1]), 0.0)[2])
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
