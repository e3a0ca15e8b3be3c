"""Adaptive observer for plants whose output equation is linear in unknown
parameters.

The observer is a copy of the plant driven by the same input, with the
parameter estimate updated through an antiderivative of the update
regressor: thetahd = H(y) - H(yh). No other output injection is used, so
parameter convergence rides entirely on the contraction induced in the
plant by the design input. The estimator state (yh, zh, thetah) embeds the
plant: freezing thetah at the true value and matching initial conditions
reproduces the plant trajectory exactly. The coupled and error fields are
written from the plant's source (PlantSource), so the integrator steps them,
and flow their transition matrices, with no hook call per stage.
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
    "error_system",
    "ObserverRun",
    "run_observer",
    "ObserverContractionResult",
    "observer_contraction_check",
]


def coupled_system(plant: ParameterizedPlant, theta_star: np.ndarray) -> PlainModel:
    """Plant and observer stacked as one vector field.

    State layout: (y, z, yh, zh, thetah1, thetah2). Its source writes the
    plant's values and update hooks twice, the plant block at theta_star and
    the observer block with its states renamed to (yh, zh) and its theta to
    thetah, so matched initial data with thetah = theta_star gives a
    bitwise-identical observer block (the update difference is exactly zero
    and stays zero). Each block reads its gates with one values and one
    update lookup, written in as their if-chains. Its jac is None: the
    coupled field is only ever stepped, and the contraction check
    linearizes error_system instead.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (plant.m,):
        raise ConfigError(f"theta_star must have shape ({plant.m},)")
    src = plant.source
    lets, (yd, zd) = src.values
    lets_h, (ydh, zdh) = src.hook("values", "_h", y="yh", z="zh", th0="thh0", th1="thh1")
    update, (H0, H1) = src.update
    update_h, (Hh0, Hh1) = src.hook("update", "_h", y="yh")
    return PlainModel(
        name=f"{plant.name}-observer",
        n=2 * plant.n + plant.m,
        rhs=None,
        jac=None,
        stiffness=plant.stiffness,
        source=src.field(("y", "z", "yh", "zh", "thh0", "thh1"),
                         (yd, zd, ydh, zdh, f"({H0}) - ({Hh0})", f"({H1}) - ({Hh1})"),
                         (*lets, *lets_h, *update, *update_h), ("th0", "th1")),
        consts=(*plant.consts, *theta_star.tolist()),
    )


def error_system(plant: ParameterizedPlant) -> PlainModel:
    """The observer block of coupled_system on its embedding, where the
    plant state equals (yh, zh), as a field of its own.

    State layout: (yh, zh, thetah1, thetah2). Its source writes the plant's
    values hook with theta read from the state, and the update H(y) - H(yh)
    as the exact 0.0 it is there; its jac is the coupled Jacobian's
    lower-right block, written from the derivatives hook: the linearization
    of the observer error, whose update rows -hu(yh) are not the derivative
    of this rhs. rhs reads its gates with one values lookup and jac with one
    derivatives lookup.
    """
    src = plant.source
    lets, (yd, zd) = src.values
    jac_lets, (dyy, dyz, dzy, dzz, h0, h1, hu0, hu1) = src.hook("derivatives", "_d")
    return PlainModel(
        name=f"{plant.name}-observer-error",
        n=plant.n + plant.m,
        rhs=None,
        jac=None,
        stiffness=plant.stiffness,
        source=src.field(("y", "z", "th0", "th1"), (yd, zd, "0.0", "0.0"), lets,
                         jac=((dyy, dyz, h0, h1),
                              (dzy, dzz, "0.0", "0.0"),
                              (f"-({hu0})", "0.0", "0.0", "0.0"),
                              (f"-({hu1})", "0.0", "0.0", "0.0")),
                         jac_lets=jac_lets),
        consts=plant.consts,
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
    the monodromy of error_system from (x, theta_star), x the reference's
    first sample: along the embedding (x, x, theta_star) the coupled
    Jacobian is block lower-triangular with error_system's Jacobian as its
    lower-right (n + m) block, so this is the lower-right block of the
    coupled system's Phi, bit for bit (the coupled Phi[:n, n:] stays +-0,
    so the terms the smaller field drops from each sum are zeros). floquet
    raises PeriodMismatch when the reference does not close up over one
    period. The cross-weighted quadratic form
    W(d) = |d|^2/2 - eps * dtheta . h(y**) dy is evaluated over one period as
    a second, coordinate-level diagnostic.
    """
    n, m = plant.n, plant.m
    theta_star = np.asarray(theta_star, dtype=float)
    t0 = ref.t0
    period = ref.t1 - ref.t0
    x0 = ref.states[0]
    _, mono = floquet(error_system(plant), u_signal, np.concatenate([x0, theta_star]),
                      t0, period, step)
    phi = mono.phi
    rho = mono.spectral_radius
    verdict = StabilityVerdict(stable=rho < 1.0, margin=1.0 - rho)

    h0 = np.asarray(plant.derivatives(t0, float(x0[0]), float(x0[1]), 0.0, 0.0, 0.0)[4:6])
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
