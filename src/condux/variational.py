"""Variational tools: transition matrices, Floquet spectra, stability tests.

The state transition matrix is integrated with the same RK4 scheme as the
states themselves, stepping exactly on the stored trajectory grid so that
fast features (impulse windows, ramps) resolved there stay resolved here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeriodMismatch, ZeroLeadingCoefficient
from .integrate import FixedStep, Trajectory, integrate
from .models import VectorField
from .signals import InputSignal

__all__ = [
    "transition_matrix",
    "state_transition",
    "refine_periodic_orbit",
    "MonodromyResult",
    "floquet",
    "StabilityVerdict",
    "hurwitz",
    "ProbeResult",
    "contraction_probe",
]


def transition_matrix(A, grid: np.ndarray) -> np.ndarray:
    """Phi(grid[-1], grid[0]) for the matrix ODE Phid = A(t) Phi, stepped with
    RK4 on the given grid. A is a callable t -> square matrix."""
    grid = np.asarray(grid, dtype=float)
    phi = np.eye(A(float(grid[0])).shape[0])
    for ta, tb in zip(grid, grid[1:]):
        h = tb - ta
        a1, am, a2 = A(ta), A(ta + 0.5 * h), A(tb)
        k1 = a1 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a2 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def state_transition(
    model: VectorField, traj: Trajectory, t0: float, t1: float
) -> np.ndarray:
    """Phi(t1, t0) for the linearization along a stored trajectory.

    States between samples are linearly interpolated; the matrix ODE is
    stepped with RK4 on the trajectory's own grid restricted to [t0, t1].
    """
    if not (traj.t0 - 1e-12 <= t0 < t1 <= traj.t1 + 1e-12):
        raise ValueError("requested window leaves the trajectory span")
    inner = traj.ts[(traj.ts > t0) & (traj.ts < t1)]
    grid = np.concatenate(([t0], inner, [t1]))

    def A(t: float) -> np.ndarray:
        u = float(np.interp(t, traj.ts, traj.us))
        return model.jac(t, traj.interp_state(t), u)

    return transition_matrix(A, grid)


def refine_periodic_orbit(
    model: VectorField,
    signal,
    x_guess: np.ndarray,
    t0: float,
    period: float,
    policy=None,
    max_iters: int = 6,
    tol: float = 1e-10,
) -> Trajectory:
    """Newton-polish a period-1 point of the known-period return map.

    Drives x toward a fixed point of x -> flow over [t0, t0 + period] using
    the monodromy matrix as the map Jacobian, then returns the closed loop.
    Requires I - Phi nonsingular, i.e. no Floquet multiplier at +1, which a
    forced attracting orbit satisfies.  The closure gap is measured on the
    integrator's own grid, so the result is consistent with later monodromy
    evaluations at the same step policy. Raises PeriodMismatch when the loop
    still does not close within tol after max_iters Newton steps.
    """
    x = np.asarray(x_guess, dtype=float).copy()
    n = x.size
    for _ in range(max_iters):
        traj = integrate(model, signal, t0, t0 + period, x, policy)
        gap = traj.states[-1] - x
        if float(np.max(np.abs(gap))) < tol:
            return traj
        phi = state_transition(model, traj, t0, t0 + period)
        x = x + np.linalg.solve(np.eye(n) - phi, gap)
    traj = integrate(model, signal, t0, t0 + period, x, policy)
    gap = float(np.max(np.abs(traj.states[-1] - x)))
    if gap < tol:
        return traj
    raise PeriodMismatch(f"orbit does not close after {max_iters} Newton steps (gap {gap:.3e})")


def _spectrum(phi: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real matrix as complex numbers, in a deterministic
    order: decreasing magnitude, then real part, then imaginary part."""
    lam = np.linalg.eigvals(phi).astype(complex)
    order = sorted(range(lam.size), key=lambda i: (-abs(lam[i]), -lam[i].real, -lam[i].imag))
    return lam[order]


@dataclass(frozen=True)
class MonodromyResult:
    """One-period transition matrix and its spectrum."""

    t0: float
    period: float
    phi: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float

    def to_json_dict(self) -> dict:
        return {
            "t0": self.t0,
            "period": self.period,
            "phi": [float(x) for x in self.phi.ravel()],
            "eigenvalues": [[float(l.real), float(l.imag)] for l in self.eigenvalues],
            "spectral_radius": self.spectral_radius,
        }


def floquet(
    model: VectorField,
    traj: Trajectory,
    t0: float | None = None,
    period: float | None = None,
    anchor_tol: float = 1e-3,
) -> MonodromyResult:
    """Monodromy matrix over one period of a stored periodic trajectory.

    The state at t0 + period must return to the anchor within anchor_tol
    (relative to the state scale), otherwise the window does not actually
    cover one period of a periodic solution and PeriodMismatch is raised.
    """
    if t0 is None:
        t0 = traj.t0
    if period is None:
        period = traj.t1 - t0
    a0 = traj.interp_state(t0)
    a1 = traj.interp_state(t0 + period)
    scale = max(1.0, float(np.max(np.abs(a0))))
    gap = float(np.max(np.abs(a1 - a0)))
    if gap > anchor_tol * scale:
        raise PeriodMismatch(
            f"state moves by {gap:.3e} (scale {scale:.3g}) over the declared period"
        )
    phi = state_transition(model, traj, t0, t0 + period)
    lam = _spectrum(phi)
    return MonodromyResult(
        t0=float(t0),
        period=float(period),
        phi=phi,
        eigenvalues=lam,
        spectral_radius=float(np.max(np.abs(lam))),
    )


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability test, with a signed margin in [-1, 1]."""

    stable: bool
    margin: float
    method: str


def hurwitz(coeffs) -> StabilityVerdict:
    """Routh test on a real polynomial (descending coefficients).

    margin is min(first column) / max|first column| after normalizing the
    leading sign, so +1 is comfortably stable and any negative value is
    unstable. An exact zero pivot is reported as marginal (not stable).
    """
    c = [float(x) for x in coeffs]
    if not c or c[0] == 0.0:
        raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
    deg = len(c) - 1
    if deg == 0:
        return StabilityVerdict(stable=True, margin=1.0, method="routh")
    width = deg // 2 + 1
    r0 = np.zeros(width)
    r1 = np.zeros(width)
    r0[: len(c[0::2])] = c[0::2]
    r1[: len(c[1::2])] = c[1::2]
    table = [r0, r1]
    for _ in range(deg - 1):
        prev, cur = table[-2], table[-1]
        if cur[0] == 0.0:
            return StabilityVerdict(stable=False, margin=0.0, method="routh")
        nxt = np.zeros(width)
        nxt[:-1] = (cur[0] * prev[1:] - prev[0] * cur[1:]) / cur[0]
        table.append(nxt)
    first = np.array([row[0] for row in table])
    if np.any(first == 0.0):
        return StabilityVerdict(stable=False, margin=0.0, method="routh")
    sgn = math.copysign(1.0, c[0])
    fc = first * sgn
    margin = float(np.min(fc) / np.max(np.abs(fc)))
    return StabilityVerdict(stable=bool(np.all(fc > 0.0)), margin=margin, method="routh")


@dataclass(frozen=True)
class ProbeResult:
    """Two-trajectory separation fit: exponential rate and verdict."""

    rate: float
    stable: bool
    initial_separation: float
    final_separation: float


def contraction_probe(
    model: VectorField,
    signal: InputSignal | None,
    ic_a: np.ndarray,
    ic_b: np.ndarray,
    t0: float,
    t1: float,
    policy: FixedStep | None = None,
) -> ProbeResult:
    """Empirical contraction test: run two initial conditions under the same
    input on the same grid and fit log separation over the tail half.

    Separation that underflows to zero is treated as converged; the rate is
    then fit on the pre-underflow samples.
    """
    ta = integrate(model, signal, t0, t1, np.asarray(ic_a, dtype=float), policy)
    tb = integrate(model, signal, t0, t1, np.asarray(ic_b, dtype=float), policy)
    d = np.linalg.norm(ta.states - tb.states, axis=1)
    init = float(d[0])
    if init == 0.0:
        return ProbeResult(rate=0.0, stable=False, initial_separation=0.0, final_separation=0.0)
    alive = np.nonzero(d > 1e-280)[0]
    end = alive[-1] + 1 if alive.size else 1
    underflowed = end < d.size
    ts = ta.ts[:end]
    dv = d[:end]
    lo = end // 2
    slope = float(np.polyfit(ts[lo:end], np.log(dv[lo:end]), 1)[0]) if end - lo >= 2 else 0.0
    final = float(d[-1])
    if underflowed:
        stable = slope < 0.0
    else:
        stable = slope < 0.0 and final < init * 1e-3
    return ProbeResult(
        rate=slope, stable=stable, initial_separation=init, final_separation=final
    )
