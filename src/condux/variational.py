"""Variational tools: transition matrices, Floquet spectra, stability tests.

The transition matrix is stepped jointly with the state: the variational
equations Phi' = J(t, x, u) Phi ride along as extra components of one vector
field through the same RK4 loop, on the same grid and with the same
tabulated inputs, so Phi converges at the state's order and fast features
resolved for the state (impulse windows, ramps, pulse edges) are resolved
for Phi too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeriodMismatch, ZeroLeadingCoefficient
from .integrate import FixedStep, Trajectory, integrate
from .models import PlainModel, VectorField
from .signals import InputSignal

__all__ = [
    "flow",
    "refine_periodic_orbit",
    "MonodromyResult",
    "floquet",
    "StabilityVerdict",
    "hurwitz",
    "ProbeResult",
    "contraction_probe",
]


def _with_variations(model: VectorField) -> PlainModel:
    """The field (x, vec Phi) -> (f(t, x, u), vec(J(t, x, u) Phi))."""
    n = model.n

    def rhs(t: float, s: np.ndarray, u: float) -> np.ndarray:
        x = s[:n]
        out = np.empty(s.size)
        out[:n] = model.rhs(t, x, u)
        out[n:] = (model.jac(t, x, u) @ s[n:].reshape(n, n)).ravel()
        return out

    # jac_fn is None: the joint field is only ever stepped, never linearized.
    return PlainModel(name=model.name, n=n * (n + 1), rhs_fn=rhs, jac_fn=None,
                      stiffness=model.stiffness)


def flow(
    model: VectorField,
    signal: InputSignal | None,
    t0: float,
    t1: float,
    x0: np.ndarray,
    policy: FixedStep | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Trajectory from x0 over [t0, t1] and its transition matrix Phi(t1, t0).

    The state columns are bit-identical to integrate(model, ...) with the
    same arguments: the grid, the inputs and the state stages do not see Phi.
    """
    n = model.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    joint = integrate(_with_variations(model), signal, t0, t1,
                      np.concatenate((x0, np.eye(n).ravel())), policy)
    traj = Trajectory(joint.ts, joint.states[:, :n].copy(), joint.us, model.state_names)
    return traj, joint.states[-1, n:].reshape(n, n)


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
        traj, phi = flow(model, signal, t0, t0 + period, x, policy)
        gap = traj.states[-1] - x
        if float(np.max(np.abs(gap))) < tol:
            return traj
        x = x + np.linalg.solve(np.eye(n) - phi, gap)
    traj = integrate(model, signal, t0, t0 + period, x, policy)
    gap = float(np.max(np.abs(traj.states[-1] - x)))
    if gap < tol:
        return traj
    raise PeriodMismatch(f"orbit does not close after {max_iters} Newton steps (gap {gap:.3e})")


@dataclass(frozen=True)
class MonodromyResult:
    """One-period transition matrix and its spectrum."""

    t0: float
    period: float
    phi: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float

    @classmethod
    def from_phi(cls, t0: float, period: float, phi: np.ndarray) -> "MonodromyResult":
        """Wrap a transition matrix with its eigenvalues as complex numbers, in
        a deterministic order: decreasing magnitude, then real part, then
        imaginary part."""
        lam = np.linalg.eigvals(phi).astype(complex)
        lam = lam[sorted(range(lam.size),
                         key=lambda i: (-abs(lam[i]), -lam[i].real, -lam[i].imag))]
        return cls(t0=float(t0), period=float(period), phi=phi, eigenvalues=lam,
                   spectral_radius=float(np.max(np.abs(lam))))

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
    signal: InputSignal | None,
    x0: np.ndarray,
    t0: float,
    period: float,
    policy: FixedStep | None = None,
    anchor_tol: float = 1e-3,
) -> tuple[Trajectory, MonodromyResult]:
    """One period of the solution from x0 at t0 and its monodromy matrix.

    The state at t0 + period must return to x0 within anchor_tol (relative
    to the state scale), otherwise the window does not actually cover one
    period of a periodic solution and PeriodMismatch is raised.
    """
    traj, phi = flow(model, signal, t0, t0 + period, x0, policy)
    a0 = traj.states[0]
    scale = max(1.0, float(np.max(np.abs(a0))))
    gap = float(np.max(np.abs(traj.states[-1] - a0)))
    if gap > anchor_tol * scale:
        raise PeriodMismatch(
            f"state moves by {gap:.3e} (scale {scale:.3g}) over the declared period"
        )
    return traj, MonodromyResult.from_phi(t0, period, phi)


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
