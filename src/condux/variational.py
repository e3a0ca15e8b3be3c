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

from .errors import (
    NoCrossings,
    NumericalBlowup,
    PeriodMismatch,
    PeriodUnstable,
    ZeroLeadingCoefficient,
)
from .integrate import Trajectory, default_step, integrate
from .models import PlainModel, VectorField, _dot
from .signals import InputSignal, Zero

__all__ = [
    "ANCHOR_TOL",
    "flow",
    "refine_periodic_orbit",
    "MonodromyResult",
    "floquet",
    "StabilityVerdict",
    "hurwitz",
    "ProbeResult",
    "contraction_probe",
]


# Largest return gap, relative to the state scale, that a declared period
# may leave between the first and last state of a window.
ANCHOR_TOL = 1e-3

# Newton steps and closure tolerance of refine_periodic_orbit.
NEWTON_ITERS = 6
NEWTON_TOL = 1e-10

# Length of the forward run whose section crossings seed an autonomous orbit.
GUESS_SPAN = 20.0


def _with_variations(model: VectorField) -> PlainModel:
    """The field (x, vec Phi) -> (f(t, x, u), vec(J(t, x, u) Phi)).

    Each entry of J Phi is the row of J times the column of Phi added left
    to right (_dot), in floats like the state.
    """
    n = model.n
    f, jac = model.rhs, model.jac

    def rhs(t: float, s, u: float) -> tuple[float, ...]:
        x = s[:n]
        cols = [s[n + j::n] for j in range(n)]
        return (*f(t, x, u), *[_dot(row, col) for row in jac(t, x, u) for col in cols])

    # jac_fn is None: the joint field is only ever stepped, never linearized.
    return PlainModel(name=model.name, n=n * (n + 1), rhs_fn=rhs, jac_fn=None,
                      stiffness=model.stiffness)


def flow(
    model: VectorField,
    signal: InputSignal | None,
    t0: float,
    t1: float,
    x0: np.ndarray,
    step: float | None = None,
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
                      np.concatenate((x0, np.eye(n).ravel())), step)
    traj = Trajectory(joint.ts, joint.states[:, :n].copy(), joint.us)
    return traj, joint.states[-1, n:].reshape(n, n)


def refine_periodic_orbit(
    model: VectorField,
    signal,
    x_guess: np.ndarray,
    t0: float,
    period: float | None = None,
    step: float | None = None,
) -> Trajectory:
    """Close a periodic orbit by Newton shooting; return one loop from t0.

    With a period (a forced orbit), x is driven to a fixed point of the map
    x -> flow over [t0, t0 + period] with I - Phi as its Jacobian, which a
    forced attracting orbit keeps nonsingular. The gap is measured on the
    integrator's own grid, so later monodromy evaluations at the same step
    agree. PeriodMismatch if the loop is not closed to NEWTON_TOL after
    NEWTON_ITERS steps.

    Without one (an autonomous orbit), the last two upward crossings of
    x[0] = 0 in a GUESS_SPAN run from x_guess give the guess (x, T); there
    must be three, as the first may lie in the transient (NoCrossings if
    there is none, else PeriodUnstable). Newton solves phi_T(x) = x with the
    phase condition x[0] = 0 on the bordered Jacobian
    [[Phi - I, f(phi_T(x))], [e1, 0]], stepping at T / k for a fixed k so
    that the map is smooth in T. PeriodUnstable if a multiplier other than
    the one nearest 1 is not inside the unit circle, and on a non-finite
    state, T <= 0, a singular solve or no convergence.
    """
    x = np.asarray(x_guess, dtype=float).copy()
    n = x.size
    free = period is None
    if free:
        traj = integrate(model, signal, t0, t0 + GUESS_SPAN, x, step)
        s = traj.states[:, 0]
        i = np.nonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))[0]
        if i.size < 3:
            raise (PeriodUnstable if i.size else NoCrossings)(
                f"only {i.size} upward crossings of x[0] = 0 in {GUESS_SPAN} time units "
                f"for {model.name}")
        tc = traj.ts[i] + s[i] / (s[i] - s[i + 1]) * (traj.ts[i + 1] - traj.ts[i])
        x, period = traj.interp_state(tc[-1]), float(tc[-1] - tc[-2])
        k = math.ceil(period / (step or default_step(model, signal or Zero(), t0, t0 + period)))
    try:
        for _ in range(NEWTON_ITERS):
            traj, phi = flow(model, signal, t0, t0 + period, x, period / k if free else step)
            gap = traj.states[-1] - x
            lhs, res = np.eye(n) - phi, gap
            if free:
                f = model.rhs(traj.t1, traj.states[-1].tolist(), float(traj.us[-1]))
                lhs = np.block([[lhs, -np.reshape(f, (n, 1))], [-np.eye(1, n), 0.0]])
                res = np.append(gap, x[0])
            if float(np.max(np.abs(res))) < NEWTON_TOL:
                if free:
                    lam = np.linalg.eigvals(phi)
                    rest = np.abs(np.delete(lam, np.argmin(np.abs(lam - 1.0))))
                    if not np.all(rest < 1.0):
                        raise PeriodUnstable(f"{model.name} orbit is not attracting: "
                                             f"multiplier {rest.max():.4g}")
                return traj
            d = np.linalg.solve(lhs, res)
            x = x + d[:n]
            if free:
                period += float(d[n])
                if not (np.isfinite(x).all() and 0.0 < period < math.inf):
                    raise PeriodUnstable(f"Newton left the {model.name} orbit (T = {period:.6g})")
    except (NumericalBlowup, np.linalg.LinAlgError) as exc:
        if not free:
            raise
        raise PeriodUnstable(f"Newton failed on the {model.name} orbit: {exc}") from exc
    if free:
        raise PeriodUnstable(f"{model.name} orbit does not close after "
                             f"{NEWTON_ITERS} Newton steps")
    traj = integrate(model, signal, t0, t0 + period, x, step)
    gap = float(np.max(np.abs(traj.states[-1] - x)))
    if gap < NEWTON_TOL:
        return traj
    raise PeriodMismatch(f"orbit does not close after {NEWTON_ITERS} Newton steps (gap {gap:.3e})")


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
    step: float | None = None,
) -> tuple[Trajectory, MonodromyResult]:
    """One period of the solution from x0 at t0 and its monodromy matrix.

    The state at t0 + period must return to x0 within ANCHOR_TOL (relative
    to the state scale), otherwise the window does not actually cover one
    period of a periodic solution and PeriodMismatch is raised.
    """
    traj, phi = flow(model, signal, t0, t0 + period, x0, step)
    a0 = traj.states[0]
    scale = max(1.0, float(np.max(np.abs(a0))))
    gap = float(np.max(np.abs(traj.states[-1] - a0)))
    if gap > ANCHOR_TOL * scale:
        raise PeriodMismatch(
            f"state moves by {gap:.3e} (scale {scale:.3g}) over the declared period"
        )
    return traj, MonodromyResult.from_phi(t0, period, phi)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability test, with a signed margin in [-1, 1]."""

    stable: bool
    margin: float


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
        return StabilityVerdict(stable=True, margin=1.0)
    width = deg // 2 + 1
    r0 = np.zeros(width)
    r1 = np.zeros(width)
    r0[: len(c[0::2])] = c[0::2]
    r1[: len(c[1::2])] = c[1::2]
    table = [r0, r1]
    for _ in range(deg - 1):
        prev, cur = table[-2], table[-1]
        if cur[0] == 0.0:
            return StabilityVerdict(stable=False, margin=0.0)
        nxt = np.zeros(width)
        nxt[:-1] = (cur[0] * prev[1:] - prev[0] * cur[1:]) / cur[0]
        table.append(nxt)
    first = np.array([row[0] for row in table])
    if np.any(first == 0.0):
        return StabilityVerdict(stable=False, margin=0.0)
    sgn = math.copysign(1.0, c[0])
    fc = first * sgn
    margin = float(np.min(fc) / np.max(np.abs(fc)))
    return StabilityVerdict(stable=bool(np.all(fc > 0.0)), margin=margin)


@dataclass(frozen=True)
class ProbeResult:
    """Two-trajectory separation fit: exponential rate and verdict."""

    rate: float
    stable: bool
    final_separation: float


def contraction_probe(
    model: VectorField,
    signal: InputSignal | None,
    ic_a: np.ndarray,
    ic_b: np.ndarray,
    t0: float,
    t1: float,
    step: float | None = None,
) -> ProbeResult:
    """Empirical contraction test: run two initial conditions under the same
    input on the same grid and fit log separation over the tail half.

    Separation that underflows to zero is treated as converged; the rate is
    then fit on the pre-underflow samples.
    """
    ta = integrate(model, signal, t0, t1, np.asarray(ic_a, dtype=float), step)
    tb = integrate(model, signal, t0, t1, np.asarray(ic_b, dtype=float), step)
    d = np.linalg.norm(ta.states - tb.states, axis=1)
    init = float(d[0])
    if init == 0.0:
        return ProbeResult(rate=0.0, stable=False, final_separation=0.0)
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
    return ProbeResult(rate=slope, stable=stable, final_separation=final)
