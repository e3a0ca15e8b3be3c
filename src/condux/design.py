"""Contraction-inducing input design and certification.

Four design routes are implemented: vibrational stabilization of a pendulum
by amplitude selection against the averaged linearization; single-impulse
trains that shrink one Floquet multiplier of a relaxation cycle; a measured
differential Lyapunov certificate for a conductance membrane model tracking
a square-wave reference; and (in the lure module) harmonic-balance gain
shaping. The common back end is feedforward reconstruction through the
inverse system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (
    InverseNotContracting,
    NoStabilizingAmplitude,
    QuadratureNonConvergence,
    RangeViolation,
    TangentDegenerate,
)
from .integrate import Trajectory
from .models import (
    ConductanceParams,
    InverseSystem,
    NormalFormModel,
    fitzhugh_nagumo,
)
from .signals import (
    SQRT_DELTA_MASS,
    CallableSignal,
    ImpulseTrain,
    InputSignal,
    PiecewiseLinear,
)
from .variational import (
    MonodromyResult,
    StabilityVerdict,
    contraction_probe,
    flow,
    hurwitz,
    refine_periodic_orbit,
)

__all__ = [
    "averaged_gain",
    "KapitzaDesign",
    "kapitza_design",
    "OutputReference",
    "FeedforwardSignal",
    "FeedforwardResult",
    "feedforward_from_reference",
    "ImpulseDesign",
    "fhn_impulse_design",
    "CertificateReport",
    "hh_certificate",
    "hh_square_reference",
    "orbit_scale",
    "lorenz_region_check",
]


def averaged_gain(M: float) -> float:
    """Period average of cos(M sin t), which controls the averaged
    linearization of the vibrated pendulum. Frequency-free: the forcing
    frequency cancels out of the average."""
    if M < 0:
        raise ValueError("amplitude must be nonnegative")
    # The integrand has period pi and is even about pi/2, so a quarter
    # period carries the whole average.
    val, err = quad(lambda tau: math.cos(M * math.sin(tau)), 0.0, 0.5 * math.pi,
                    epsabs=1e-13, limit=200)
    if err > 1e-10:
        raise QuadratureNonConvergence(f"averaged gain error estimate {err:.2e}")
    return val * 2.0 / math.pi


@dataclass(frozen=True)
class KapitzaDesign:
    """Selected amplitude, averaged-matrix verdict, and feedforward input."""

    M: float
    gain: float
    verdict: StabilityVerdict
    feedforward: InputSignal
    rejected: tuple[tuple[float, float], ...]  # (M, gain) pairs that failed


def kapitza_design(
    M_grid,
    omega: float,
    alpha: float = 1.0,
    beta: float = 1.0,
    gamma: float = 1.0,
) -> KapitzaDesign:
    """Smallest grid amplitude whose averaged linearization is Hurwitz.

    The candidate must have a negative averaged gain and make
    [[0, 1], [beta*cbar, -gamma]] Hurwitz. The returned feedforward input
    realizes y(t) = pi + M sin(omega t) exactly, by differentiating the
    sinusoid through the pendulum dynamics.
    """
    if omega < 100.0:
        warnings.warn("averaging needs omega well above the system rates", stacklevel=2)
    rejected: list[tuple[float, float]] = []
    for M in sorted(float(m) for m in M_grid):
        cbar = averaged_gain(M)
        if cbar >= 0.0:
            rejected.append((M, cbar))
            continue
        verdict = hurwitz((1.0, gamma, -beta * cbar))
        if not verdict.stable:
            rejected.append((M, cbar))
            continue

        def u_star(t, M=M):
            y = math.pi + M * np.sin(omega * t)
            yd = M * omega * np.cos(omega * t)
            ydd = -M * omega * omega * np.sin(omega * t)
            return (ydd + beta * np.sin(y) + gamma * yd) / alpha

        sig = CallableSignal(fn=u_star, angular_frequency=omega)
        return KapitzaDesign(M=M, gain=cbar, verdict=verdict, feedforward=sig,
                             rejected=tuple(rejected))
    raise NoStabilizingAmplitude(
        f"no amplitude in {sorted(M_grid)} gives a negative averaged gain with a Hurwitz matrix"
    )


@dataclass(frozen=True)
class OutputReference:
    """Reference output y**(t) of a relative-degree-one model, as one signal.

    The signal's values are y**, its derivative is v** = dy**/dt, and its
    breakpoints, refine windows and frequency are the grid hooks of every
    run that the reference or its feedforward drives. x_fn and v_fn take a
    time or an array of times: x_fn returns shape (1,) + shape(t) and v_fn
    returns shape(t).
    """

    signal: InputSignal

    def x_fn(self, t) -> np.ndarray:
        return np.array([self.signal.values(t)])

    def v_fn(self, t):
        return self.signal.derivative(t)


class FeedforwardSignal(InputSignal):
    """Input realizing a reference output, evaluated by inversion.

    u(t) = f_inv(t, y**(t), zbar(t), v**(t)); the internal response zbar is
    one stored loop of the inverse system's periodic orbit, read at
    t0 + (t - t0) mod P with t0 and P its own span and linearly interpolated.
    values tabulates y**, zbar and v** over all its times at once and
    inverts them in one f_inv call. The grid hooks are the reference
    signal's.
    """

    def __init__(self, model: NormalFormModel, ref: OutputReference, zbar: Trajectory):
        self.model = model
        self.ref = ref
        self.zbar = zbar

    def _tabulate(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """y**, zbar and v** at the times ts, each of shape (N,)."""
        z0, P = self.zbar.t0, self.zbar.t1 - self.zbar.t0
        zs = self.zbar.interp_state(z0 + (ts - z0) % P)[:, 0]
        return self.ref.signal.values(ts), zs, self.ref.v_fn(ts)

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        return self.model.f_inv(flat, *self._tabulate(flat)).reshape(ts.shape)

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        return self.ref.signal.breakpoints(t0, t1)

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        return self.ref.signal.refine_windows(t0, t1)

    def max_angular_frequency(self) -> float:
        return self.ref.signal.max_angular_frequency()


@dataclass(frozen=True)
class FeedforwardResult:
    signal: FeedforwardSignal
    zbar: Trajectory
    residual_max: float
    inverse_rate: float  # contraction rate of the inverse system


def feedforward_from_reference(
    model: NormalFormModel,
    ref: OutputReference,
    t0: float,
    period: float,
    zbar_ic: np.ndarray,
    step: float | None = None,
) -> FeedforwardResult:
    """Feedforward input that makes a periodic reference output an exact
    solution.

    Every NormalFormModel is planar with relative degree one. A contraction
    probe over [t0, t0 + max(10, period)] checks that the inverse system,
    driven by the reference output, contracts; then it has exactly one
    periodic response zbar, which refine_periodic_orbit closes from zbar_ic
    over [t0, t0 + period]. That one loop is stored and read periodically.
    """
    inverse = InverseSystem(model)
    drive = ref.signal
    ic = np.asarray(zbar_ic, dtype=float)
    probe = contraction_probe(inverse, drive, ic, ic + 0.5, t0, t0 + max(10.0, period), step)
    rate = probe.rate
    if not probe.stable or rate >= 0:
        raise InverseNotContracting(f"inverse system probe rate {rate:+.3g} for {model.name}")
    zbar = refine_periodic_orbit(inverse, drive, ic, t0, period, step)
    sig = FeedforwardSignal(model, ref, zbar)
    # Sample-wise residual audit of the inversion on the stored grid.
    ts = zbar.ts[:: max(1, zbar.ts.size // 400)]
    y, z, v = sig._tabulate(ts)
    res = float(np.max(np.abs(model.f(ts, y, z, sig.values(ts)) - v)))
    if res > 1e-8:
        raise ArithmeticError(f"feedforward residual {res:.3e} exceeds 1e-8")
    return FeedforwardResult(signal=sig, zbar=zbar, residual_max=res, inverse_rate=rate)


@dataclass(frozen=True)
class ImpulseDesign:
    """Impulse-train design output for a relaxation cycle."""

    t0: float
    eps_n: float
    train: ImpulseTrain
    predicted_monodromy: MonodromyResult
    free_window_monodromy: MonodromyResult
    tangent: np.ndarray
    cross_exponent: float  # neglected first-order cross term at the chosen anchor


def fhn_impulse_design(
    cycle: Trajectory,
    eps_fraction: float,
    alpha: float = 1.0,
    beta: float = 1.0,
    gamma: float = 1.0,
    eps: float = 0.1,
    width: float = 1e-4,
    phase_points: int = 256,
    cross_budget: float = 0.0075,
) -> ImpulseDesign:
    """Anchor instant and magnitude for a multiplier-shrinking impulse train.

    eps_n is set by eps_n^2 = eps_fraction * eps / (3 beta), keeping the
    jump factor strictly inside (0, 1). The anchor maximizes the output
    component of the cycle tangent over the first half of a grid of
    phase_points phases, restricted to phases where the neglected y* cross
    term of the squared impulse stays below cross_budget in the exponent;
    the restriction is dropped (with the maximizer over that half used)
    only if no phase qualifies.
    """
    if not 0.0 < eps_fraction < 1.0:
        raise ValueError("eps_fraction must lie in (0, 1)")
    model = fitzhugh_nagumo(alpha, beta, gamma, eps)
    period = cycle.t1 - cycle.t0
    eps_n = math.sqrt(eps_fraction * eps / (3.0 * beta))

    # FHN is odd in (y, z), so phases k and k + phase_points / 2 are mirror
    # images with equal |y'| up to rounding; only the first half is searched,
    # so that a rounding tie cannot pick the anchor.
    phases = cycle.t0 + period * np.arange(max(1, phase_points // 2)) / phase_points
    on_cycle = cycle.interp_state(phases)
    tangents = np.array(
        [model.rhs(t, s, 0.0) for t, s in zip(phases.tolist(), on_cycle)]
    )
    out_comp = np.abs(tangents[:, 0])
    if float(out_comp.max()) < 1e-8:
        raise TangentDegenerate("cycle tangent has no output component anywhere")
    # Size of the y*-proportional term dropped by the squared-impulse jump model.
    cross = ((3.0 * beta / eps) * np.abs(on_cycle[:, 0])
             * eps_n * SQRT_DELTA_MASS * math.sqrt(width))
    ok = cross <= cross_budget
    pool = np.nonzero(ok)[0] if ok.any() else np.arange(phases.size)
    k = int(pool[np.argmax(out_comp[pool])])
    t0 = float(phases[k])
    # The monodromy window is anchored just before the impulse support so the
    # jump sits inside; shift a near-anchor choice one period forward so the
    # window starts after the cycle's first sample.
    if t0 - 8.0 * width <= cycle.t0:
        t0 += period
    w0 = t0 - 8.0 * width

    train = ImpulseTrain(t0=t0, period=period, magnitude=eps_n, width=width)
    # One loop of the cycle at its own step, split at w0: by periodicity
    # Phi(w0 + T, w0) = Phi(w0, t_c) Phi(t_c + T, w0), t_c = cycle.t0.
    h = float(cycle.ts[1] - cycle.ts[0])
    lead, phi_lead = flow(model, None, cycle.t0, w0, cycle.states[0], h)
    _, phi_rest = flow(model, None, w0, cycle.t1, lead.states[-1], h)
    phi_free = phi_lead @ phi_rest
    jump = math.exp(-3.0 * beta * eps_n**2 / eps)
    predicted = phi_free @ np.diag([jump, 1.0])

    return ImpulseDesign(
        t0=t0,
        eps_n=eps_n,
        train=train,
        predicted_monodromy=MonodromyResult.from_phi(w0, period, predicted),
        free_window_monodromy=MonodromyResult.from_phi(w0, period, phi_free),
        tangent=tangents[k],
        cross_exponent=float(cross[k]),
    )


@dataclass(frozen=True)
class CertificateReport:
    """Measured differential Lyapunov certificate for a periodic reference.

    verdict is the measured inequality eps * T_hat > a_bar * tau_unstable,
    with T_hat and tau_unstable trapezoidal measures of the stable and
    growth condition sets over one period.
    """

    M_s: float
    G_tot: float
    a_bar: float
    tau_unstable: float
    T_hat: float
    epsilon: float
    period: float
    verdict: bool
    m_y_violation_measure: float
    s_max_growth: float

    def to_json_dict(self) -> dict:
        return {
            "M_s": self.M_s,
            "G_tot": self.G_tot,
            "a_bar": self.a_bar,
            "tau_unstable": self.tau_unstable,
            "T_hat": self.T_hat,
            "epsilon": self.epsilon,
            "period": self.period,
            "verdict": self.verdict,
            "m_y_violation_measure": self.m_y_violation_measure,
            "s_max_growth": self.s_max_growth,
        }


def hh_certificate(
    params: ConductanceParams,
    ref: Trajectory,
    ydot: np.ndarray,
    theta: float = 0.55,
    theta_prime: float = 0.65,
    M_y: float = 0.33,
) -> CertificateReport:
    """Evaluate the growth/stability time-measure certificate along a reference.

    The reference must stay in [E_s + theta, E_f - theta'] (checked
    strictly, RangeViolation otherwise). The output-rate premise
    |eps * yd| <= M_y enters the M_s bound; a square-wave-style reference
    deliberately breaks it during its fast ramps, so violations are
    reported as a time measure rather than rejected, and the measured
    growth-set maximum of the contraction rate is reported against a_bar.

    ydot holds the output rate at the reference samples: a designed
    reference's exact derivative, or the vector field along a free orbit.
    """
    lo, hi = params.E_s + theta, params.E_f - theta_prime
    ys, zs, ts = ref.states[:, 0], ref.states[:, 1], ref.ts
    inside = lambda v: (lo - 1e-12 <= v) & (v <= hi + 1e-12)
    out = np.nonzero(~(inside(ys) & inside(zs)))[0]
    if out.size:
        i = out[0]
        label, v = ("y", ys[i]) if not inside(ys[i]) else ("z", zs[i])
        raise RangeViolation(
            f"{label}={v:.6g} at t={ts[i]:.6g} outside [{lo:.6g}, {hi:.6g}]"
        )

    M_s = M_y / (2.0 * theta) + params.eps * params.kappa_s * (params.E_f - params.E_s)
    G_tot = (
        params.g
        + 2.0 * params.gbar_f
        + 2.0 * params.gbar_s
        + params.gbar_f * params.kappa_f * (params.E_f - params.E_s)
    )
    a_bar = M_s + G_tot

    yd = np.asarray(ydot, dtype=float)
    if yd.shape != ys.shape:
        raise ValueError("ydot must match the reference sample count")
    zd = ys - zs
    g_tot = params.total_conductance(ys, zs)
    t_s = np.tanh(params.kappa_s * (zs - params.V_s))
    # d/dt log g_s along the reference.
    dlog_gs = yd / (ys - params.E_s) - 2.0 * params.kappa_s * zd * t_s
    s = -g_tot - 0.5 * params.eps * dlog_gs

    grow = (s > 0.0).astype(float)
    stab = (s <= -params.eps).astype(float)
    tau_unstable = float(np.trapezoid(grow, ts))
    T_hat = float(np.trapezoid(stab, ts))
    my_viol = float(np.trapezoid((np.abs(params.eps * yd) > M_y).astype(float), ts))
    s_max_growth = float(np.max(s[grow > 0])) if grow.any() else float("-inf")

    return CertificateReport(
        M_s=M_s,
        G_tot=G_tot,
        a_bar=a_bar,
        tau_unstable=tau_unstable,
        T_hat=T_hat,
        epsilon=params.eps,
        period=float(ts[-1] - ts[0]),
        verdict=bool(params.eps * T_hat > a_bar * tau_unstable),
        m_y_violation_measure=my_viol,
        s_max_growth=s_max_growth,
    )


def hh_square_reference(
    T_hat: float = 5.0,
    tau: float = 0.001,
    levels: tuple[float, float, float, float] = (1.35, 0.3, -1.45, -0.5),
) -> PiecewiseLinear:
    """Square-wave-like periodic output reference: two long shallow ramps
    joined by two fast ramps of duration tau/2 each; period T_hat + tau."""
    if T_hat <= 0 or tau <= 0:
        raise ValueError("T_hat and tau must be positive")
    l1, l2, l3, l4 = levels
    T = T_hat + tau
    knots = (
        (0.0, l1),
        (T_hat / 2.0, l2),
        (T / 2.0, l3),
        ((T + T_hat) / 2.0, l4),
        (T, l1),
    )
    return PiecewiseLinear(knots=knots)


def orbit_scale(cycle: Trajectory, delta: float) -> Trajectory:
    """Scale every state component of a periodic reference by (1 + delta)."""
    return Trajectory(
        ts=cycle.ts.copy(),
        states=(1.0 + delta) * cycle.states,
        us=cycle.us.copy(),
    )


def lorenz_region_check(state, sigma: float, beta: float) -> bool:
    """Membership in the strict region |sigma + beta - z| < 2 sqrt(sigma/2),
    |x2| < 2 sqrt(sigma beta / 2) where the displayed metric contracts."""
    if sigma <= 0 or beta <= 0:
        raise ValueError("sigma and beta must be positive")
    _, x2, z = (float(v) for v in state)
    return bool(
        abs(sigma + beta - z) < 2.0 * math.sqrt(sigma / 2.0)
        and abs(x2) < 2.0 * math.sqrt(sigma * beta / 2.0)
    )
