"""System models in output normal form, plus the built-in example systems.

A NormalFormModel is a planar relative-degree-one model: its output y obeys
y' = f(t, y, z, u) and its one internal state z obeys z' = g(t, z, y). The
input enters only through f, affinely and with a uniformly sign-definite
gain, so a feedforward input realizing a desired output rate is recovered
from f(t, y, z, u) = v in closed form (NormalFormModel.f_inv), over whole
grids at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import AntiderivativeMismatch, ConfigError, GainFloorViolated
from .piecewise import GateStack, sat_poly

__all__ = [
    "VectorField",
    "NormalFormModel",
    "PlainModel",
    "InverseSystem",
    "ParameterizedPlant",
    "ConductanceParams",
    "kapitza",
    "fitzhugh_nagumo",
    "hh_conductance",
    "lorenz",
    "leaky_integrator",
    "neuron_family",
    "NEURON_M_INF",
    "NEURON_TAU",
    "NEURON_Z_INF",
    "NEURON_M_INT",
    "NEURON_GATES",
    "NEURON_UPDATE_GATES",
    "NEURON_GATE_SLOPES",
    "finite_difference_jacobian",
]


Vector = tuple[float, ...]
Rows = tuple[Vector, ...]

# Smallest |df/du| at which f_inv still inverts the output equation.
GAIN_FLOOR = 1e-8


@runtime_checkable
class VectorField(Protocol):
    """Anything the integrator can step: dimension, rhs, and a Jacobian.

    Fields are written in float form. rhs takes the state as any length-n
    sequence of floats (the integrator passes a tuple) and returns the
    derivative as a tuple of exactly n floats; jac takes the same arguments
    and returns the n rows of the Jacobian, each a tuple. The integrator steps
    Python floats, so a field never builds small arrays per call; callers
    that need an array wrap the result in np.asarray.
    """

    name: str
    n: int
    stiffness: float | None
    sample_box: tuple[tuple[float, float], ...]

    def rhs(self, t: float, state: Sequence[float], u: float) -> Vector: ...

    def jac(self, t: float, state: Sequence[float], u: float) -> Rows: ...


@dataclass(frozen=True)
class NormalFormModel:
    """Planar relative-degree-one model: output y' = f(t, y, z, u) and one
    internal state z' = g(t, z, y); the input enters through f only, and
    affinely.

    f and f_jac take y, z and u as floats or as arrays of one shape, which
    is how f_inv inverts a whole grid in one call; f_jac returns (df/dy,
    df/dz, df/du). g returns the internal drift as a float and g_jac returns
    (dg/dy, dg/dz).
    """

    n: ClassVar[int] = 2
    name: str
    f: Callable[[float, float, float, float], float]
    f_jac: Callable[[float, float, float, float], tuple[float, float, float]]
    g: Callable[[float, float, float], float]
    g_jac: Callable[[float, float, float], tuple[float, float]]
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()

    def rhs(self, t: float, state: Sequence[float], u: float) -> Vector:
        y, z = state[0], state[1]
        return (self.f(t, y, z, u), self.g(t, z, y))

    def jac(self, t: float, state: Sequence[float], u: float) -> Rows:
        y, z = state[0], state[1]
        dfy, dfz, _ = self.f_jac(t, y, z, u)
        return ((dfy, dfz), self.g_jac(t, z, y))

    def f_inv(self, t, y, z, v):
        """Solve f(t, y, z, u) = v for u, at one point or elementwise.

        t, y, z and v are floats or arrays that f and f_jac broadcast over.
        f is affine in u, so u = (v - f(t, y, z, 0)) / df/du in closed form.
        A gain |df/du| below GAIN_FLOOR raises GainFloorViolated naming the
        first time where it occurs; a residual above 1e-10 * max(1, |v|),
        which only a field that is not affine in u leaves, raises
        ArithmeticError.
        """
        _, _, g0 = self.f_jac(t, y, z, 0.0)
        f0 = self.f(t, y, z, 0.0)
        shape = np.broadcast_shapes(np.shape(t), np.shape(v), np.shape(f0), np.shape(g0))
        low = np.broadcast_to(np.abs(g0) < GAIN_FLOOR, shape)
        if low.any():
            i = tuple(np.argwhere(low)[0])
            g = np.broadcast_to(g0, shape)[i]
            raise GainFloorViolated(
                f"input gain {g:.3e} below floor {GAIN_FLOOR:.3e} "
                f"for {self.name} at t={np.broadcast_to(t, shape)[i]}"
            )
        u = np.array(np.broadcast_to((v - f0) / g0, shape))
        res = np.abs(self.f(t, y, z, u) - v)
        if not np.all(res <= 1e-10 * np.maximum(1.0, np.abs(v))):
            raise ArithmeticError(
                f"f_inv residual {np.max(res):.3e} for {self.name} exceeds "
                "1e-10 * max(1, |v|): f is not affine in u"
            )
        return u[()]


@dataclass(frozen=True)
class PlainModel:
    """A vector field given directly, for systems not kept in normal form.

    rhs and jac are the field's own callables, stored as fields and called
    without a forwarding method, and follow the float form of VectorField:
    the state comes as a float sequence, the derivative goes back as a tuple
    and the Jacobian as a tuple of rows. jac may be None for a field that is
    only ever stepped.
    """

    name: str
    n: int
    rhs: Callable[[float, Sequence[float], float], Vector]
    jac: Callable[[float, Sequence[float], float], Rows] | None
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()


def InverseSystem(model: NormalFormModel) -> PlainModel:
    """Internal dynamics of a model, driven by the output.

    The input channel of the returned field is the output y of the original
    model, so feeding a reference output simulates the stationary internal
    response used when reconstructing feedforward inputs.
    """
    g, g_jac = model.g, model.g_jac

    def rhs(t: float, z: Sequence[float], u: float) -> Vector:
        return (g(t, z[0], u),)

    def jac(t: float, z: Sequence[float], u: float) -> Rows:
        return ((g_jac(t, z[0], u)[1],),)

    return PlainModel(
        name=f"{model.name}-inverse",
        n=1,
        rhs=rhs,
        jac=jac,
        stiffness=model.stiffness,
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def kapitza(alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0) -> PlainModel:
    """Damped pendulum with torque input: ydd = -beta sin y - gamma yd + alpha u,
    stepped as the state (y, yd)."""
    if alpha == 0.0:
        raise ConfigError("alpha must be nonzero")

    def rhs(t, s, u):
        return (s[1], -beta * math.sin(s[0]) - gamma * s[1] + alpha * u)

    def jac(t, s, u):
        return ((0.0, 1.0), (-beta * math.cos(s[0]), -gamma))

    return PlainModel(
        name="kapitza",
        n=2,
        rhs=rhs,
        jac=jac,
        sample_box=((math.pi - 2.0, math.pi + 2.0), (-3.0, 3.0)),
    )


def fitzhugh_nagumo(
    alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0, eps: float = 0.1
) -> NormalFormModel:
    """Fast-slow planar relaxation model: eps yd = a y - b y^3 - c z + u, zd = -z + y."""
    if not (alpha > 0 and beta > 0 and gamma > 0 and eps > 0):
        raise ConfigError("parameters must be positive")
    if not 2.0 * alpha < 3.0 * gamma:
        warnings.warn(
            "2*alpha >= 3*gamma: the free system may not oscillate", stacklevel=2
        )

    def f(t, y, z, u):
        return (alpha * y - beta * y * y * y - gamma * z + u) / eps

    def f_jac(t, y, z, u):
        return (alpha - 3.0 * beta * y * y) / eps, -gamma / eps, 1.0 / eps

    def g(t, z, y):
        return y - z

    def g_jac(t, z, y):
        return 1.0, -1.0

    return NormalFormModel(
        name="fhn",
        f=f,
        f_jac=f_jac,
        g=g,
        g_jac=g_jac,
        stiffness=eps,
        sample_box=((-2.5, 2.5), (-1.5, 1.5)),
    )


def _tanh(x):
    """np.tanh, as a float for a scalar argument and as an array otherwise.

    math.tanh is not used: it differs from np.tanh in the last bit for some
    arguments, and the stepped field must read the same f as f_inv does over
    arrays.
    """
    v = np.tanh(x)
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class ConductanceParams:
    """Two-gate conductance membrane model parameters.

    The reversal potentials must satisfy E_s < E, V_f, V_s < E_f so the fast
    gate depolarizes and the slow gate repolarizes.
    """

    g: float = 1.0
    E: float = 0.0
    gbar_f: float = 2.0
    E_f: float = 2.0
    kappa_f: float = 5.0
    V_f: float = 0.0
    gbar_s: float = 2.0
    E_s: float = -2.0
    kappa_s: float = 5.0
    V_s: float = 0.0
    eps: float = 0.01

    def __post_init__(self) -> None:
        inner = (self.E, self.V_f, self.V_s)
        if not (self.E_s < min(inner) and max(inner) < self.E_f):
            raise ConfigError("reversal ordering E_s < E, V_f, V_s < E_f violated")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    def total_conductance(self, y, z):
        """-eps * df/dy, the instantaneous total conductance, at a point or
        elementwise over arrays of y and z."""
        t_f = _tanh(self.kappa_f * (y - self.V_f))
        t_s = _tanh(self.kappa_s * (z - self.V_s))
        return (
            self.g
            + self.gbar_f * (1.0 + t_f)
            + self.gbar_s * (1.0 + t_s)
            + self.gbar_f * self.kappa_f * (1.0 - t_f * t_f) * (y - self.E_f)
        )


def hh_conductance(params: ConductanceParams) -> NormalFormModel:
    """Conductance membrane model with first-order slow gate zd = -z + y.

    eps yd = -g (y - E) - gbar_f (1 + tanh(kappa_f (y - V_f))) (y - E_f)
    - gbar_s (1 + tanh(kappa_s (z - V_s))) (y - E_s) + u. f and f_jac take
    floats or arrays; on floats they return floats.
    """
    p = params
    g_l, E, eps = p.g, p.E, p.eps
    gbar_f, E_f, kappa_f, V_f = p.gbar_f, p.E_f, p.kappa_f, p.V_f
    gbar_s, E_s, kappa_s, V_s = p.gbar_s, p.E_s, p.kappa_s, p.V_s
    total_conductance = p.total_conductance

    def f(t, y, z, u):
        t_f = _tanh(kappa_f * (y - V_f))
        t_s = _tanh(kappa_s * (z - V_s))
        return (
            -g_l * (y - E)
            - gbar_f * (1.0 + t_f) * (y - E_f)
            - gbar_s * (1.0 + t_s) * (y - E_s)
            + u
        ) / eps

    def f_jac(t, y, z, u):
        t_s = _tanh(kappa_s * (z - V_s))
        return (
            -total_conductance(y, z) / eps,
            -(gbar_s * kappa_s * (1.0 - t_s * t_s) * (y - E_s)) / eps,
            1.0 / eps,
        )

    def g(t, z, y):
        return y - z

    def g_jac(t, z, y):
        return 1.0, -1.0

    return NormalFormModel(
        name="hh",
        f=f,
        f_jac=f_jac,
        g=g,
        g_jac=g_jac,
        stiffness=eps,
        sample_box=((-1.6, 1.6), (-1.2, 1.2)),
    )


def lorenz(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0) -> PlainModel:
    """Lorenz field with the input added to the second state equation."""

    def rhs(t, s, u):
        x1, x2, z = s
        return (sigma * (x2 - x1), x1 * (rho - z) - x2 + u, x1 * x2 - beta * z)

    def jac(t, s, u):
        x1, x2, z = s
        return ((-sigma, sigma, 0.0), (rho - z, -1.0, -x1), (x2, x1, -beta))

    return PlainModel(
        name="lorenz",
        n=3,
        rhs=rhs,
        jac=jac,
        sample_box=((-20.0, 20.0), (-25.0, 25.0), (0.0, 45.0)),
    )


def leaky_integrator(tau: float = 1.0) -> PlainModel:
    """Scalar tau zd = -z + u, the textbook fading-memory system (rate -1/tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")

    def rhs(t, s, u):
        return ((u - s[0]) / tau,)

    def jac(t, s, u):
        return ((-1.0 / tau,),)

    return PlainModel(
        name="leaky-integrator",
        n=1,
        rhs=rhs,
        jac=jac,
        sample_box=((-2.0, 2.0),),
    )


# ---------------------------------------------------------------------------
# neuron plant with unknown conductance parameters
# ---------------------------------------------------------------------------

_NEURON_EPS = 0.02
_CUBIC = tuple(c / 0.343 for c in (-2.0, 0.9, 0.6, 0.068))

NEURON_M_INF = sat_poly(0.0, 1.0, _CUBIC)
NEURON_M_INF_PRIME = NEURON_M_INF.derivative()
NEURON_TAU = sat_poly(0.2, 1.0, (-40.0, 10.2))
NEURON_TAU_PRIME = NEURON_TAU.derivative()
NEURON_Z_INF = sat_poly(0.0, 1.0, (1.0 / 0.42, 0.17 / 0.42))
NEURON_Z_INF_PRIME = NEURON_Z_INF.derivative()
# Antiderivative of m_inf(y) * (y - 1), the piece of the update antiderivative
# that cannot be written with a single polynomial.
NEURON_M_INT = NEURON_M_INF.multiply_poly((1.0, -1.0)).antiderivative()
# The gates each hook of the neuron plant reads, one lookup per call: values
# reads NEURON_GATES, update NEURON_UPDATE_GATES and derivatives
# NEURON_GATE_SLOPES. The first and last merge the same breaks: the y-levels
# where the plant's Jacobian jumps.
NEURON_GATES = GateStack(NEURON_M_INF, NEURON_TAU, NEURON_Z_INF)
NEURON_UPDATE_GATES = GateStack(NEURON_M_INT)
NEURON_GATE_SLOPES = GateStack(NEURON_M_INF, NEURON_M_INF_PRIME, NEURON_TAU,
                               NEURON_TAU_PRIME, NEURON_Z_INF, NEURON_Z_INF_PRIME)


@dataclass(frozen=True)
class ParameterizedPlant:
    """Planar relative-degree-one plant whose output equation is linear in
    m = 2 unknown parameters.

    yd = f0(t, y, z, u) + h(y) . theta, zd = g(t, z, y). Three hooks give
    the plant at one point, all floats, each returning as a flat tuple only
    what its reader uses. values(t, y, z, u, th0, th1) returns (yd, zd) at
    theta = (th0, th1), with h(y) . theta written out left to right and
    added to f0 last: what an rhs reads. update(y) returns the update
    antiderivative (H0, H1), which only the observer's parameter rows read.
    derivatives(t, y, z, u, th0, th1) returns (dyd/dy, dyd/dz, dzd/dy,
    dzd/dz, h0, h1, hu0, hu1), what a jac reads: the plant Jacobian at
    theta, the regressor h (the Jacobian's theta column) and the update
    regressor hu = dH/dy. h, hu and H depend on y alone. model(theta) is the
    plant for fixed parameters: its rhs returns the values tuple as it is,
    and its jac makes one derivatives call.

    Construction raises AntiderivativeMismatch when the centered difference
    of H (step 1e-7) misses hu by more than 1e-6 at any of 401 points
    spanning sample_box[0].
    """

    n: ClassVar[int] = 2
    m: ClassVar[int] = 2
    name: str
    values: Callable[[float, float, float, float, float, float], tuple[float, float]]
    update: Callable[[float], tuple[float, float]]
    derivatives: Callable[[float, float, float, float, float, float], Vector]
    theta_box: tuple[tuple[float, float], ...]
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        H = lambda y: np.asarray(self.update(y))
        lo, hi = self.sample_box[0]
        worst = 0.0
        for y in np.linspace(lo, hi, 401):
            fd = (H(y + 1e-7) - H(y - 1e-7)) / 2e-7
            hu = self.derivatives(0.0, y, 0.0, 0.0, 0.0, 0.0)[6:]
            worst = max(worst, float(np.max(np.abs(fd - hu))))
        if worst > 1e-6:
            raise AntiderivativeMismatch(
                f"centered difference of H deviates from h by {worst:.3e} on [{lo}, {hi}]"
            )

    def model(self, theta: np.ndarray) -> PlainModel:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.m,):
            raise ConfigError(f"theta must have shape ({self.m},)")
        th0, th1 = theta.tolist()
        values, derivatives = self.values, self.derivatives

        def rhs(t, s, u):
            return values(t, s[0], s[1], u, th0, th1)

        def jac(t, s, u):
            dyy, dyz, dzy, dzz, _, _, _, _ = derivatives(t, s[0], s[1], u, th0, th1)
            return ((dyy, dyz), (dzy, dzz))

        return PlainModel(
            name=f"{self.name}-theta",
            n=self.n,
            rhs=rhs,
            jac=jac,
            stiffness=self.stiffness,
            sample_box=self.sample_box,
        )


def neuron_family() -> ParameterizedPlant:
    """Bursting-neuron plant with two unknown conductance parameters.

    0.02 yd = -2 z (y + 0.7) + 0.15 + u - (y + 0.4, m_inf(y)(y - 1)) . theta
    tau(y) zd = -z + z_inf(y), with saturated-polynomial gates. Each hook
    reads its gates with one call of its own compiled stack: values
    NEURON_GATES, update NEURON_UPDATE_GATES and derivatives
    NEURON_GATE_SLOPES; the first and last give m_inf the same bits, so h is
    the same whichever hook reads it.
    """
    inv_eps = 1.0 / _NEURON_EPS

    def values(t, y, z, u, th0, th1):
        m, tau, z_inf = NEURON_GATES(y)
        return (
            inv_eps * (-2.0 * z * (y + 0.7) + 0.15 + u)
            + (-inv_eps * (y + 0.4) * th0 + -inv_eps * (m * (y - 1.0)) * th1),
            (z_inf - z) / tau,
        )

    def update(y):
        m_int, = NEURON_UPDATE_GATES(y)
        return -(0.5 * y**2 + 0.4 * y), -m_int

    def derivatives(t, y, z, u, th0, th1):
        m, dm, tau, dtau, z_inf, dz_inf = NEURON_GATE_SLOPES(y)
        mq = m * (y - 1.0)
        return (
            inv_eps * (-2.0 * z) + (-inv_eps * th0 + -inv_eps * (dm * (y - 1.0) + m) * th1),
            inv_eps * (-2.0 * (y + 0.7)),
            (dz_inf * tau - (z_inf - z) * dtau) / tau**2,
            -1.0 / tau,
            -inv_eps * (y + 0.4),
            -inv_eps * mq,
            -(y + 0.4),
            -mq,
        )

    return ParameterizedPlant(
        name="neuron",
        values=values,
        update=update,
        derivatives=derivatives,
        theta_box=((0.3, 0.7), (1.1, 1.9)),
        stiffness=_NEURON_EPS,
        sample_box=((-1.1, 1.1), (-0.1, 1.1)),
    )


def finite_difference_jacobian(
    model: VectorField, t: float, state: np.ndarray, u: float, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian, for checking the analytic one."""
    state = np.asarray(state, dtype=float)
    n = state.size
    J = np.empty((n, n))
    for j in range(n):
        h = rel_step * max(1.0, abs(state[j]))
        sp, sm = state.copy(), state.copy()
        sp[j] += h
        sm[j] -= h
        J[:, j] = (np.asarray(model.rhs(t, sp, u)) - np.asarray(model.rhs(t, sm, u))) / (2.0 * h)
    return J
