"""Harmonic balance for Lure feedback loops.

A linear plant P = num/den in negative feedback with a static nonlinearity
h(y) is approximated by replacing h with the first-harmonic gain p + q s at
a candidate oscillation (M, omega). The same balance is then run backwards:
given the target sinusoidal output, reconstruct the input that makes it an
exact solution of the nonlinear loop, compensating the full h rather than
its first harmonic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureNonConvergence, ZeroResponse
from .models import PlainModel
from .signals import CallableSignal
from .variational import StabilityVerdict, hurwitz

__all__ = [
    "CHUA_NUM",
    "CHUA_DEN",
    "CHUA_KINKS",
    "chua_nonlinearity",
    "chua_nonlinearity_slope",
    "chua_linearization",
    "chua_system",
    "DescribingFunctionResult",
    "describing_function",
    "chua_closed_form",
    "lure_stability",
    "lure_input_reconstruct",
]

# Chua-type oscillator in feedback canonical coordinates.
CHUA_A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-24.5, -3.5, -7.35]])
CHUA_B = np.array([0.0, 0.0, 1.0])
CHUA_C = np.array([35.0, 3.5, 10.0])
CHUA_NUM = (2.0, 0.7, 7.0)
CHUA_DEN = (0.2, 1.47, 0.7, 4.9)
CHUA_KINKS = (-1.0, 1.0)


def chua_nonlinearity(y: float) -> float:
    """Odd piecewise-linear feedback: slope -4 inside |y| <= 1, -0.1 outside."""
    if y > 1.0:
        return -4.0 - 0.1 * (y - 1.0)
    if y < -1.0:
        return 4.0 - 0.1 * (y + 1.0)
    return -4.0 * y


def chua_nonlinearity_slope(y: float) -> float:
    return -4.0 if -1.0 < y <= 1.0 else -0.1


_A_ROWS = tuple(map(tuple, CHUA_A.tolist()))
_B = tuple(CHUA_B.tolist())
_C = tuple(CHUA_C.tolist())
# Rows of A - slope B C for the two slopes of the nonlinearity.
_JAC_ROWS = {
    slope: tuple(map(tuple, (CHUA_A - slope * np.outer(CHUA_B, CHUA_C)).tolist()))
    for slope in (-4.0, -0.1)
}


def chua_linearization(y: float) -> tuple[tuple[float, ...], ...]:
    """Rows of A - h'(y) B C, the loop's Jacobian at output y."""
    return _JAC_ROWS[chua_nonlinearity_slope(y)]


def chua_system() -> PlainModel:
    """State-space realization xdot = A x + B (u - h(C x)), y = C x."""

    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = _A_ROWS
    b0, b1, b2 = _B
    c0, c1, c2 = _C

    def rhs(t: float, s, u: float) -> tuple[float, ...]:
        x0, x1, x2 = s
        w = u - chua_nonlinearity(c0 * x0 + c1 * x1 + c2 * x2)
        return (a00 * x0 + a01 * x1 + a02 * x2 + b0 * w,
                a10 * x0 + a11 * x1 + a12 * x2 + b1 * w,
                a20 * x0 + a21 * x1 + a22 * x2 + b2 * w)

    def jac(t: float, s, u: float) -> tuple[tuple[float, ...], ...]:
        return chua_linearization(c0 * s[0] + c1 * s[1] + c2 * s[2])

    return PlainModel(
        name="chua",
        n=3,
        rhs=rhs,
        jac=jac,
        sample_box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    )


@dataclass(frozen=True)
class DescribingFunctionResult:
    """First-harmonic gains at a candidate oscillation."""

    p: float
    q: float
    M: float
    omega: float


def _harmonic_integrals(
    h: Callable[[float], float], M: float, kinks: Sequence[float]
) -> tuple[float, float, float]:
    """(int h(M sin psi) sin psi, int h(M sin psi) cos psi, error estimate)
    over one cycle."""
    from scipy.integrate import IntegrationWarning, quad

    pts = set()
    for y0 in kinks:
        c = y0 / M
        if -1.0 < c < 1.0:
            base = math.asin(c)
            for psi in (base % (2 * math.pi), (math.pi - base) % (2 * math.pi)):
                if 0.0 < psi < 2.0 * math.pi:
                    pts.add(psi)
    points = sorted(pts) or None

    out, errs = [], []
    for trig in (math.sin, math.cos):
        with warnings.catch_warnings():
            # the caller gates err itself; quad's roundoff advisory is
            # redundant with that check
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(
                lambda psi: h(M * math.sin(psi)) * trig(psi),
                0.0,
                2.0 * math.pi,
                points=points,
                epsabs=1e-12,
                epsrel=1e-10,
                limit=200,
            )
        out.append(val)
        errs.append(err)
    return out[0], out[1], max(errs)


def describing_function(
    h: Callable[[float], float],
    M: float,
    omega: float,
    kinks: Sequence[float] = (),
) -> DescribingFunctionResult:
    """First-harmonic gains of h at amplitude M and frequency omega by
    quadrature. Kink ordinates of h, if supplied, become quadrature panel
    boundaries at their phase preimages.

    The in-phase and quadrature gains are scaled by 1/omega and 1/omega**2
    respectively (the p + q*s replacement applies an extra derivative to
    the quadrature channel).
    """
    if M <= 0 or omega <= 0:
        raise ValueError("M and omega must be positive")
    i_s, i_c, err = _harmonic_integrals(h, M, kinks)
    p = i_s / (math.pi * M * omega)
    q = i_c / (math.pi * M * omega**2)
    # gate the error against the larger of the gain scale and the integral
    # magnitudes, so strong nonlinearities are judged relatively
    scale = max(math.pi * M * min(1.0, omega), abs(i_s), abs(i_c))
    if err / scale > 1e-9:
        raise QuadratureNonConvergence(
            f"first-harmonic gain error estimate {err / scale:.2e}"
        )
    return DescribingFunctionResult(p=p, q=q, M=M, omega=omega)


def chua_closed_form(M: float, omega: float) -> DescribingFunctionResult:
    """Closed-form in-phase gain for the Chua nonlinearity (inner-slope
    contribution only; the small outer slope is not folded in, so this and
    the quadrature route differ by roughly the outer slope over omega)."""
    if M <= 0 or omega <= 0:
        raise ValueError("M and omega must be positive")
    if M <= 1.0:
        p = -4.0 / omega
    else:
        p = -(7.8 / (math.pi * omega)) * (
            math.asin(1.0 / M) + math.sqrt(1.0 / M**2 - 1.0 / M**4)
        )
    return DescribingFunctionResult(p=p, q=0.0, M=M, omega=omega)


def lure_stability(
    num: Sequence[float], den: Sequence[float], p: float
) -> StabilityVerdict:
    """Hurwitz verdict for den + p num, the loop with h replaced by the
    constant gain p (an odd h has no quadrature gain)."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if num.size > den.size:
        raise ValueError("plant must be proper (deg num <= deg den)")
    closed = np.trim_zeros(np.polyadd(den, p * num), "f")
    if closed.size == 0:
        closed = np.array([0.0])
    return hurwitz(tuple(closed))


def lure_input_reconstruct(
    num: Sequence[float],
    den: Sequence[float],
    df: DescribingFunctionResult,
    h: Callable[[float], float],
) -> tuple[CallableSignal, float, float]:
    """Input making y = M sin(omega t) an exact solution of the loop, with
    M, omega and the in-phase gain p read from df; returns (signal, D, theta).

    u(t) = D sin(omega t + theta) + h(M sin(omega t)) - p M sin(omega t).
    The first term drives the loop with h replaced by the gain p to the
    target output, G = P / (1 + p P) at s = j omega, D = M / |G|,
    theta = -arg G; the last two swap that gain back out for the true
    nonlinearity, making the sinusoid an exact solution of the nonlinear
    loop. The p-dependent terms cancel, so the closed-form and the
    quadrature gain give one drive.
    """
    M, omega, p = df.M, df.omega, df.p
    s = 1j * omega
    P = np.polyval(num, s) / np.polyval(den, s)
    G = P / (1.0 + P * p)
    mag = abs(G)
    if mag < 1e-12:
        raise ZeroResponse(f"loop gain {mag:.3e} at omega={omega} cannot be inverted")
    D, theta = M / mag, -math.atan2(G.imag, G.real)
    hv = np.vectorize(h, otypes=[float])

    def u(ts):
        y = M * np.sin(omega * ts)
        return D * np.sin(omega * ts + theta) + hv(y) - p * y

    return CallableSignal(fn=u, angular_frequency=abs(omega)), D, theta
