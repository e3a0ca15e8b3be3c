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
from scipy.integrate import IntegrationWarning, quad

from .errors import QuadratureNonConvergence, ZeroResponse
from .models import PlainModel, _dot
from .signals import InputSignal
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
    "LureFeedforward",
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

    def rhs(t: float, s, u: float) -> tuple[float, ...]:
        w = u - chua_nonlinearity(_dot(_C, s))
        return tuple(_dot(row, s) + b * w for row, b in zip(_A_ROWS, _B))

    def jac(t: float, s, u: float) -> tuple[tuple[float, ...], ...]:
        return chua_linearization(_dot(_C, s))

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
    num: Sequence[float], den: Sequence[float], df: DescribingFunctionResult
) -> StabilityVerdict:
    """Hurwitz verdict for den + (p + q s) num, the loop with h replaced by
    its first-harmonic gain."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if num.size > den.size:
        raise ValueError("plant must be proper (deg num <= deg den)")
    closed = np.polyadd(den, np.polyadd(df.p * num, np.polymul([df.q, 0.0], num)))
    closed = np.trim_zeros(closed, "f")
    if closed.size == 0:
        closed = np.array([0.0])
    return hurwitz(tuple(closed))


class LureFeedforward(InputSignal):
    """u(t) = D sin(omega t + theta) + h(M sin(omega t)) - p M sin(omega t).

    The first term drives the describing-function loop to the target output;
    the last two swap the first-harmonic gain back out for the true
    nonlinearity, making the sinusoid an exact solution of the nonlinear loop.
    """

    def __init__(self, D: float, theta: float, M: float, omega: float, p: float,
                 h: Callable[[float], float]):
        self.D = D
        self.theta = theta
        self.M = M
        self.omega = omega
        self.p = p
        self.h = h

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        y = self.M * np.sin(self.omega * ts)
        hv = np.vectorize(self.h, otypes=[float])(y)
        return self.D * np.sin(self.omega * ts + self.theta) + hv - self.p * y

    def max_angular_frequency(self) -> float:
        return abs(self.omega)


def lure_input_reconstruct(
    num: Sequence[float],
    den: Sequence[float],
    df: DescribingFunctionResult,
    M: float,
    omega: float,
    h: Callable[[float], float],
) -> LureFeedforward:
    """Input making y = M sin(omega t) an exact solution of the loop.

    D and theta come from the linearized loop with gain p + q s:
    G = P / (1 + P (p + q s)) evaluated at s = j omega, D = M / |G|,
    theta = -arg G. The returned signal then compensates h exactly, so the
    construction does not depend on the value of df.p (the p-dependent
    terms cancel): the closed-form and the quadrature gain give one drive.
    """
    s = 1j * omega
    P = np.polyval(num, s) / np.polyval(den, s)
    G = P / (1.0 + P * (df.p + df.q * s))
    mag = abs(G)
    if mag < 1e-12:
        raise ZeroResponse(f"loop gain {mag:.3e} at omega={omega} cannot be inverted")
    return LureFeedforward(
        D=M / mag, theta=-math.atan2(G.imag, G.real), M=M, omega=omega, p=df.p, h=h
    )
