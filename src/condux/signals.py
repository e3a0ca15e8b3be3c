"""Input signals with enough structure for deterministic fixed-grid integration.

Every signal knows its discontinuity instants (``breakpoints``) and the
intervals where it varies fast (``refine_windows``), so the integrator can
align steps with jumps and cap the step size inside narrow features instead
of guessing a global step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InputSignal",
    "Zero",
    "Constant",
    "Sinusoid",
    "ImpulseTrain",
    "SquarePulseTrain",
    "PiecewiseLinear",
    "Sum",
    "CallableSignal",
    "SQRT_DELTA_MASS",
]

# Integral of the square-root-of-Gaussian bump with unit L2 mass:
# int (a*sqrt(pi))**(-1/2) * exp(-x**2/(2 a**2)) dx = sqrt(2) * pi**(1/4) * sqrt(a).
SQRT_DELTA_MASS = math.sqrt(2.0) * math.pi ** 0.25


class InputSignal:
    """Scalar signal u(t). Subclasses override the hooks they need."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; the default just loops."""
        return np.array([self.value(float(t)) for t in np.asarray(ts).ravel()])

    def derivative(self, t: float, order: int = 1) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no derivative rule")

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        """Discontinuity instants inside [t0, t1]; the grid lands on these exactly."""
        return []

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        """(lo, hi, step_cap) triples where the integrator must refine."""
        return []

    def max_angular_frequency(self) -> float:
        """Fastest sustained angular rate, 0 if the signal is not oscillatory."""
        return 0.0


@dataclass(frozen=True)
class Zero(InputSignal):
    """u(t) = 0."""

    def value(self, t: float) -> float:
        return 0.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(ts, dtype=float))

    def derivative(self, t: float, order: int = 1) -> float:
        return 0.0


@dataclass(frozen=True)
class Constant(InputSignal):
    """u(t) = level."""

    level: float

    def value(self, t: float) -> float:
        return self.level

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(ts, dtype=float), self.level)

    def derivative(self, t: float, order: int = 1) -> float:
        return 0.0


@dataclass(frozen=True)
class Sinusoid(InputSignal):
    """u(t) = offset + amplitude * sin(omega * t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(self.omega * t + self.phase)

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.offset + self.amplitude * np.sin(self.omega * ts + self.phase)

    def derivative(self, t: float, order: int = 1) -> float:
        # d/dt shifts the phase by pi/2 and multiplies by omega.
        return (
            self.amplitude
            * self.omega**order
            * math.sin(self.omega * t + self.phase + order * math.pi / 2.0)
        )

    def max_angular_frequency(self) -> float:
        return abs(self.omega)


@dataclass(frozen=True)
class ImpulseTrain(InputSignal):
    """Train of narrow bumps at t0 + n*period, n = 0, 1, 2, ...

    kind "sqrt-delta" uses the square root of a normalized Gaussian, which has
    unit L2 mass for every width; kind "delta" uses the normalized Gaussian
    itself. magnitudes cycles if the train is longer than the list.
    """

    t0: float
    period: float
    magnitudes: tuple[float, ...]
    width: float = 1e-4
    kind: str = "sqrt-delta"
    support_radius: float = 8.0  # bump is treated as zero beyond this many widths

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.kind not in ("sqrt-delta", "delta"):
            raise ValueError(f"unknown impulse kind {self.kind!r}")
        if not self.magnitudes:
            raise ValueError("magnitudes must be non-empty")

    def _bump(self, x: np.ndarray) -> np.ndarray:
        a = self.width
        if self.kind == "sqrt-delta":
            return (a * math.sqrt(math.pi)) ** -0.5 * np.exp(-(x**2) / (2.0 * a**2))
        return np.exp(-((x / a) ** 2)) / (a * math.sqrt(math.pi))

    def _centers(self, lo: float, hi: float) -> range:
        r = self.support_radius * self.width
        n_lo = max(0, math.floor((lo - self.t0 - r) / self.period))
        n_hi = max(n_lo - 1, math.ceil((hi - self.t0 + r) / self.period))
        return range(n_lo, n_hi + 1)

    def value(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        if ts.size == 0:
            return out
        for n in self._centers(float(ts.min()), float(ts.max())):
            c = self.t0 + n * self.period
            x = ts - c
            mask = np.abs(x) <= self.support_radius * self.width
            if mask.any():
                eps = self.magnitudes[n % len(self.magnitudes)]
                out[mask] += eps * self._bump(x[mask])
        return out

    def derivative(self, t: float, order: int = 1) -> float:
        if order not in (1, 2):
            raise NotImplementedError("impulse derivatives only up to order 2")
        a = self.width
        # For the Gaussian kind the exponent is -(x/a)^2, twice as steep.
        s = 2.0 * a**2 if self.kind == "sqrt-delta" else a**2
        total = 0.0
        for n in self._centers(t, t):
            c = self.t0 + n * self.period
            x = t - c
            if abs(x) > self.support_radius * a:
                continue
            eps = self.magnitudes[n % len(self.magnitudes)]
            v = eps * float(self._bump(np.array([x]))[0])
            if order == 1:
                total += v * (-2.0 * x / s)
            else:
                total += v * ((2.0 * x / s) ** 2 - 2.0 / s)
        return total

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        r = self.support_radius * self.width
        cap = self.width / 10.0
        out = []
        for n in self._centers(t0, t1):
            c = self.t0 + n * self.period
            if c + r >= t0 and c - r <= t1:
                out.append((c - r, c + r, cap))
        return out


@dataclass(frozen=True)
class SquarePulseTrain(InputSignal):
    """Rectangular pulses: magnitude on [start + n*period, ... + duration), else baseline."""

    magnitude: float
    duration: float
    period: float
    start: float = 0.0
    baseline: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.duration <= self.period:
            raise ValueError("need 0 < duration <= period")

    def value(self, t: float) -> float:
        phase = (t - self.start) % self.period
        if t < self.start:
            return self.baseline
        return self.magnitude if phase < self.duration else self.baseline

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        phase = (ts - self.start) % self.period
        on = (phase < self.duration) & (ts >= self.start)
        return np.where(on, self.magnitude, self.baseline)

    def derivative(self, t: float, order: int = 1) -> float:
        return 0.0  # piecewise constant; jumps are handled by breakpoints

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        out = []
        n = max(0, math.floor((t0 - self.start) / self.period) - 1)
        while True:
            rise = self.start + n * self.period
            if rise > t1:
                break
            for edge in (rise, rise + self.duration):
                if t0 <= edge <= t1:
                    out.append(edge)
            n += 1
        return out

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        # Resolve each pulse with at least a few steps.
        cap = self.duration / 4.0
        out = []
        n = max(0, math.floor((t0 - self.start) / self.period) - 1)
        while True:
            rise = self.start + n * self.period
            if rise > t1:
                break
            if rise + self.duration >= t0:
                out.append((max(rise, t0), min(rise + self.duration, t1), cap))
            n += 1
        return out

    def max_angular_frequency(self) -> float:
        return 2.0 * math.pi / self.period


@dataclass(frozen=True)
class PiecewiseLinear(InputSignal):
    """Linear interpolation through knots, optionally repeated periodically.

    At a knot time the value and slope come from the segment to the right;
    for a periodic signal the pattern wraps with period knots[-1] - knots[0].
    """

    knots: tuple[tuple[float, float], ...]
    periodic: bool = False

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        ts = [k[0] for k in self.knots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot times must be strictly increasing")

    @property
    def period(self) -> float:
        return self.knots[-1][0] - self.knots[0][0]

    def _locate(self, t: float) -> tuple[int, float]:
        ts = [k[0] for k in self.knots]
        if self.periodic:
            tau = ts[0] + (t - ts[0]) % self.period
        else:
            tau = min(max(t, ts[0]), ts[-1])
        i = int(np.searchsorted(ts, tau, side="right")) - 1
        i = min(max(i, 0), len(ts) - 2)
        return i, tau

    def _slope(self, i: int) -> float:
        (ta, va), (tb, vb) = self.knots[i], self.knots[i + 1]
        return (vb - va) / (tb - ta)

    def value(self, t: float) -> float:
        i, tau = self._locate(t)
        ta, va = self.knots[i]
        return va + self._slope(i) * (tau - ta)

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.value(float(t)) for t in np.asarray(ts).ravel()])

    def derivative(self, t: float, order: int = 1) -> float:
        if order > 1:
            return 0.0
        i, _ = self._locate(t)
        return self._slope(i)

    def _unfolded_knot_times(self, t0: float, t1: float) -> list[float]:
        base = [k[0] for k in self.knots]
        if not self.periodic:
            return [t for t in base if t0 <= t <= t1]
        out = []
        n = math.floor((t0 - base[0]) / self.period) - 1
        while base[0] + n * self.period <= t1:
            for tk in base[:-1]:  # last knot aliases the first of the next cycle
                t = tk + n * self.period
                if t0 <= t <= t1:
                    out.append(t)
            n += 1
        return sorted(out)

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        return self._unfolded_knot_times(t0, t1)

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        # Cap the step at a quarter of each segment so short ramps are resolved.
        edges = self._unfolded_knot_times(t0 - self.period if self.periodic else t0, t1)
        out = []
        for a, b in zip(edges, edges[1:]):
            if b >= t0 and a <= t1:
                out.append((max(a, t0), min(b, t1), (b - a) / 4.0))
        return out

    def max_angular_frequency(self) -> float:
        return 2.0 * math.pi / self.period if self.periodic else 0.0


@dataclass(frozen=True)
class Sum(InputSignal):
    """Pointwise sum of component signals."""

    components: tuple[InputSignal, ...]

    def value(self, t: float) -> float:
        return sum(c.value(t) for c in self.components)

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        for c in self.components:
            out += c.values(ts)
        return out

    def derivative(self, t: float, order: int = 1) -> float:
        return sum(c.derivative(t, order) for c in self.components)

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        out: list[float] = []
        for c in self.components:
            out.extend(c.breakpoints(t0, t1))
        return sorted(set(out))

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        out: list[tuple[float, float, float]] = []
        for c in self.components:
            out.extend(c.refine_windows(t0, t1))
        return out

    def max_angular_frequency(self) -> float:
        return max((c.max_angular_frequency() for c in self.components), default=0.0)


@dataclass(frozen=True)
class CallableSignal(InputSignal):
    """Escape hatch wrapping an arbitrary function. Not serializable."""

    fn: Callable[[float], float]
    dfn: Callable[[float, int], float] | None = None
    breakpoints_fn: Callable[[float, float], Sequence[float]] | None = None
    windows_fn: Callable[[float, float], Sequence[tuple[float, float, float]]] | None = None
    angular_frequency: float = 0.0
    label: str = "callable"

    def value(self, t: float) -> float:
        return float(self.fn(t))

    def derivative(self, t: float, order: int = 1) -> float:
        if self.dfn is None:
            raise NotImplementedError(f"{self.label} has no derivative rule")
        return float(self.dfn(t, order))

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        if self.breakpoints_fn is None:
            return []
        return list(self.breakpoints_fn(t0, t1))

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        if self.windows_fn is None:
            return []
        return list(self.windows_fn(t0, t1))

    def max_angular_frequency(self) -> float:
        return self.angular_frequency
