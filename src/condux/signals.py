"""Input signals with enough structure for deterministic fixed-grid integration.

Every signal knows its discontinuity instants (``breakpoints``) and the
intervals where it varies fast (``refine_windows``), so the integrator can
align steps with jumps and cap the step size inside narrow features instead
of guessing a global step.

``values`` and ``derivative`` take a time or an array of times of any shape
and answer with the same shape, so a whole grid is tabulated in one numpy
call; ``value(t)`` is ``float(values(t))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "InputSignal",
    "Constant",
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

# An impulse bump is treated as zero beyond this many widths from its center.
_SUPPORT_WIDTHS = 8.0


class InputSignal:
    """Scalar signal u(t). Subclasses implement values and override the
    hooks they need."""

    def value(self, t: float) -> float:
        return float(self.values(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t):
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
class Constant(InputSignal):
    """u(t) = level."""

    level: float

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(ts, dtype=float), self.level)


@dataclass(frozen=True)
class ImpulseTrain(InputSignal):
    """Train of narrow bumps at t0 + n*period, n = 0, 1, 2, ...

    Each bump is magnitude times the square root of a normalized Gaussian,
    which has unit L2 mass for every width.
    """

    t0: float
    period: float
    magnitude: float
    width: float = 1e-4

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")

    def _bump(self, x: np.ndarray) -> np.ndarray:
        a = self.width
        return (a * math.sqrt(math.pi)) ** -0.5 * np.exp(-(x**2) / (2.0 * a**2))

    def _centers(self, lo: float, hi: float) -> range:
        r = _SUPPORT_WIDTHS * self.width
        n_lo = max(0, math.floor((lo - self.t0 - r) / self.period))
        n_hi = max(n_lo - 1, math.ceil((hi - self.t0 + r) / self.period))
        return range(n_lo, n_hi + 1)

    def _sum_bumps(self, t, weight: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Sum over the train of weight(magnitude * bump(x), x), x = t - center_n."""
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        out = np.zeros_like(flat)
        if flat.size == 0:
            return out.reshape(ts.shape)
        for n in self._centers(float(flat.min()), float(flat.max())):
            c = self.t0 + n * self.period
            x = flat - c
            mask = np.abs(x) <= _SUPPORT_WIDTHS * self.width
            if mask.any():
                out[mask] += weight(self.magnitude * self._bump(x[mask]), x[mask])
        return out.reshape(ts.shape)

    def values(self, ts: np.ndarray) -> np.ndarray:
        return self._sum_bumps(ts, lambda v, x: v)

    def derivative(self, t):
        s = 2.0 * self.width**2
        return self._sum_bumps(t, lambda v, x: v * (-2.0 * x / s))[()]

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        r = _SUPPORT_WIDTHS * self.width
        cap = self.width / 10.0
        out = []
        for n in self._centers(t0, t1):
            c = self.t0 + n * self.period
            if c + r >= t0 and c - r <= t1:
                out.append((c - r, c + r, cap))
        return out


@dataclass(frozen=True)
class SquarePulseTrain(InputSignal):
    """Rectangular pulses: magnitude on [n*period, n*period + duration) for
    n = 0, 1, 2, ..., else 0."""

    magnitude: float
    duration: float
    period: float

    def __post_init__(self) -> None:
        if not 0 < self.duration <= self.period:
            raise ValueError("need 0 < duration <= period")

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        on = (ts % self.period < self.duration) & (ts >= 0.0)
        return np.where(on, self.magnitude, 0.0)

    def _rises(self, t0: float, t1: float):
        """Pulse starts from the one before t0's period through t1."""
        n = max(0, math.floor(t0 / self.period) - 1)
        while n * self.period <= t1:
            yield n * self.period
            n += 1

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        return [edge for rise in self._rises(t0, t1)
                for edge in (rise, rise + self.duration) if t0 <= edge <= t1]

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        # Resolve each pulse with at least a few steps.
        cap = self.duration / 4.0
        return [(max(rise, t0), min(rise + self.duration, t1), cap)
                for rise in self._rises(t0, t1) if rise + self.duration >= t0]

    def max_angular_frequency(self) -> float:
        return 2.0 * math.pi / self.period


@dataclass(frozen=True)
class PiecewiseLinear(InputSignal):
    """Linear interpolation through knots, repeated with period
    knots[-1] - knots[0].

    At a knot time the slope comes from the segment to the right, the one
    that breakpoints() starts.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        ts = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        if np.any(np.diff(ts) <= 0):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_slopes", np.diff(vs) / np.diff(ts))

    @property
    def period(self) -> float:
        return self.knots[-1][0] - self.knots[0][0]

    def _cycle_segment(self, t) -> np.ndarray:
        """Segment index of each time, the right one at a knot.

        Times are compared with the knots of their cycle n as breakpoints()
        unfolds them, tk + n * period: the wrapped time can land one ulp short
        of a knot time the grid stands on.
        """
        ts, P = self._ts, self.period
        t = np.asarray(t, dtype=float)
        n = np.floor((t - ts[0]) / P)
        n = n - (t < ts[0] + n * P) + (t >= ts[0] + (n + 1.0) * P)
        shift = n * P
        i = np.zeros(t.shape, dtype=np.intp)
        for tk in ts[1:-1]:
            i = i + (t >= tk + shift)
        return i

    def values(self, ts: np.ndarray) -> np.ndarray:
        # The signal is continuous, so the segment the time folded into the
        # knot span falls on gives the value at a knot too, up to the
        # rounding of the knot time.
        knot_ts = self._ts
        tau = knot_ts[0] + (np.asarray(ts, dtype=float) - knot_ts[0]) % self.period
        i = np.clip(np.searchsorted(knot_ts, tau, side="right") - 1, 0, knot_ts.size - 2)
        return self._vs[i] + self._slopes[i] * (tau - knot_ts[i])

    def derivative(self, t):
        return self._slopes[self._cycle_segment(t)]

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        base = [k[0] for k in self.knots]
        out = []
        n = math.floor((t0 - base[0]) / self.period) - 1
        while base[0] + n * self.period <= t1:
            for tk in base[:-1]:  # last knot aliases the first of the next cycle
                t = tk + n * self.period
                if t0 <= t <= t1:
                    out.append(t)
            n += 1
        return sorted(out)

    def refine_windows(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        # Cap the step at a quarter of each segment so short ramps are resolved.
        edges = self.breakpoints(t0 - self.period, t1)
        out = []
        for a, b in zip(edges, edges[1:]):
            if b >= t0 and a <= t1:
                out.append((max(a, t0), min(b, t1), (b - a) / 4.0))
        return out

    def max_angular_frequency(self) -> float:
        return 2.0 * math.pi / self.period


@dataclass(frozen=True)
class Sum(InputSignal):
    """Pointwise sum of component signals."""

    components: tuple[InputSignal, ...]

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        for c in self.components:
            out += c.values(ts)
        return out

    def derivative(self, t):
        return sum(c.derivative(t) for c in self.components)

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
    """Escape hatch wrapping an arbitrary function. Not serializable; it has
    a derivative rule only if derivative_fn is given.

    fn and derivative_fn must accept an array of times as well as a single
    time, elementwise, as numpy expressions do. breaks are the signal's
    breakpoints: instants where fn, or a field that reads it, has a kink.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    breaks: tuple[float, ...] = ()
    angular_frequency: float = 0.0
    derivative_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(ts, dtype=float)), dtype=float)

    def derivative(self, t):
        if self.derivative_fn is None:
            return super().derivative(t)
        return np.asarray(self.derivative_fn(np.asarray(t, dtype=float)), dtype=float)[()]

    def breakpoints(self, t0: float, t1: float) -> list[float]:
        return sorted(b for b in self.breaks if t0 <= b <= t1)

    def max_angular_frequency(self) -> float:
        return self.angular_frequency
