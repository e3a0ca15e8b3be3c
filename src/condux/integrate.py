"""Fixed-step RK4 integration on signal-aware grids.

The integrator is classical RK4 on a deterministic grid: the grid
lands exactly on every signal breakpoint, and inside each declared refine
window the step is capped, so narrow impulses and short ramps are resolved
without paying for a globally tiny step. Identical inputs give bit-identical
trajectories.

The loop steps Python floats. The inputs of a whole grid are tabulated in
numpy calls first; then each block of 64 steps converts its slice of the
grid, the steps and the three input columns to float lists, runs the stages
on lists of floats through the field's float-form rhs (see VectorField),
and writes its rows into the preallocated state array, where they are
checked for finiteness. Python + * / on floats round exactly like numpy's
elementwise ops, so the float loop gives the bits of the same stages over
arrays, and converting per block keeps memory at one array of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .models import VectorField
from .signals import InputSignal, Zero

__all__ = [
    "Trajectory",
    "default_step",
    "build_grid",
    "integrate",
]


# Steps between two finiteness checks of the stored states.
_FINITE_BLOCK = 64


def default_step(model: VectorField, signal: InputSignal, t0: float, t1: float) -> float:
    """Step heuristic: resolve the fastest input oscillation and the model's
    relaxation scale; fall back to a span-based step for everything else."""
    cands = [min((t1 - t0) / 500.0, 0.02)]
    w = signal.max_angular_frequency()
    if w > 0:
        cands.append(2.0 * math.pi / (100.0 * w))
    if model.stiffness:
        cands.append(model.stiffness / 20.0)
    return min(cands)


def build_grid(
    t0: float, t1: float, h_default: float, signal: InputSignal
) -> np.ndarray:
    """Grid hitting t0, t1, and every breakpoint exactly, with window caps.

    Window bounds are inserted as grid edges, so each elementary interval is
    covered (or not) by a window as a whole and gets a single step cap.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    if not (math.isfinite(h_default) and h_default > 0.0):
        raise ValueError(f"step must be finite and positive, got {h_default}")
    windows = [
        (max(lo, t0), min(hi, t1), cap)
        for lo, hi, cap in signal.refine_windows(t0, t1)
        if hi > t0 and lo < t1 and cap > 0
    ]
    edges = {t0, t1}
    edges.update(b for b in signal.breakpoints(t0, t1) if t0 < b < t1)
    for lo, hi, _ in windows:
        if t0 < lo < t1:
            edges.add(lo)
        if t0 < hi < t1:
            edges.add(hi)
    srt = sorted(edges)
    # Merge edges that are too close to carry a step.
    span = t1 - t0
    merged = [srt[0]]
    for e in srt[1:]:
        if e - merged[-1] > 1e-12 * span:
            merged.append(e)
    merged[-1] = t1

    nodes = [t0]
    for a, b in zip(merged, merged[1:]):
        cap = h_default
        for lo, hi, c in windows:
            if lo <= a + 1e-12 * span and b <= hi + 1e-12 * span:
                cap = min(cap, c)
        k = max(1, math.ceil((b - a) / cap - 1e-9))
        for j in range(1, k):
            nodes.append(a + (b - a) * j / k)
        nodes.append(b)
    return np.array(nodes)


@dataclass
class Trajectory:
    """Sampled solution with the input that produced it."""

    ts: np.ndarray
    states: np.ndarray
    us: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def interp_state(self, t) -> np.ndarray:
        """Linear interpolation between stored samples: one state for a
        time, one state per row for an array of times."""
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, self.ts.size - 2)
        w = np.clip((t - self.ts[i]) / (self.ts[i + 1] - self.ts[i]), 0.0, 1.0)
        w = np.expand_dims(w, -1)
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


def _rk4_run(
    model: VectorField, signal: InputSignal, grid: np.ndarray, x0: np.ndarray
) -> Trajectory:
    n = grid.size
    hs = np.diff(grid)
    # Each step reads its input from its own piece: the right limit at its
    # left node and the left limit at its right node, so a jump that the
    # grid lands on never leaks into the step on the other side of it.
    u_lo = signal.values(np.nextafter(grid[:-1], grid[1:]))
    u_mid = signal.values(grid[:-1] + 0.5 * hs)
    u_hi = signal.values(np.nextafter(grid[1:], grid[:-1]))
    states = np.empty((n, x0.size))
    states[0] = x0
    y = x0.tolist()
    rhs = model.rhs
    # Finiteness is checked once per block of steps; a failed block is
    # rescanned so that the error names the first non-finite node. A field
    # that raises on a non-finite state reports the same blowup.
    for lo in range(0, n - 1, _FINITE_BLOCK):
        hi = min(lo + _FINITE_BLOCK, n - 1)
        rows = []
        try:
            for t, h, ua, um, ub in zip(grid[lo:hi].tolist(), hs[lo:hi].tolist(),
                                        u_lo[lo:hi].tolist(), u_mid[lo:hi].tolist(),
                                        u_hi[lo:hi].tolist()):
                hh = 0.5 * h
                k1 = rhs(t, y, ua)
                k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)], um)
                k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)], um)
                k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)], ub)
                h6 = h / 6.0
                y = [a + h6 * (b + 2.0 * c + 2.0 * d + e)
                     for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
                rows.append(y)
        except Exception:
            if rows:
                states[lo + 1:lo + 1 + len(rows)] = rows
            _check_finite(model, grid, states, lo, lo + len(rows))
            raise
        states[lo + 1:hi + 1] = rows
        _check_finite(model, grid, states, lo, hi)
    return Trajectory(grid, states, signal.values(grid))


def _check_finite(model: VectorField, grid: np.ndarray, states: np.ndarray,
                  lo: int, hi: int) -> None:
    """Raise NumericalBlowup at the first non-finite state among nodes lo+1..hi."""
    ok = np.isfinite(states[lo + 1:hi + 1]).all(axis=1)
    if not ok.all():
        bad = lo + 1 + int(np.argmin(ok))
        raise NumericalBlowup(float(grid[bad]), f"state left R^n in model {model.name}")


def integrate(
    model: VectorField,
    signal: InputSignal | None,
    t0: float,
    t1: float,
    x0: np.ndarray,
    step: float | None = None,
) -> Trajectory:
    """Integrate the model from x0 over [t0, t1] under the given input with
    RK4 step `step` (default_step when None), capped inside refine windows."""
    signal = signal or Zero()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")
    h = step if step is not None else default_step(model, signal, t0, t1)
    return _rk4_run(model, signal, build_grid(t0, t1, h, signal), x0)
