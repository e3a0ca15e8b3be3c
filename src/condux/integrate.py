"""Fixed-step RK4 integration on signal-aware grids.

The integrator is classical RK4 on a deterministic grid: the grid
lands exactly on every signal breakpoint, and inside each declared refine
window the step is capped, so narrow impulses and short ramps are resolved
without paying for a globally tiny step. Identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCrossings, NumericalBlowup, PeriodUnstable
from .models import VectorField
from .signals import InputSignal, Zero

__all__ = [
    "FixedStep",
    "Trajectory",
    "write_csv",
    "default_step",
    "build_grid",
    "integrate",
    "CycleResult",
    "find_limit_cycle",
]


@dataclass(frozen=True)
class FixedStep:
    """Classical RK4 with step h (further capped inside refine windows)."""

    h: float | None = None


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


def write_csv(path, names: list[str], cols: list[np.ndarray]) -> None:
    """Write equal-length columns under a header row, every value as %.17g
    so that reading the file back recovers each float64 exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


@dataclass
class Trajectory:
    """Sampled solution with the input that produced it."""

    ts: np.ndarray
    states: np.ndarray
    us: np.ndarray
    state_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.ts.size

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def output(self) -> np.ndarray:
        return self.states[:, 0]

    def interp_state(self, t: float) -> np.ndarray:
        """Linear interpolation between stored samples."""
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), self.ts.size - 2)
        w = (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]

    def to_csv(self, path: str) -> None:
        names = self.state_names or tuple(f"x{i+1}" for i in range(self.states.shape[1]))
        write_csv(path, ["t", *names, "u"], [self.ts, *self.states.T, self.us])

    @classmethod
    def from_csv(cls, path: str) -> "Trajectory":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.array(
                [[float(c) for c in line.strip().split(",")] for line in fh if line.strip()]
            )
        return cls(
            ts=data[:, 0],
            states=data[:, 1:-1],
            us=data[:, -1],
            state_names=tuple(header[1:-1]),
        )


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
    y = x0.astype(float)
    rhs = model.rhs
    for i in range(n - 1):
        t, h = grid[i], hs[i]
        k1 = rhs(t, y, u_lo[i])
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, u_mid[i])
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, u_mid[i])
        k4 = rhs(t + h, y + h * k3, u_hi[i])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NumericalBlowup(float(grid[i + 1]), f"state left R^n in model {model.name}")
        states[i + 1] = y
    return Trajectory(grid, states, signal.values(grid), model.state_names)


def integrate(
    model: VectorField,
    signal: InputSignal | None,
    t0: float,
    t1: float,
    x0: np.ndarray,
    policy: FixedStep | None = None,
) -> Trajectory:
    """Integrate the model from x0 over [t0, t1] under the given input."""
    signal = signal or Zero()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")
    policy = policy or FixedStep()
    h = policy.h or default_step(model, signal, t0, t1)
    return _rk4_run(model, signal, build_grid(t0, t1, h, signal), x0)


@dataclass(frozen=True)
class CycleResult:
    """A located periodic orbit: crossing anchor and measured period."""

    period: float
    anchor: np.ndarray
    t_anchor: float


def find_limit_cycle(
    model: VectorField,
    signal: InputSignal | None,
    x_guess: np.ndarray,
    section: tuple[int, float, int],
    transient: float = 50.0,
    max_time: float = 400.0,
    policy: FixedStep | None = None,
    agreement: float = 1e-6,
) -> CycleResult:
    """Locate an attracting cycle by Poincare returns to a coordinate section.

    section = (state index, level, direction); the transient discard is 50
    time units or 20 crossings, whichever comes first. Successive return
    intervals must agree to the given relative tolerance, else the orbit is
    declared unstable or drifting (PeriodUnstable).
    """
    idx, level, direction = section
    traj = integrate(model, signal, 0.0, max_time, np.asarray(x_guess, dtype=float), policy)
    s = traj.states[:, idx] - level
    if direction >= 0:
        hit = (s[:-1] < 0.0) & (s[1:] >= 0.0)
    else:
        hit = (s[:-1] > 0.0) & (s[1:] <= 0.0)
    i_hits = np.nonzero(hit)[0]
    if i_hits.size == 0:
        raise NoCrossings(f"no section crossings for {model.name} within {max_time} time units")
    # Linear-interpolation refinement of each crossing time and state.
    t_cross, x_cross = [], []
    for i in i_hits:
        w = s[i] / (s[i] - s[i + 1])
        t_cross.append(float(traj.ts[i] + w * (traj.ts[i + 1] - traj.ts[i])))
        x_cross.append((1.0 - w) * traj.states[i] + w * traj.states[i + 1])
    t_cross = np.array(t_cross)
    cut = transient
    if t_cross.size > 20:
        cut = min(cut, t_cross[19])
    keep = np.nonzero(t_cross > cut)[0]
    if keep.size < 4:
        raise PeriodUnstable(
            f"only {keep.size} crossings after transient for {model.name}"
        )
    tc = t_cross[keep[-4:]]
    periods = np.diff(tc)
    mean = float(np.mean(periods))
    if mean <= 0 or float(np.max(np.abs(periods - mean))) > agreement * mean:
        raise PeriodUnstable(
            f"return intervals {periods.tolist()} do not settle for {model.name}"
        )
    return CycleResult(period=mean, anchor=x_cross[keep[-1]], t_anchor=float(tc[-1]))
