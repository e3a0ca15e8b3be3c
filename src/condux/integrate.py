"""Fixed-step RK4 integration on signal-aware grids.

The integrator is classical RK4 on a deterministic grid: the grid
lands exactly on every signal breakpoint, and inside each declared refine
window the step is capped, so narrow impulses and short ramps are resolved
without paying for a globally tiny step. Identical inputs give bit-identical
trajectories.

The grid is built in numpy: each refine window finds the run of intervals
between edges that it covers by bisection and lowers their step caps, a
Python loop picks each interval's number of steps k, and the nodes
a + (b - a) * j / k of all intervals are then written in one pass of array
operations, the same float operations in the same order as the scalar
formula.

The loop steps Python floats. The inputs of a whole grid are tabulated in
three numpy calls first, at the left end, midpoint and right end of every
step; then each block of 1024 steps converts its slice of the grid, the
steps and the three input columns to float lists and hands them to the RK4
block for the state size n. That block is Python source rendered from one
template the first time a run of size n needs it, compiled and cached: it
keeps the state in n local floats, passes it to the field's float-form rhs
(see VectorField) as a tuple and unpacks each stage into n locals, so an
rhs that returns other than n components raises ValueError. A PlainModel
that declares its components as source (FieldSource) is stepped by a block
with those expressions written out in place of the rhs calls: each stage
binds its stage state to n locals, runs the source's lets (a gate lookup,
such as the neuron plant's, written as its stack's if-chain over the stage
state, each line of it indented into the stage) and computes each component
in one statement, no call and no tuple per stage. flow's joint (x, Phi)
field of a source that declares its Jacobian is such a source too. The
constants are the block's argument, so the block is compiled once per
source, whatever the parameter values, and the model's rhs and jac are
rendered from the same source.
The block extends one flat list by the components of every new state; the
list is copied into the preallocated state array in one assignment and
checked for finiteness. Python + * / on floats round exactly like numpy's
elementwise ops, so the rendered block gives the bits of the same stages
over arrays, and converting per block keeps memory at one array of states.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .models import FieldSource, VectorField, exec_rendered
from .signals import Constant, InputSignal

__all__ = [
    "Trajectory",
    "default_step",
    "build_grid",
    "integrate",
]


# Steps between two finiteness checks of the stored states.
_FINITE_BLOCK = 1024

# The RK4 block for a state of n components, as the source of a function
# that steps the state through one slice of the grid. Each "{x}" below is
# rendered as its expression written out for i = 0..n-1, comma-terminated:
# the state is a0..a(n-1), the stages k1..k4 are b, c, d and e, and every
# component takes the same operations in the same order. A field without
# source passes its rhs as the block's first argument and each stage is one
# rhs call; a field with source passes its constants, which the block
# unpacks into k0, k1, ..., and each stage binds its stage state to
# x0..x(n-1), runs the source's lets, each line of them (a gate chain is
# several) indented into the loop, and writes its components over them.
_BLOCK_TEMPLATE = """\
def block({field}, ts, hs, uas, ums, ubs, y, rows):
{consts}    push = rows.extend
    for t, h, ua, um, ub in zip(ts, hs, uas, ums, ubs):
        {a} = y
        hh = 0.5 * h
        {k1}
        {k2}
        {k3}
        {k4}
        h6 = h / 6.0
        y = ({step})
        push(y)
"""

# Per stage: its locals, its time, its stage state (None: the state itself)
# and its input.
_STAGES = (
    ("b", "t", None, "ua"),
    ("c", "t + hh", "a{i} + hh * b{i}", "um"),
    ("d", "t + hh", "a{i} + hh * c{i}", "um"),
    ("e", "t + h", "a{i} + h * d{i}", "ub"),
)


def _block_source(n: int, source: FieldSource | None) -> str:
    """The source of the RK4 block for n components, with the field's
    components written out when it has a source."""

    def each(expr: str) -> str:
        return " ".join(expr.format(i=i) + "," for i in range(n))

    stages = []
    for k, t, state, u in _STAGES:
        if source is None:
            arg = "y" if state is None else f"({each(state)})"
            stages.append(f"{each(k + '{i}')} = rhs({t}, {arg}, {u})")
            continue
        xs = [f"a{i}" if state is None else f"x{i}" for i in range(n)]
        lines = [] if state is None else [f"x{i} = {state.format(i=i)}" for i in range(n)]
        lets, exprs = source.written(xs, t, u)
        lines += [*lets, *(f"{k}{i} = {e}" for i, e in enumerate(exprs))]
        stages.append("\n        ".join(lines))
    consts = ""
    if source is not None and source.consts:
        consts = f"    {' '.join(f'k{j},' for j in range(len(source.consts)))} = consts\n"
    return _BLOCK_TEMPLATE.format(
        field="rhs" if source is None else "consts", consts=consts, a=each("a{i}"),
        k1=stages[0], k2=stages[1], k3=stages[2], k4=stages[3],
        step=each("a{i} + h6 * (b{i} + 2.0 * c{i} + 2.0 * d{i} + e{i})"),
    )


@functools.cache
def _rk4_block(n: int, source: FieldSource | None):
    """block(field, ts, hs, uas, ums, ubs, y, rows) for states of n
    components, rendered and compiled on the first run of that size and
    source: steps the tuple y over the steps hs from the times ts, with
    inputs uas, ums and ubs at the left end, midpoint and right end of each
    step, extending the flat list rows by the components of every new state.
    field is the model's rhs, or its consts when it has a source."""
    return exec_rendered(_block_source(n, source), f"rk4 block n={n}")["block"]


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

    # A window covers interval i, [merged[i], merged[i+1]], when
    # lo <= merged[i] + tol and merged[i+1] <= hi + tol. Each half is monotone
    # in the sorted edges, so the covered intervals are one slice, found by
    # bisection.
    tol = 1e-12 * span
    intervals = range(len(merged) - 1)
    caps = [h_default] * len(intervals)
    for lo, hi, c in windows:
        first = bisect.bisect_left(intervals, True, key=lambda i: lo <= merged[i] + tol)
        stop = bisect.bisect_left(intervals, True, key=lambda i: not merged[i + 1] <= hi + tol)
        for i in range(first, stop):
            caps[i] = min(caps[i], c)
    ks = [max(1, math.ceil((b - a) / cap - 1e-9))
          for a, b, cap in zip(merged, merged[1:], caps)]
    # Interval [a, b] split in k steps contributes the nodes
    # a + (b - a) * j / k for j = 1..k-1 and then b itself, all intervals at
    # once: j, b - a, k and a are repeated per node, and each node takes the
    # float operations of that formula in the same order.
    k = np.array(ks)
    a = np.array(merged[:-1])
    ends = np.cumsum(k)
    j = np.arange(1, int(ends[-1]) + 1) - np.repeat(ends - k, k)
    nodes = np.empty(j.size + 1)
    nodes[0] = t0
    inner = nodes[1:]
    np.multiply(np.repeat(np.array(merged[1:]) - a, k), j, out=inner)
    inner /= np.repeat(k, k)
    inner += np.repeat(a, k)
    nodes[ends] = merged[1:]
    return nodes


@dataclass
class Trajectory:
    """Sampled solution: the grid and the state at each of its nodes."""

    ts: np.ndarray
    states: np.ndarray

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
    m = x0.size
    states = np.empty((n, m))
    states[0] = x0
    flat = states.reshape(-1)
    y = tuple(x0.tolist())
    source = getattr(model, "source", None)
    field = model.rhs if source is None else model.consts
    block = _rk4_block(m, source)
    # Each block's rows arrive as one flat list of floats and are stored in
    # one copy. Finiteness is checked once per block of steps; a failed
    # block is rescanned so that the error names the first non-finite node.
    # A field that raises on a non-finite state reports the same blowup.
    for lo in range(0, n - 1, _FINITE_BLOCK):
        hi = min(lo + _FINITE_BLOCK, n - 1)
        rows = []
        try:
            block(field, grid[lo:hi].tolist(), hs[lo:hi].tolist(), u_lo[lo:hi].tolist(),
                  u_mid[lo:hi].tolist(), u_hi[lo:hi].tolist(), y, rows)
        finally:
            flat[(lo + 1) * m:(lo + 1) * m + len(rows)] = rows
            _check_finite(model, grid, states, lo, lo + len(rows) // m)
        y = tuple(rows[-m:])
    return Trajectory(grid, states)


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
    signal = signal or Constant(0.0)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")
    h = step if step is not None else default_step(model, signal, t0, t1)
    return _rk4_run(model, signal, build_grid(t0, t1, h, signal), x0)
