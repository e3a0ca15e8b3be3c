"""Piecewise polynomials and saturated polynomials.

A saturated polynomial sat(lo, hi, p(y)) is flattened into an explicit
piecewise polynomial once, at construction, by solving p(y) = lo and
p(y) = hi. That makes derivatives and antiderivatives exact segmentwise
algebra instead of runtime clamping, which matters when an antiderivative
of a product like sat(...)*(y-1) is needed in closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PiecewisePoly", "GateStack", "sat_poly"]


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial pieces on (-inf, b0], (b0, b1], ..., (b_{k-1}, inf).

    breaks are ascending interior breakpoints; coeffs holds len(breaks)+1
    coefficient tuples in descending powers. At a breakpoint the LEFT piece
    applies, so derivatives at kinks are one-sided from the left.
    """

    breaks: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 coefficient tuples")
        if any(b <= a for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(
            self.breaks,
            tuple(tuple(np.polyder(np.array(c)).tolist()) if len(c) > 1 else (0.0,) for c in self.coeffs),
        )

    def multiply_poly(self, poly: tuple[float, ...]) -> "PiecewisePoly":
        """Multiply every piece by a fixed polynomial (descending powers)."""
        return PiecewisePoly(
            self.breaks,
            tuple(tuple(np.polymul(np.array(c), np.array(poly)).tolist()) for c in self.coeffs),
        )

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative, anchored to 0 at the first breakpoint."""
        if not self.breaks:
            return PiecewisePoly((), (tuple(np.polyint(np.array(self.coeffs[0])).tolist()),))
        prims = [np.polyint(np.array(c)) for c in self.coeffs]
        shifts = [0.0] * len(prims)
        # Anchor segment 0 (the piece ending at breaks[0]) to vanish there,
        # then chain continuity left to right across each breakpoint.
        shifts[0] = -float(np.polyval(prims[0], self.breaks[0]))
        for i, b in enumerate(self.breaks):
            left = float(np.polyval(prims[i], b)) + shifts[i]
            shifts[i + 1] = left - float(np.polyval(prims[i + 1], b))
        out = []
        for p, s in zip(prims, shifts):
            c = p.astype(float).tolist()
            c[-1] += s
            out.append(tuple(c))
        return PiecewisePoly(self.breaks, tuple(out))


def GateStack(*gates: PiecewisePoly) -> Callable[[float], tuple[float, ...]]:
    """Several PiecewisePoly read at one y with one lookup, compiled into one
    function.

    Returns lookup(y), the tuple of the gates' values at y, with
    lookup.breaks the ascending merged breaks of every gate. lookup is an
    if-chain over the merged breaks, `if y <= b0: return (...)` and so on,
    the last piece unconditional: y <= b_j picks the piece bisect_left on
    the merged breaks picks, the left one at a break and the last one at
    +inf, and every gate break is a merged break, so each gate reads its own
    piece. A NaN y falls through to the last piece and gives NaN in every
    slot. Each slot is its gate's Horner chain written out,
    ((0.0 * y + c0) * y + c1) * y + ..., with the coefficients bound as names
    in the compiled scope: the loop acc = acc * y + c from acc = 0.0, so slot
    k gives the bits of gate k at every y, signed zeros included.
    """
    breaks = tuple(sorted({float(b) for g in gates for b in g.breaks}))
    scope: dict = {}
    lines = ["def lookup(y):"]
    for j, b in enumerate((*breaks, math.inf)):
        chains = []
        for k, g in enumerate(gates):
            chain = "0.0"
            for i, c in enumerate(g.coeffs[bisect_left(g.breaks, b)]):
                name = f"c{j}_{k}_{i}"
                scope[name] = c
                chain = f"({chain}) * y + {name}"
            chains.append(chain + ",")
        ret = f"return ({' '.join(chains)})"
        if j < len(breaks):
            scope[f"b{j}"] = b
            lines.append(f"    if y <= b{j}:\n        {ret}")
        else:
            lines.append(f"    {ret}")
    exec(compile("\n".join(lines) + "\n", "<gate stack>", "exec"), scope)
    lookup = scope["lookup"]
    lookup.breaks = breaks
    return lookup


def _real_roots(coeffs: np.ndarray) -> list[float]:
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if c.size <= 1:
        return []
    roots = np.roots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r)):
            x = raw = float(r.real)
            # Two Newton polish steps clean up np.roots jitter. Off a root
            # where p' is nearly zero a step can overflow; the raw root stays.
            d = np.polyder(c)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for _ in range(2):
                    fx, dx = np.polyval(c, x), np.polyval(d, x)
                    if dx != 0:
                        x -= fx / dx
            out.append(float(x) if math.isfinite(x) else raw)
    out.sort()
    # Merge near-coincident (tangential) roots.
    merged: list[float] = []
    for x in out:
        if merged and abs(x - merged[-1]) <= 1e-9 * (1.0 + abs(x)):
            continue
        merged.append(x)
    return merged


def sat_poly(lo: float, hi: float, coeffs: tuple[float, ...]) -> PiecewisePoly:
    """Flatten max(lo, min(hi, p(y))) into an explicit PiecewisePoly.

    Candidate breakpoints are the real solutions of p = lo and p = hi; each
    resulting interval is classified by clamping at its midpoint, and
    neighbours that ended up with the same piece (tangential touches) merge.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    p = np.asarray(coeffs, dtype=float)
    cand: list[float] = []
    for level in (lo, hi):
        shifted = p.copy()
        shifted[-1] -= level
        cand.extend(_real_roots(shifted))
    cand = sorted(set(cand))
    if not cand:
        mid = float(np.polyval(p, 0.0))
        level = min(hi, max(lo, mid))
        piece = tuple(p.tolist()) if lo < mid < hi else (level,)
        return PiecewisePoly((), (piece,))

    def classify(rep: float) -> tuple[float, ...]:
        v = float(np.polyval(p, rep))
        if v >= hi:
            return (hi,)
        if v <= lo:
            return (lo,)
        return tuple(p.tolist())

    reps = [cand[0] - 1.0]
    reps += [0.5 * (a + b) for a, b in zip(cand, cand[1:])]
    reps += [cand[-1] + 1.0]
    pieces = [classify(r) for r in reps]

    breaks: list[float] = []
    kept: list[tuple[float, ...]] = [pieces[0]]
    for b, piece in zip(cand, pieces[1:]):
        if piece == kept[-1]:
            continue  # tangential touch, no actual switch
        breaks.append(b)
        kept.append(piece)
    return PiecewisePoly(tuple(breaks), tuple(kept))
