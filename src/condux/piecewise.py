"""Piecewise polynomials and saturated polynomials.

A saturated polynomial sat(lo, hi, p(y)) is flattened into an explicit
piecewise polynomial once, at construction, by solving p(y) = lo and
p(y) = hi. That makes derivatives and antiderivatives exact segmentwise
algebra instead of runtime clamping, which matters when an antiderivative
of a product like sat(...)*(y-1) is needed in closed form.

Several gates read at one y are one lookup: gate_chain writes it as
statements, an if-chain over the gates' merged breaks whose branches assign
each gate's Horner chain with its coefficients as literals, and GateStack
compiles that chain into a function. A field source writes the same chain in
place of the call, so the stepped field and the called lookup give the same
bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

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
        if not all(map(math.isfinite, (*self.breaks, *(c for p in self.coeffs for c in p)))):
            raise ValueError("breakpoints and coefficients must be finite")

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


def _horner(coeffs: tuple[float, ...], y: str) -> str:
    """The Horner chain of one piece at the variable y, its coefficients
    written as literals: ((0.0 * y + c0) * y + c1) * y + ..., the loop
    acc = acc * y + c from acc = 0.0, with the leading 0.0 * y + dropped on
    a piece of degree >= 1 whose leading coefficient is not -0.0. For finite
    y that is exact, since +-0.0 + c0 is c0, and a NaN y still gives NaN; a
    constant piece keeps it, so it reads +0.0 for -0.0 at finite y and NaN
    at a non-finite y, as the loop does."""
    head, *rest = (float(c) for c in coeffs)
    signed_zero = head == 0.0 and math.copysign(1.0, head) < 0.0
    chain = repr(head) if rest and not signed_zero else f"0.0 * {y} + {head!r}"
    for c in rest:
        factor = f"({chain})" if " " in chain else chain  # a bare literal needs none
        chain = f"{factor} * {y} + {c!r}"
    return chain


def merged_breaks(gates: Sequence[PiecewisePoly]) -> tuple[float, ...]:
    """The ascending breaks of every gate, each once."""
    return tuple(sorted({float(b) for g in gates for b in g.breaks}))


def gate_chain(gates: Sequence[PiecewisePoly], y: str, outs: Sequence[str]) -> list[str]:
    """The lookup of gates at the variable y as statements assigning the
    value of gate k to outs[k]: an if-chain `if y <= b0: ... elif y <= b1:
    ... else: ...` over the ascending merged breaks of every gate, each
    branch assigning every gate's Horner chain on its piece (_horner), one
    line each, indented by four spaces under its test. y <= b_j picks the
    piece bisect_left on the merged breaks picks, the left one at a break
    and the last one at +inf, and every gate break is a merged break, so
    each gate reads its own piece. A NaN y fails every test and falls
    through to the last piece."""
    if len(outs) != len(gates):
        raise ValueError(f"{len(gates)} gates need {len(gates)} output names, got {len(outs)}")
    breaks = merged_breaks(gates)
    indent = "    " if breaks else ""
    lines = []
    for j, b in enumerate((*breaks, math.inf)):
        if breaks:
            lines.append("else:" if j == len(breaks) else f"{'elif' if j else 'if'} {y} <= {b!r}:")
        for out, g in zip(outs, gates):
            lines.append(f"{indent}{out} = {_horner(g.coeffs[bisect_left(g.breaks, b)], y)}")
    return lines


def GateStack(*gates: PiecewisePoly) -> Callable[[float], tuple[float, ...]]:
    """Several PiecewisePoly read at one y with one lookup, compiled into one
    function.

    Returns lookup(y), the tuple of the gates' values at y: gate_chain at y,
    wrapped in `def lookup(y)` and a return, so a source that writes the
    chain in place of a lookup call gets the same bits. lookup.gates are the
    gates and lookup.breaks their merged breaks (merged_breaks). A NaN y
    gives NaN in every slot, and each slot gives the bits of the Horner loop
    acc = acc * y + c from acc = 0.0 on its gate's piece at every finite y,
    signed zeros included.
    """
    outs = [f"v{k}" for k in range(len(gates))]
    lines = ["def lookup(y):", *(f"    {s}" for s in gate_chain(gates, "y", outs)),
             f"    return ({' '.join(f'{v},' for v in outs)})"]
    scope: dict = {}
    exec(compile("\n".join(lines) + "\n", "<gate stack>", "exec"), scope)
    lookup = scope["lookup"]
    lookup.gates = gates
    lookup.breaks = merged_breaks(gates)
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
