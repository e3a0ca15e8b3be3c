"""Span recorder for the traced benchmark run.

The tracer wraps, from outside the package, every public function and every
public method of the public classes of each condux module, and points every
module-level reference to a wrapped function at its wrapper. Each call opens
a span under the span that is open when it starts. Spans with the same
function and the same parent are aggregated into one node holding the call
count, the total time and the time covered by child spans, so the tree stays
small however many calls are made. Self time is total minus child time.
Everything stays in memory; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("integrate", "models", "signals", "piecewise", "variational",
           "design", "lure", "observer", "experiments")


class Span:
    """Aggregate of all calls of one function under one parent span."""

    __slots__ = ("key", "children", "calls", "total", "child")

    def __init__(self, key: str) -> None:
        self.key = key
        self.children: dict[str, Span] = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    def to_json(self) -> dict:
        return {
            "fn": self.key,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - self.child,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    def __init__(self) -> None:
        self.root = Span("root")
        self._stack = [self.root]
        self._patches: list[tuple[object, str, object]] = []
        self.counts = {"integrate.steps": 0, "variational.transition_matrix.steps": 0,
                       "signals.values.points": 0}
        self.f_inv_points: set[tuple[int, float]] = set()

    # -- extra counts taken at a span boundary ------------------------------

    def _count_steps(self, args, out) -> None:
        self.counts["integrate.steps"] += out.ts.size - 1

    def _count_tm_steps(self, args, out) -> None:
        self.counts["variational.transition_matrix.steps"] += len(args[1]) - 1

    def _count_points(self, args, out) -> None:
        self.counts["signals.values.points"] += int(np.size(args[1]))

    def _count_f_inv(self, args, out) -> None:
        self.f_inv_points.add((id(args[0]), float(args[1])))

    def _hook(self, key: str):
        if key == "integrate.integrate":
            return self._count_steps
        if key == "variational.transition_matrix":
            return self._count_tm_steps
        if key.startswith("signals.") and key.endswith(".values"):
            return self._count_points
        if key == "models.NormalFormModel.f_inv_solve":
            return self._count_f_inv
        return None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack, clock, hook = self._stack, time.perf_counter, self._hook(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent.children.get(key)
            if span is None:
                span = parent.children[key] = Span(key)
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.total += dt
                parent.child += dt
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"condux.{short}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj) and not getattr(obj, "_is_protocol", False):
                    for attr, val in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr == "__call__"
                        if public and inspect.isfunction(val):
                            self._patch(obj, attr, self._wrap(f"{short}.{name}.{attr}", val))
        # Modules bind imported functions under their own names, so every
        # such binding is redirected, not only the defining module's.
        for modname, mod in list(sys.modules.items()):
            if modname != "condux" and not modname.startswith("condux."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    # -- summaries ----------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, inclusive time and self time per function over the tree.

        Inclusive time counts a span only when no ancestor is the same
        function, so nested calls are not counted twice.
        """
        out: dict[str, dict[str, float]] = {}

        def walk(span: Span, path: frozenset) -> None:
            for key, child in span.children.items():
                st = out.setdefault(key, {"calls": 0, "incl": 0.0, "self": 0.0})
                st["calls"] += child.calls
                st["self"] += child.total - child.child
                if key not in path:
                    st["incl"] += child.total
                walk(child, path | {key})

        walk(self.root, frozenset())
        return out

    def calls_under(self, parent_key: str, key: str) -> int:
        """Calls of ``key`` made directly from spans of ``parent_key``."""
        total = 0

        def walk(span: Span) -> None:
            nonlocal total
            for child in span.children.values():
                if span.key == parent_key and child.key == key:
                    total += child.calls
                walk(child)

        walk(self.root)
        return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by benchmark name."""
    fns = tracer.per_function()

    def pick(field: str, pred) -> float:
        return sum(st[field] for key, st in fns.items() if pred(key))

    def fn(field: str, *keys: str) -> float:
        return pick(field, lambda k: k in keys)

    def method(field: str, module: str, name: str) -> float:
        return pick(field, lambda k: k.startswith(module + ".") and k.endswith("." + name))

    def layer_self(module: str) -> float:
        return pick("self", lambda k: k.startswith(module + "."))

    f_inv_calls = fn("calls", "models.NormalFormModel.f_inv_solve")
    pipeline_s = pick("incl", lambda k: k.startswith("experiments.") and k.endswith("_pipeline"))
    return {
        "integrate.calls": fn("calls", "integrate.integrate"),
        "integrate.steps": tracer.counts["integrate.steps"],
        "integrate.self_s": fn("self", "integrate.integrate"),
        "integrate.build_grid_s": fn("incl", "integrate.build_grid"),
        "integrate.find_limit_cycle_s": fn("incl", "integrate.find_limit_cycle"),
        "integrate.interp_state.calls": fn("calls", "integrate.Trajectory.interp_state"),
        "integrate.interp_state.self_s": fn("self", "integrate.Trajectory.interp_state"),
        "models.rhs.calls": method("calls", "models", "rhs"),
        "models.rhs.self_s": method("self", "models", "rhs"),
        "models.jac.calls": method("calls", "models", "jac"),
        "models.jac.self_s": method("self", "models", "jac"),
        "models.f_inv_solve.calls": f_inv_calls,
        "models.f_inv_solve.self_s": fn("self", "models.NormalFormModel.f_inv_solve"),
        "models.f_inv_solve.distinct_ratio":
            len(tracer.f_inv_points) / f_inv_calls if f_inv_calls else 0.0,
        "signals.value.calls": method("calls", "signals", "value"),
        "signals.values.calls": method("calls", "signals", "values"),
        "signals.values.points": tracer.counts["signals.values.points"],
        "signals.derivative.calls": method("calls", "signals", "derivative"),
        "signals.self_s": layer_self("signals"),
        "piecewise.call.calls": fn("calls", "piecewise.PiecewisePoly.__call__"),
        "piecewise.self_s": layer_self("piecewise"),
        "variational.state_transition_s": fn("incl", "variational.state_transition"),
        "variational.transition_matrix.calls": fn("calls", "variational.transition_matrix"),
        "variational.transition_matrix.steps":
            tracer.counts["variational.transition_matrix.steps"],
        "variational.transition_matrix.self_s": fn("self", "variational.transition_matrix"),
        "variational.floquet_s": fn("incl", "variational.floquet"),
        "variational.refine_periodic_orbit_s": fn("incl", "variational.refine_periodic_orbit"),
        "variational.newton_iters":
            tracer.calls_under("variational.refine_periodic_orbit", "integrate.integrate"),
        "design.kapitza_design_s": fn("incl", "design.kapitza_design"),
        "design.fhn_impulse_design_s": fn("incl", "design.fhn_impulse_design"),
        "design.feedforward_from_reference_s": fn("incl", "design.feedforward_from_reference"),
        "design.hh_certificate_s": fn("incl", "design.hh_certificate"),
        "observer.run_observer_s": fn("incl", "observer.run_observer"),
        "observer.contraction_check_s": fn("incl", "observer.observer_contraction_check"),
        "experiments.pipeline_s": pipeline_s,
        "experiments.artifacts_s": fn("incl", "experiments.run_experiment") - pipeline_s,
    }
