"""System models in output normal form, plus the built-in example systems.

A NormalFormModel is a planar relative-degree-one model: its output y obeys
y' = f(t, y, z, u) and its one internal state z obeys z' = g(t, z, y). The
input enters only through f, affinely and with a uniformly sign-definite
gain, so a feedforward input realizing a desired output rate is recovered
from f(t, y, z, u) = v in closed form (NormalFormModel.f_inv), over whole
grids at once.

Other fields are PlainModel, given as callables or declared once as
expression source (FieldSource), from which the model's rhs and jac are
rendered and which the integrator writes into its RK4 block. The observer's
neuron plant is declared once as a PlantSource: its hooks, its fields for
fixed parameters and the observer's fields are all written from it. A gate
lookup of a source is written into each rendered function as its GateStack's
if-chain, so no rendered hook, rhs, jac or block calls a stack; the rendered
text is kept in linecache, so inspect.getsource shows it.
"""

from __future__ import annotations

import ast
import functools
import itertools
import linecache
import math
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import AntiderivativeMismatch, ConfigError, GainFloorViolated
from .piecewise import GateStack, gate_chain, sat_poly

__all__ = [
    "VectorField",
    "NormalFormModel",
    "FieldSource",
    "PlainModel",
    "InverseSystem",
    "PlantSource",
    "ParameterizedPlant",
    "ConductanceParams",
    "kapitza",
    "fitzhugh_nagumo",
    "hh_conductance",
    "lorenz",
    "leaky_integrator",
    "neuron_family",
    "NEURON_M_INF",
    "NEURON_TAU",
    "NEURON_Z_INF",
    "NEURON_M_INT",
    "NEURON_GATES",
    "NEURON_UPDATE_GATES",
    "NEURON_GATE_SLOPES",
    "finite_difference_jacobian",
]


Vector = tuple[float, ...]
Rows = tuple[Vector, ...]

# Smallest |df/du| at which f_inv still inverts the output equation.
GAIN_FLOOR = 1e-8


@runtime_checkable
class VectorField(Protocol):
    """Anything the integrator can step: dimension, rhs, and a Jacobian.

    Fields are written in float form. rhs takes the state as any length-n
    sequence of floats (the integrator passes a tuple) and returns the
    derivative as a tuple of exactly n floats; jac takes the same arguments
    and returns the n rows of the Jacobian, each a tuple. The integrator steps
    Python floats, so a field never builds small arrays per call; callers
    that need an array wrap the result in np.asarray.
    """

    name: str
    n: int
    stiffness: float | None
    sample_box: tuple[tuple[float, float], ...]

    def rhs(self, t: float, state: Sequence[float], u: float) -> Vector: ...

    def jac(self, t: float, state: Sequence[float], u: float) -> Rows: ...


@dataclass(frozen=True)
class NormalFormModel:
    """Planar relative-degree-one model: output y' = f(t, y, z, u) and one
    internal state z' = g(t, z, y); the input enters through f only, and
    affinely.

    f and f_jac take y, z and u as floats or as arrays of one shape, which
    is how f_inv inverts a whole grid in one call; f_jac returns (df/dy,
    df/dz, df/du). g returns the internal drift as a float and g_jac returns
    (dg/dy, dg/dz).
    """

    n: ClassVar[int] = 2
    name: str
    f: Callable[[float, float, float, float], float]
    f_jac: Callable[[float, float, float, float], tuple[float, float, float]]
    g: Callable[[float, float, float], float]
    g_jac: Callable[[float, float, float], tuple[float, float]]
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()

    def rhs(self, t: float, state: Sequence[float], u: float) -> Vector:
        y, z = state[0], state[1]
        return (self.f(t, y, z, u), self.g(t, z, y))

    def jac(self, t: float, state: Sequence[float], u: float) -> Rows:
        y, z = state[0], state[1]
        dfy, dfz, _ = self.f_jac(t, y, z, u)
        return ((dfy, dfz), self.g_jac(t, z, y))

    def f_inv(self, t, y, z, v):
        """Solve f(t, y, z, u) = v for u, at one point or elementwise.

        t, y, z and v are floats or arrays that f and f_jac broadcast over.
        f is affine in u, so u = (v - f(t, y, z, 0)) / df/du in closed form.
        A gain |df/du| below GAIN_FLOOR raises GainFloorViolated naming the
        first time where it occurs; a residual above 1e-10 * max(1, |v|),
        which only a field that is not affine in u leaves, raises
        ArithmeticError.
        """
        _, _, g0 = self.f_jac(t, y, z, 0.0)
        f0 = self.f(t, y, z, 0.0)
        shape = np.broadcast_shapes(np.shape(t), np.shape(v), np.shape(f0), np.shape(g0))
        low = np.broadcast_to(np.abs(g0) < GAIN_FLOOR, shape)
        if low.any():
            i = tuple(np.argwhere(low)[0])
            g = np.broadcast_to(g0, shape)[i]
            raise GainFloorViolated(
                f"input gain {g:.3e} below floor {GAIN_FLOOR:.3e} "
                f"for {self.name} at t={np.broadcast_to(t, shape)[i]}"
            )
        u = np.array(np.broadcast_to((v - f0) / g0, shape))
        res = np.abs(self.f(t, y, z, u) - v)
        if not np.all(res <= 1e-10 * np.maximum(1.0, np.abs(v))):
            raise ArithmeticError(
                f"f_inv residual {np.max(res):.3e} for {self.name} exceeds "
                "1e-10 * max(1, |v|): f is not affine in u"
            )
        return u[()]


def _renamed(code: str, names: dict[str, str], strict: bool = False) -> str:
    """code, an expression or an assignment, with each name that names maps
    replaced by the source given for it: an identifier as it is, other
    source in parentheses. strict, a name that names does not map and math
    does not have raises ValueError."""
    tree = ast.parse(code)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Name):
            continue
        if node.id in names:
            src = names[node.id]
            node.id = src if src.isidentifier() else f"({src})"
        elif strict and node.id not in FieldSource.namespace:
            raise ValueError(f"field source reads unknown name {node.id!r}")
    return ast.unparse(tree)


def _assigned(lets: Sequence[str]) -> list[str]:
    """The names that the assignments lets bind, in order."""
    return [node.id for let in lets for node in ast.walk(ast.parse(let))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def _tuple(items: Sequence[str]) -> str:
    return "(" + " ".join(f"{e}," for e in items) + ")"


@dataclass(frozen=True)
class FieldSource:
    """A field's components written once, as Python expression source.

    states names the n state components and consts the field's constants,
    in the order of PlainModel.consts; exprs holds one expression per
    component over the states, t, u, the constants, the names of math (sin,
    cos, exp, ...) and the names that lets binds. lets are assignments run
    before the components: each binds an expression to a name, or is a gate
    lookup such as `m, tau = gates(y)`, which reads a stack of helpers, the
    (name, GateStack) pairs that are a source's only helpers, at one name
    and binds one name per gate. jac, when given, is the n rows of n
    Jacobian entries over the same names, with jac_lets run before them.
    The integrator writes the lets and the expressions into its RK4 block,
    each lookup as its stack's if-chain (gate_chain), and PlainModel renders
    its float-form rhs and jac from them, so the stepped and the called
    field have one definition and no rendered function calls a stack. Every
    name (states, constants, t, u, helpers and the names the lets and
    jac_lets bind) must be distinct.
    """

    states: tuple[str, ...]
    exprs: tuple[str, ...]
    consts: tuple[str, ...] = ()
    lets: tuple[str, ...] = ()
    jac: tuple[tuple[str, ...], ...] | None = None
    jac_lets: tuple[str, ...] = ()
    helpers: tuple[tuple[str, Callable], ...] = ()
    # The globals of rendered source: the names of math.
    namespace: ClassVar[dict[str, object]] = {
        k: v for k, v in vars(math).items() if not k.startswith("_")}

    def __post_init__(self) -> None:
        names = (*self.states, *self.consts, "t", "u", *(h for h, _ in self.helpers),
                 *_assigned((*self.lets, *self.jac_lets)))
        if len(set(names)) != len(names):
            raise ValueError(f"field source names must be distinct, got {names}")

    def written(self, states: Sequence[str], t: str, u: str,
                jac: bool = False) -> tuple[list[str], list[str]]:
        """The lets as lines of source and the components (with jac, the
        jac_lets and the Jacobian entries row by row), each name replaced by
        the source given for it: the i-th state by states[i], t by t, u by
        u, the j-th constant by k{j} and the j-th name the lets and jac_lets
        bind by v{j}; the names of math stay. A gate lookup is written as
        its stack's if-chain at the name its argument is given, which must
        be a name, over as many names as the stack has gates. Any other
        name, a helper among them, raises ValueError."""
        given = {**dict(zip(self.states, states)), "t": t, "u": u,
                 **{c: f"k{j}" for j, c in enumerate(self.consts)},
                 **{b: f"v{j}" for j, b in enumerate(_assigned((*self.lets, *self.jac_lets)))}}
        lets, exprs = ((self.jac_lets, [e for row in self.jac for e in row]) if jac
                       else (self.lets, self.exprs))
        stacks = dict(self.helpers)
        lines = []
        for let in lets:
            node = ast.parse(let).body[0]
            call = getattr(node, "value", None)
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) in stacks):
                lines.append(_renamed(let, given, True))
                continue
            y = _renamed(ast.unparse(call.args[0]), given, True) if len(call.args) == 1 else ""
            if not (y.isidentifier() and isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Tuple)):
                raise ValueError(f"a gate lookup binds a tuple of names at one name, got {let!r}")
            lines += gate_chain(stacks[call.func.id].gates, y,
                                [given[e.id] for e in node.targets[0].elts])
        return lines, [_renamed(e, given, True) for e in exprs]


_RENDERED = itertools.count()


def exec_rendered(text: str, name: str) -> dict[str, object]:
    """The scope that running the rendered source text leaves, started from
    the names of math. The text is kept in linecache under a file name of
    its own, `<name #k>`, so that inspect.getsource and tracebacks show the
    rendered lines."""
    filename = f"<{name} #{next(_RENDERED)}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    scope = dict(FieldSource.namespace)
    exec(compile(text, filename, "exec"), scope)
    return scope


def _compiled(nconsts: int, functions: Sequence[tuple[str, str, list[str], str]], name: str):
    """bind(k0, ..., k(nconsts-1)), rendered by exec_rendered: it binds the
    constants and returns the functions given as (name, arguments, lines of
    lets, returned tuple), each running its lets and returning its tuple
    (one function as itself, several as a tuple)."""
    lines = [f"def bind({', '.join(f'k{j}' for j in range(nconsts))}):"]
    for fn, args, lets, ret in functions:
        lines += [f"    def {fn}({args}):", *(f"        {s}" for s in lets),
                  f"        return {ret}"]
    lines.append(f"    return {', '.join(fn for fn, *_ in functions)}")
    return exec_rendered("\n".join(lines) + "\n", name)["bind"]


def _field_function(source: FieldSource, jac: bool):
    xs = [f"x{i}" for i in range(len(source.states))]
    lets, exprs = source.written(xs, "t", "u", jac)
    n = len(xs)
    ret = _tuple([_tuple(exprs[i * n:(i + 1) * n]) for i in range(n)] if jac else exprs)
    name = "jac" if jac else "rhs"
    return _compiled(len(source.consts), [(name, "t, s, u", [f"{_tuple(xs)} = s", *lets], ret)],
                     f"field {name}")


@functools.cache
def _rendered_rhs(source: FieldSource):
    """bind(*consts) returning the float-form rhs(t, s, u) of a field source,
    rendered and compiled on the first model of that source: it unpacks s
    into x0..x(n-1), runs the lets and returns the components."""
    return _field_function(source, False)


@functools.cache
def _rendered_jac(source: FieldSource):
    """bind(*consts) returning jac(t, s, u), the Jacobian rows of a field
    source that declares jac, rendered like _rendered_rhs."""
    return _field_function(source, True)


# The rendered rhs and jac of each source bound to its constants, kept while
# a model holds them: a model rebuilt from the same source and constants (as
# dataclasses.replace rebuilds it) gets the same functions back. The
# constants are keyed by repr, which tells -0.0 from 0.0.
_BOUND: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _bound(source: FieldSource, jac: bool, consts: tuple[float, ...]):
    key = (source, jac, tuple(map(repr, consts)))
    fn = _BOUND.get(key)
    if fn is None:
        fn = _BOUND[key] = (_rendered_jac if jac else _rendered_rhs)(source)(*consts)
    return fn


@dataclass(frozen=True)
class PlainModel:
    """A vector field given directly, for systems not kept in normal form.

    rhs and jac are the field's own callables, stored as fields and called
    without a forwarding method, and follow the float form of VectorField:
    the state comes as a float sequence, the derivative goes back as a tuple
    and the Jacobian as a tuple of rows. jac may be None for a field that is
    only ever stepped.

    A field may instead declare its components as source, with the values
    of the source's constants in consts. rhs is then rendered from the
    source, and so is jac when the source declares one; the integrator
    writes the same expressions into its RK4 block in place of the rhs
    calls, and flow writes the Jacobian's too. A source of other than n
    components, a jac source of other than n rows of n, consts of other than
    its constants' count, or an rhs (or a jac, when the source declares one)
    given beside a source other than the one the source renders raise
    ValueError.
    """

    name: str
    n: int
    rhs: Callable[[float, Sequence[float], float], Vector] | None
    jac: Callable[[float, Sequence[float], float], Rows] | None
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()
    source: FieldSource | None = None
    consts: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        src = self.source
        if src is None:
            return
        if len(src.exprs) != self.n or len(src.states) != self.n:
            raise ValueError(f"field source of {self.name} must have {self.n} components")
        if src.jac is not None and (len(src.jac) != self.n
                                    or any(len(row) != self.n for row in src.jac)):
            raise ValueError(f"jac source of {self.name} must be {self.n} rows of {self.n}")
        if len(self.consts) != len(src.consts):
            raise ValueError(f"{self.name} needs values for the constants {src.consts}")
        for attr, jac in (("rhs", False), ("jac", True)):
            if jac and src.jac is None:
                continue
            own, given = _bound(src, jac, self.consts), getattr(self, attr)
            if given is not None and given is not own:
                raise ValueError(f"{self.name} has a field source, so its {attr} is rendered")
            object.__setattr__(self, attr, own)


def InverseSystem(model: NormalFormModel) -> PlainModel:
    """Internal dynamics of a model, driven by the output.

    The input channel of the returned field is the output y of the original
    model, so feeding a reference output simulates the stationary internal
    response used when reconstructing feedforward inputs.
    """
    g, g_jac = model.g, model.g_jac

    def rhs(t: float, z: Sequence[float], u: float) -> Vector:
        return (g(t, z[0], u),)

    def jac(t: float, z: Sequence[float], u: float) -> Rows:
        return ((g_jac(t, z[0], u)[1],),)

    return PlainModel(
        name=f"{model.name}-inverse",
        n=1,
        rhs=rhs,
        jac=jac,
        stiffness=model.stiffness,
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


_KAPITZA = FieldSource(("q", "p"), ("p", "-beta * sin(q) - gamma * p + alpha * u"),
                       ("alpha", "beta", "gamma"),
                       jac=(("0.0", "1.0"), ("-beta * cos(q)", "-gamma")))


def kapitza(alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0) -> PlainModel:
    """Damped pendulum with torque input: ydd = -beta sin y - gamma yd + alpha u,
    stepped as the state (y, yd)."""
    if alpha == 0.0:
        raise ConfigError("alpha must be nonzero")
    return PlainModel(
        name="kapitza",
        n=2,
        rhs=None,
        jac=None,
        sample_box=((math.pi - 2.0, math.pi + 2.0), (-3.0, 3.0)),
        source=_KAPITZA,
        consts=(alpha, beta, gamma),
    )


def fitzhugh_nagumo(
    alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0, eps: float = 0.1
) -> NormalFormModel:
    """Fast-slow planar relaxation model: eps yd = a y - b y^3 - c z + u, zd = -z + y."""
    if not (alpha > 0 and beta > 0 and gamma > 0 and eps > 0):
        raise ConfigError("parameters must be positive")
    if not 2.0 * alpha < 3.0 * gamma:
        warnings.warn(
            "2*alpha >= 3*gamma: the free system may not oscillate", stacklevel=2
        )

    def f(t, y, z, u):
        return (alpha * y - beta * y * y * y - gamma * z + u) / eps

    def f_jac(t, y, z, u):
        return (alpha - 3.0 * beta * y * y) / eps, -gamma / eps, 1.0 / eps

    def g(t, z, y):
        return y - z

    def g_jac(t, z, y):
        return 1.0, -1.0

    return NormalFormModel(
        name="fhn",
        f=f,
        f_jac=f_jac,
        g=g,
        g_jac=g_jac,
        stiffness=eps,
        sample_box=((-2.5, 2.5), (-1.5, 1.5)),
    )


def _tanh(x):
    """np.tanh, as a float for a scalar argument and as an array otherwise.

    math.tanh is not used: it differs from np.tanh in the last bit for some
    arguments, and the stepped field must read the same f as f_inv does over
    arrays.
    """
    v = np.tanh(x)
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class ConductanceParams:
    """Two-gate conductance membrane model parameters.

    The reversal potentials must satisfy E_s < E, V_f, V_s < E_f so the fast
    gate depolarizes and the slow gate repolarizes.
    """

    g: float = 1.0
    E: float = 0.0
    gbar_f: float = 2.0
    E_f: float = 2.0
    kappa_f: float = 5.0
    V_f: float = 0.0
    gbar_s: float = 2.0
    E_s: float = -2.0
    kappa_s: float = 5.0
    V_s: float = 0.0
    eps: float = 0.01

    def __post_init__(self) -> None:
        inner = (self.E, self.V_f, self.V_s)
        if not (self.E_s < min(inner) and max(inner) < self.E_f):
            raise ConfigError("reversal ordering E_s < E, V_f, V_s < E_f violated")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    def total_conductance(self, y, z):
        """-eps * df/dy, the instantaneous total conductance, at a point or
        elementwise over arrays of y and z."""
        t_f = _tanh(self.kappa_f * (y - self.V_f))
        t_s = _tanh(self.kappa_s * (z - self.V_s))
        return self.gated_conductance(t_f, t_s, y)

    def gated_conductance(self, t_f, t_s, y):
        """The total conductance from the gate values t_f = tanh(kappa_f
        (y - V_f)) and t_s = tanh(kappa_s (z - V_s)), for a caller that has
        already computed them."""
        return (
            self.g
            + self.gbar_f * (1.0 + t_f)
            + self.gbar_s * (1.0 + t_s)
            + self.gbar_f * self.kappa_f * (1.0 - t_f * t_f) * (y - self.E_f)
        )


def hh_conductance(params: ConductanceParams) -> NormalFormModel:
    """Conductance membrane model with first-order slow gate zd = -z + y.

    eps yd = -g (y - E) - gbar_f (1 + tanh(kappa_f (y - V_f))) (y - E_f)
    - gbar_s (1 + tanh(kappa_s (z - V_s))) (y - E_s) + u. f and f_jac take
    floats or arrays; on floats they return floats.
    """
    p = params
    g_l, E, eps = p.g, p.E, p.eps
    gbar_f, E_f, kappa_f, V_f = p.gbar_f, p.E_f, p.kappa_f, p.V_f
    gbar_s, E_s, kappa_s, V_s = p.gbar_s, p.E_s, p.kappa_s, p.V_s
    gated_conductance = p.gated_conductance

    def f(t, y, z, u):
        t_f = _tanh(kappa_f * (y - V_f))
        t_s = _tanh(kappa_s * (z - V_s))
        return (
            -g_l * (y - E)
            - gbar_f * (1.0 + t_f) * (y - E_f)
            - gbar_s * (1.0 + t_s) * (y - E_s)
            + u
        ) / eps

    def f_jac(t, y, z, u):
        t_f = _tanh(kappa_f * (y - V_f))
        t_s = _tanh(kappa_s * (z - V_s))
        return (
            -gated_conductance(t_f, t_s, y) / eps,
            -(gbar_s * kappa_s * (1.0 - t_s * t_s) * (y - E_s)) / eps,
            1.0 / eps,
        )

    def g(t, z, y):
        return y - z

    def g_jac(t, z, y):
        return 1.0, -1.0

    return NormalFormModel(
        name="hh",
        f=f,
        f_jac=f_jac,
        g=g,
        g_jac=g_jac,
        stiffness=eps,
        sample_box=((-1.6, 1.6), (-1.2, 1.2)),
    )


_LORENZ = FieldSource(("x1", "x2", "z"),
                      ("sigma * (x2 - x1)", "x1 * (rho - z) - x2 + u", "x1 * x2 - beta * z"),
                      ("sigma", "rho", "beta"),
                      jac=(("-sigma", "sigma", "0.0"), ("rho - z", "-1.0", "-x1"),
                           ("x2", "x1", "-beta")))


def lorenz(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0) -> PlainModel:
    """Lorenz field with the input added to the second state equation."""
    return PlainModel(
        name="lorenz",
        n=3,
        rhs=None,
        jac=None,
        sample_box=((-20.0, 20.0), (-25.0, 25.0), (0.0, 45.0)),
        source=_LORENZ,
        consts=(sigma, rho, beta),
    )


_LEAKY = FieldSource(("z",), ("(u - z) / tau",), ("tau",), jac=(("-1.0 / tau",),))


def leaky_integrator(tau: float = 1.0) -> PlainModel:
    """Scalar tau zd = -z + u, the textbook fading-memory system (rate -1/tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return PlainModel(
        name="leaky-integrator",
        n=1,
        rhs=None,
        jac=None,
        sample_box=((-2.0, 2.0),),
        source=_LEAKY,
        consts=(tau,),
    )


# ---------------------------------------------------------------------------
# neuron plant with unknown conductance parameters
# ---------------------------------------------------------------------------

_NEURON_EPS = 0.02
_CUBIC = tuple(c / 0.343 for c in (-2.0, 0.9, 0.6, 0.068))

NEURON_M_INF = sat_poly(0.0, 1.0, _CUBIC)
NEURON_M_INF_PRIME = NEURON_M_INF.derivative()
NEURON_TAU = sat_poly(0.2, 1.0, (-40.0, 10.2))
NEURON_TAU_PRIME = NEURON_TAU.derivative()
NEURON_Z_INF = sat_poly(0.0, 1.0, (1.0 / 0.42, 0.17 / 0.42))
NEURON_Z_INF_PRIME = NEURON_Z_INF.derivative()
# Antiderivative of m_inf(y) * (y - 1), the piece of the update antiderivative
# that cannot be written with a single polynomial.
NEURON_M_INT = NEURON_M_INF.multiply_poly((1.0, -1.0)).antiderivative()
# The gates each hook of the neuron plant reads, one lookup per call, written
# into every rendered function as the stack's if-chain: values reads
# NEURON_GATES, update NEURON_UPDATE_GATES and derivatives NEURON_GATE_SLOPES.
# The first and last merge the same breaks: the y-levels where the plant's
# Jacobian jumps.
NEURON_GATES = GateStack(NEURON_M_INF, NEURON_TAU, NEURON_Z_INF)
NEURON_UPDATE_GATES = GateStack(NEURON_M_INT)
NEURON_GATE_SLOPES = GateStack(NEURON_M_INF, NEURON_M_INF_PRIME, NEURON_TAU,
                               NEURON_TAU_PRIME, NEURON_Z_INF, NEURON_Z_INF_PRIME)


_Hook = tuple[tuple[str, ...], tuple[str, ...]]

# Each hook of a plant source: its name, the names it reads as arguments and
# the argument list of the rendered hook.
_HOOKS = (("values", ("y", "z", "th0", "th1"), "t, y, z, u, th0, th1"),
          ("update", ("y",), "y"),
          ("derivatives", ("y", "z", "th0", "th1"), "t, y, z, u, th0, th1"))


@dataclass(frozen=True)
class PlantSource:
    """The three hooks of a ParameterizedPlant, written once as source.

    Each hook is a pair (lets, exprs), like the lets and exprs of a
    FieldSource: assignments run first, then the expressions of the tuple
    the hook returns. values and derivatives read y, z, t, u, th0 and th1,
    update reads y; all read the constants consts, the helpers and the
    names of math. The plant's hooks are rendered from it, and
    ParameterizedPlant.model, coupled_system and error_system build their
    field sources from it, so the hooks, the stepped fields and their
    Jacobians have one definition.
    """

    values: _Hook
    update: _Hook
    derivatives: _Hook
    consts: tuple[str, ...] = ()
    helpers: tuple[tuple[str, Callable], ...] = ()

    def hook(self, name: str, suffix: str = "", **names: str) -> _Hook:
        """One hook with each name in names replaced by the source given for
        it and each name its lets bind suffixed, so that two copies of a
        hook, or the values and derivatives lets, fit in one field source."""
        lets, exprs = getattr(self, name)
        names = {**names, **{b: b + suffix for b in _assigned(lets)}}
        return (tuple(_renamed(s, names) for s in lets),
                tuple(_renamed(e, names) for e in exprs))

    def field(self, states: tuple[str, ...], exprs: Sequence[str], lets: Sequence[str],
              consts: tuple[str, ...] = (), jac: tuple[tuple[str, ...], ...] | None = None,
              jac_lets: Sequence[str] = ()) -> FieldSource:
        """A field source over this plant's constants, then consts, and its
        helpers."""
        return FieldSource(states, tuple(exprs), (*self.consts, *consts), tuple(lets), jac,
                           tuple(jac_lets), self.helpers)


@functools.cache
def _rendered_hooks(source: PlantSource):
    """bind(*consts) returning the (values, update, derivatives) of a plant
    source, rendered and compiled on the first plant of that source."""
    functions = []
    for name, names, args in _HOOKS:
        lets, exprs = getattr(source, name)
        field_source = source.field(names, exprs, lets)
        lets, exprs = field_source.written(names, "t", "u")
        functions.append((name, args, lets, _tuple(exprs)))
    return _compiled(len(source.consts), functions, "plant hooks")


@functools.cache
def _antiderivative_gap(source: PlantSource, consts: tuple[str, ...], lo: float,
                        hi: float) -> float:
    """The largest miss of hu by the centered difference of H (step 1e-7) at
    401 points spanning [lo, hi], for the hooks of a plant source bound to
    the constants given by float.hex (which tells -0.0 from 0.0): computed
    once per plant source, constants and interval, however often a plant is
    built from them."""
    _, update, derivatives = _rendered_hooks(source)(*map(float.fromhex, consts))
    worst = 0.0
    for y in np.linspace(lo, hi, 401):
        fd = (np.asarray(update(y + 1e-7)) - np.asarray(update(y - 1e-7))) / 2e-7
        hu = derivatives(0.0, y, 0.0, 0.0, 0.0, 0.0)[6:]
        worst = max(worst, float(np.max(np.abs(fd - hu))))
    return worst


@dataclass(frozen=True)
class ParameterizedPlant:
    """Planar relative-degree-one plant whose output equation is linear in
    m = 2 unknown parameters.

    yd = f0(t, y, z, u) + h(y) . theta, zd = g(t, z, y), declared once as a
    PlantSource with the values of its constants in consts. Three hooks,
    rendered from it, give the plant at one point, all floats, each
    returning as a flat tuple only what its reader uses. values(t, y, z, u,
    th0, th1) returns (yd, zd) at theta = (th0, th1), with h(y) . theta
    written out left to right and added to f0 last: what an rhs reads.
    update(y) returns the update antiderivative (H0, H1), which only the
    observer's parameter rows read. derivatives(t, y, z, u, th0, th1)
    returns (dyd/dy, dyd/dz, dzd/dy, dzd/dz, h0, h1, hu0, hu1), what a jac
    reads: the plant Jacobian at theta, the regressor h (the Jacobian's
    theta column) and the update regressor hu = dH/dy. h, hu and H depend
    on y alone. model(theta) is the plant for fixed parameters, a PlainModel
    whose source writes the values expressions as its components and the
    first four derivatives expressions as its Jacobian.

    Construction raises AntiderivativeMismatch when the centered difference
    of H (step 1e-7) misses hu by more than 1e-6 at any of 401 points
    spanning sample_box[0].
    """

    n: ClassVar[int] = 2
    m: ClassVar[int] = 2
    name: str
    source: PlantSource
    theta_box: tuple[tuple[float, float], ...]
    consts: tuple[float, ...] = ()
    stiffness: float | None = None
    sample_box: tuple[tuple[float, float], ...] = ()
    values: Callable[[float, float, float, float, float, float], tuple[float, float]] = field(
        init=False, repr=False, compare=False)
    update: Callable[[float], tuple[float, float]] = field(init=False, repr=False, compare=False)
    derivatives: Callable[[float, float, float, float, float, float], Vector] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.consts) != len(self.source.consts):
            raise ValueError(f"{self.name} needs values for the constants {self.source.consts}")
        hooks = _rendered_hooks(self.source)(*self.consts)
        for (name, _, _), hook in zip(_HOOKS, hooks):
            object.__setattr__(self, name, hook)
        lo, hi = self.sample_box[0]
        worst = _antiderivative_gap(self.source, tuple(float(c).hex() for c in self.consts),
                                     lo, hi)
        if worst > 1e-6:
            raise AntiderivativeMismatch(
                f"centered difference of H deviates from h by {worst:.3e} on [{lo}, {hi}]"
            )

    def model(self, theta: np.ndarray) -> PlainModel:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.m,):
            raise ConfigError(f"theta must have shape ({self.m},)")
        src = self.source
        lets, exprs = src.values
        jac_lets, d = src.hook("derivatives", "_d")
        return PlainModel(
            name=f"{self.name}-theta",
            n=self.n,
            rhs=None,
            jac=None,
            stiffness=self.stiffness,
            sample_box=self.sample_box,
            source=src.field(("y", "z"), exprs, lets, ("th0", "th1"),
                             ((d[0], d[1]), (d[2], d[3])), jac_lets),
            consts=(*self.consts, *theta.tolist()),
        )


# The neuron plant: each hook reads its gates with one lookup of its own
# stack, written in as the stack's if-chain.
_NEURON = PlantSource(
    values=(("m, tau, z_inf = gates(y)",),
            ("inv_eps * (-2.0 * z * (y + 0.7) + 0.15 + u)"
             " + (-inv_eps * (y + 0.4) * th0 + -inv_eps * (m * (y - 1.0)) * th1)",
             "(z_inf - z) / tau")),
    update=(("m_int, = update_gates(y)",), ("-(0.5 * y**2 + 0.4 * y)", "-m_int")),
    derivatives=(("m, dm, tau, dtau, z_inf, dz_inf = slopes(y)",),
                 ("inv_eps * (-2.0 * z) + (-inv_eps * th0 + -inv_eps * (dm * (y - 1.0) + m) * th1)",
                  "inv_eps * (-2.0 * (y + 0.7))",
                  "(dz_inf * tau - (z_inf - z) * dtau) / tau**2",
                  "-1.0 / tau",
                  "-inv_eps * (y + 0.4)",
                  "-inv_eps * (m * (y - 1.0))",
                  "-(y + 0.4)",
                  "-(m * (y - 1.0))")),
    consts=("inv_eps",),
    helpers=(("gates", NEURON_GATES), ("update_gates", NEURON_UPDATE_GATES),
             ("slopes", NEURON_GATE_SLOPES)),
)


def neuron_family() -> ParameterizedPlant:
    """Bursting-neuron plant with two unknown conductance parameters.

    0.02 yd = -2 z (y + 0.7) + 0.15 + u - (y + 0.4, m_inf(y)(y - 1)) . theta
    tau(y) zd = -z + z_inf(y), with saturated-polynomial gates. Each hook
    reads its gates with one lookup of its own stack, written into it as the
    stack's if-chain: values NEURON_GATES, update NEURON_UPDATE_GATES and
    derivatives NEURON_GATE_SLOPES; the first and last give m_inf the same
    bits, so h is the same whichever hook reads it.
    """
    return ParameterizedPlant(
        name="neuron",
        source=_NEURON,
        theta_box=((0.3, 0.7), (1.1, 1.9)),
        consts=(1.0 / _NEURON_EPS,),
        stiffness=_NEURON_EPS,
        sample_box=((-1.1, 1.1), (-0.1, 1.1)),
    )


def finite_difference_jacobian(
    model: VectorField, t: float, state: np.ndarray, u: float, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian, for checking the analytic one."""
    state = np.asarray(state, dtype=float)
    n = state.size
    J = np.empty((n, n))
    for j in range(n):
        h = rel_step * max(1.0, abs(state[j]))
        sp, sm = state.copy(), state.copy()
        sp[j] += h
        sm[j] -= h
        J[:, j] = (np.asarray(model.rhs(t, sp, u)) - np.asarray(model.rhs(t, sm, u))) / (2.0 * h)
    return J
