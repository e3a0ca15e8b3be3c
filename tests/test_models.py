import dataclasses
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condux.config import config_from_dict
from condux.errors import GainFloorViolated
from condux.lure import (
    CHUA_A,
    CHUA_B,
    CHUA_C,
    chua_linearization,
    chua_nonlinearity,
    chua_system,
)
import condux.models
from condux.models import (
    ConductanceParams,
    FieldSource,
    InverseSystem,
    NormalFormModel,
    PlainModel,
    VectorField,
    finite_difference_jacobian,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    NEURON_GATE_SLOPES,
    NEURON_GATES,
    NEURON_M_INF,
    NEURON_M_INF_PRIME,
    NEURON_M_INT,
    NEURON_TAU,
    NEURON_TAU_PRIME,
    NEURON_Z_INF,
    NEURON_Z_INF_PRIME,
    leaky_integrator,
    lorenz,
    neuron_family,
)
from condux.observer import coupled_system, error_system
from condux.piecewise import GateStack, PiecewisePoly, sat_poly
from condux.variational import _with_variations
from conftest import (
    coupled_with_jac,
    kapitza_oracle,
    leaky_oracle,
    lorenz_oracle,
    neuron_field_oracles,
    neuron_hook_oracles,
    planar_limit_cycle,
)

BUILTINS = [
    kapitza(),
    fitzhugh_nagumo(),
    hh_conductance(ConductanceParams()),
    lorenz(10.0, 28.0, 8.0 / 3.0),
    chua_system(),
    planar_limit_cycle(),
    leaky_integrator(2.0),
    neuron_family().model(np.array([0.5, 1.5])),
    # the coupled Jacobian carries the observer contraction certificate
    coupled_with_jac(neuron_family(), np.array([0.5, 1.5])),
]


@pytest.mark.parametrize("model", BUILTINS, ids=lambda m: m.name)
def test_jacobian_matches_finite_difference(model):
    rng = np.random.default_rng(11)
    box = model.sample_box or ((-1.0, 1.0),) * model.n
    lows = np.array([b[0] for b in box])
    highs = np.array([b[1] for b in box])
    for _ in range(40):
        s = rng.uniform(lows, highs)
        u = float(rng.uniform(-1.0, 1.0))
        J = model.jac(0.3, s, u)
        Jfd = finite_difference_jacobian(model, 0.3, s, u)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-5


class TestKapitza:
    def test_chain_structure(self):
        m = kapitza()
        s = np.array([0.4, -0.2])
        out = m.rhs(0.0, s, 0.7)
        assert out[0] == s[1]
        assert out[1] == pytest.approx(-math.sin(0.4) + 0.2 + 0.7)

    def test_alpha_zero_rejected(self):
        with pytest.raises(Exception):
            kapitza(alpha=0.0)


_SOURCED = [
    pytest.param(kapitza, kapitza_oracle, (1.0, 1.0, 1.0), id="kapitza"),
    pytest.param(kapitza, kapitza_oracle, (2.0, 0.5, 3.0), id="kapitza-2-0.5-3"),
    pytest.param(kapitza, kapitza_oracle, (-0.3, 7.0, 0.0), id="kapitza-negative"),
    pytest.param(lorenz, lorenz_oracle, (10.0, 28.0, 8.0 / 3.0), id="lorenz"),
    pytest.param(lorenz, lorenz_oracle, (1.5, -2.0, 0.1), id="lorenz-other"),
    pytest.param(leaky_integrator, leaky_oracle, (1.0,), id="leaky"),
    pytest.param(leaky_integrator, leaky_oracle, (0.3,), id="leaky-0.3"),
]


def _sampled_states(field):
    """200 states of the field's sample box and 200 of the box scaled by
    1e3, with a time and an input each."""
    rng = np.random.default_rng(3)
    lows, highs = np.array(field.sample_box).T
    for scale in (1.0, 1e3):
        for _ in range(200):
            s = scale * rng.uniform(lows, highs)
            yield s, float(rng.uniform(0.0, 5.0)), float(rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("make, oracle, consts", _SOURCED)
def test_rendered_rhs_gives_the_closure_bits(make, oracle, consts):
    # on tuples of floats and on numpy arrays, the rhs rendered from a
    # field's source returns the components of the closure it replaced
    field, ref = make(*consts), oracle(*consts)[0]
    assert field.source is not None and field.consts == consts
    for s, t, u in _sampled_states(field):
        for state in (tuple(s.tolist()), s):
            got, want = field.rhs(t, state, u), ref(t, state, u)
            assert len(got) == field.n
            assert [float(g).hex() for g in got] == [float(w).hex() for w in want]


@pytest.mark.parametrize("make, oracle, consts", _SOURCED)
def test_rendered_jac_gives_the_closure_bits(make, oracle, consts):
    # the jac rendered from the source's Jacobian entries returns the rows
    # of the closure it replaced, signed zeros included
    field, ref = make(*consts), oracle(*consts)[1]
    assert field.source.jac is not None
    for s, t, u in _sampled_states(field):
        for state in (tuple(s.tolist()), s):
            got, want = field.jac(t, state, u), ref(t, state, u)
            assert [len(row) for row in got] == [field.n] * field.n
            assert ([float(g).hex() for row in got for g in row]
                    == [float(w).hex() for row in want for w in row])


def test_a_sourced_field_survives_replace():
    # dataclasses.replace hands the new model the rhs and jac its source
    # rendered, which it accepts; any other rhs or jac beside a source is
    # still rejected, one rendered for other constants included
    field = kapitza()
    renamed = dataclasses.replace(field, name="k2")
    assert renamed.name == "k2"
    assert renamed.rhs is field.rhs and renamed.jac is field.jac
    other = kapitza(2.0, 1.0, 1.0)
    for attr in ("rhs", "jac"):
        for fn in (getattr(other, attr), lambda t, s, u: (0.0, 0.0)):
            with pytest.raises(ValueError, match=f"its {attr} is rendered"):
                dataclasses.replace(field, **{attr: fn})
    # a closure jac beside a source without one stays the model's own
    coupled = coupled_with_jac(neuron_family(), np.array([0.5, 1.5]))
    assert coupled.source is not None and coupled.source.jac is None
    assert coupled.jac is not None


def test_constants_that_differ_only_in_the_sign_of_zero_get_their_own_rhs():
    # the rendered functions are shared per source and constants, told
    # apart by repr: gamma = -0.0 keeps its sign
    plus, minus = kapitza(1.0, 1.0, 0.0), kapitza(1.0, 1.0, -0.0)
    assert plus.rhs is not minus.rhs
    assert plus.rhs is kapitza(1.0, 1.0, 0.0).rhs
    s = (0.0, 1.0)
    assert plus.rhs(0.0, s, 0.0)[1].hex() == kapitza_oracle(1.0, 1.0, 0.0)[0](0.0, s, 0.0)[1].hex()
    assert minus.rhs(0.0, s, 0.0)[1].hex() == kapitza_oracle(1.0, 1.0, -0.0)[0](0.0, s, 0.0)[1].hex()
    assert plus.jac(0.0, s, 0.0)[1][1].hex() != minus.jac(0.0, s, 0.0)[1][1].hex()


@pytest.mark.parametrize("kwargs, match", [
    (dict(n=3, rhs=None, source=FieldSource(("q", "p"), ("p", "-q"))), "components"),
    (dict(n=2, rhs=None, source=FieldSource(("q", "p"), ("p",))), "components"),
    (dict(n=1, rhs=None, source=FieldSource(("z",), ("-k * z",), ("k",))), "constants"),
    (dict(n=1, rhs=None, source=FieldSource(("z",), ("-k * z",), ("k",)), consts=(1.0, 2.0)),
     "constants"),
    (dict(n=1, rhs=lambda t, s, u: (0.0,), source=FieldSource(("z",), ("-z",))), "rendered"),
    (dict(n=1, rhs=None, source=FieldSource(("z",), ("-z * w",))), "unknown name 'w'"),
    (dict(n=2, rhs=None, source=FieldSource(("q", "p"), ("p", "-q"), jac=(("0.0", "1.0"),))),
     "rows"),
    (dict(n=2, rhs=None, source=FieldSource(("q", "p"), ("p", "-q"),
                                            jac=(("0.0", "1.0"), ("-1.0",)))), "rows"),
    (dict(n=1, rhs=None, source=FieldSource(("z",), ("-z",), jac=(("-w",),))),
     "unknown name 'w'"),
    (dict(n=1, rhs=None, source=FieldSource(("z",), ("-z",), lets=("w = f(z)",))),
     "unknown name 'f'"),
])
def test_a_field_source_that_does_not_fit_is_rejected(kwargs, match):
    # a source of other than n components, a jac of other than n rows of
    # n, constants without their values, an rhs beside a source or a name
    # that is neither a state, t, u, a constant, a helper, a let nor in math
    # fails at construction, not in the first run
    with pytest.raises(ValueError, match=match):
        PlainModel(name="bad", jac=None, **kwargs)


@pytest.mark.parametrize("states, consts", [(("t", "p"), ()), (("q", "q"), ()),
                                            (("q", "p"), ("q",)), (("u", "p"), ())])
def test_field_source_names_must_be_distinct(states, consts):
    with pytest.raises(ValueError, match="distinct"):
        FieldSource(states, ("0.0", "0.0"), consts)


@pytest.mark.parametrize("lets, jac_lets", [
    (("p = q",), ()), (("a, b = f(q)",), ("b = q",)), (("f = q",), ()), (("t = q",), ())])
def test_names_the_lets_bind_must_be_distinct(lets, jac_lets):
    # from the states, constants, t, u, helpers and each other, jac_lets
    # included
    with pytest.raises(ValueError, match="distinct"):
        FieldSource(("q", "p"), ("0.0", "0.0"), ("k",), lets, jac_lets=jac_lets,
                    helpers=(("f", math.sin),))


@given(y=st.floats(-1.6, 1.6), z=st.floats(-1.2, 1.2))
@settings(max_examples=60, deadline=None)
def test_hh_f_jac_reads_the_conductance_of_its_own_gates(y, z):
    # f_jac builds df/dy from the two gate values it computes, with the bits
    # of total_conductance, and takes np.tanh twice per call, not three times
    p = ConductanceParams()
    model = hh_conductance(p)
    calls = []
    tanh = condux.models._tanh

    def counted(x):
        calls.append(x)
        return tanh(x)

    condux.models._tanh = counted
    try:
        dfy, _, _ = model.f_jac(0.0, y, z, 0.0)
    finally:
        condux.models._tanh = tanh
    assert len(calls) == 2
    assert dfy.hex() == (-p.total_conductance(y, z) / p.eps).hex()


def _still(t, z, y):
    return 0.0


def _still_jac(t, z, y):
    return 0.0, 0.0


# bounded f = tanh(u): not affine in u, so the closed form misses every
# target but v = 0
SATURATING = NormalFormModel(
    name="saturating",
    f=lambda t, y, z, u: np.tanh(u),
    f_jac=lambda t, y, z, u: (0.0, 0.0, np.maximum(1.0 / np.cosh(u) ** 2, 1e-6)),
    g=_still,
    g_jac=_still_jac,
)


def test_f_inv_unreachable_target():
    # no u reaches v = 2, which must be reported alone or among reachable
    # targets
    with pytest.raises(ArithmeticError):
        SATURATING.f_inv(0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ArithmeticError):
        SATURATING.f_inv(np.zeros(3), np.zeros(3), np.zeros(3), np.array([0.5, 2.0, -0.5]))


def test_f_inv_rejects_a_field_not_affine_in_u():
    assert SATURATING.f_inv(0.0, 0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ArithmeticError, match="not affine in u"):
        SATURATING.f_inv(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ArithmeticError, match="not affine in u"):
        SATURATING.f_inv(np.zeros(3), np.zeros(3), np.zeros(3), np.array([0.0, 0.5, -0.5]))


def test_f_inv_names_the_first_time_below_the_gain_floor():
    # f = y u has no input gain where y = 0
    bilinear = NormalFormModel(
        name="bilinear",
        f=lambda t, y, z, u: y * u,
        f_jac=lambda t, y, z, u: (u, 0.0, y),
        g=_still, g_jac=_still_jac,
    )
    with pytest.raises(GainFloorViolated, match=r"at t=2\.0$"):
        bilinear.f_inv(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]),
                       np.zeros(3), np.ones(3))


class TestConductance:
    def setup_method(self):
        self.m = hh_conductance(ConductanceParams())

    @given(
        y=st.floats(-1.4, 1.3),
        z=st.floats(-0.8, 0.8),
        v=st.floats(-40.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_inv_residual(self, y, z, v):
        u = self.m.f_inv(0.0, y, z, v)
        assert abs(self.m.f(0.0, y, z, u) - v) <= 1e-10 * max(1.0, abs(v))

    def test_parameter_ordering_enforced(self):
        with pytest.raises(Exception):
            hh_conductance(ConductanceParams(E_s=3.0))


@pytest.mark.parametrize("model", [hh_conductance(ConductanceParams()), fitzhugh_nagumo()],
                         ids=lambda m: m.name)
@given(pts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-1.5, 1.5),
                              st.floats(-40.0, 40.0), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_f_inv_over_arrays_matches_pointwise(model, pts):
    # one call over whole arrays meets the residual bound at every point and
    # gives the bits of the per-point call; so do the gains of f_jac.
    # Hypothesis favours simple floats, on which even y**3 agrees, so every
    # example also carries 256 uniform points.
    rng = np.random.default_rng(len(pts))
    more = rng.uniform((-2.0, -1.5, -40.0, -10.0), (2.0, 1.5, 40.0, 10.0), (256, 4))
    y, z, v, t = np.concatenate([np.array(pts), more]).T
    u = model.f_inv(t, y, z, v)
    assert u.shape == v.shape
    assert np.all(np.abs(model.f(t, y, z, u) - v) <= 1e-10 * np.maximum(1.0, np.abs(v)))
    one = [model.f_inv(tk, yk, zk, vk) for yk, zk, vk, tk in zip(y, z, v, t)]
    assert np.array_equal(u.view(np.int64), np.array(one).view(np.int64))
    for k in range(2):
        tab = np.broadcast_to(model.f_jac(t, y, z, u)[k], y.shape)
        one = [model.f_jac(tk, yk, zk, uk)[k] for yk, zk, uk, tk in zip(y, z, u, t)]
        assert np.array_equal(tab.view(np.int64), np.array(one).view(np.int64))


def _float_form_fields():
    """(field, box) for every built-in field, with its id: the box is the
    field's own sample_box, or one put together from the boxes of the model
    it is built from. flow's joint field draws its Phi entries from [-1, 1]."""
    plant = neuron_family()
    th = np.array([0.5, 1.5])
    y_box, z_box = plant.sample_box
    kap, fhn, hh, neuron = (kapitza(), fitzhugh_nagumo(), hh_conductance(ConductanceParams()),
                            plant.model(th))
    own = [kap, fhn, hh, lorenz(), leaky_integrator(2.0), chua_system(), neuron]
    cases = [pytest.param(m, m.sample_box, id=m.name) for m in own]
    cases += [
        pytest.param(coupled_with_jac(plant, th), (y_box, z_box, y_box, z_box, *plant.theta_box),
                     id="observer"),
        pytest.param(error_system(plant), (y_box, z_box, *plant.theta_box), id="observer-error"),
        pytest.param(InverseSystem(fhn), (fhn.sample_box[1],), id="fhn-inverse"),
        pytest.param(InverseSystem(hh), (hh.sample_box[1],), id="hh-inverse"),
    ]
    cases += [pytest.param(_with_variations(m), m.sample_box + ((-1.0, 1.0),) * m.n**2,
                           id=f"joint-{m.name}") for m in (kap, fhn, hh, neuron)]
    return cases


@pytest.mark.parametrize("field, box", _float_form_fields())
def test_builtin_fields_are_in_float_form(field, box):
    # the VectorField contract: on a tuple of floats, rhs returns a tuple of
    # n floats and jac a tuple of n rows of n floats, no numpy scalars
    rng = np.random.default_rng(7)
    lows, highs = np.array(box).T
    for _ in range(25):
        s = tuple(rng.uniform(lows, highs).tolist())
        u = float(rng.uniform(-1.0, 1.0))
        out = field.rhs(0.3, s, u)
        assert type(out) is tuple and len(out) == field.n
        assert [type(v) for v in out] == [float] * field.n
        if field.jac is None:
            continue
        rows = field.jac(0.3, s, u)
        assert type(rows) is tuple and len(rows) == field.n
        for row in rows:
            assert type(row) is tuple
            assert [type(v) for v in row] == [float] * field.n


_HH = hh_conductance(ConductanceParams())
# kappa_f = kappa_s = 5: tanh(5 y) is 1.0 or -1.0 to the last bit from |y| > 3.82
_HH_SPECIAL = [0.0, -0.0, 4.0, -4.0, 20.0, -20.0]


@given(pts=st.lists(st.tuples(*(st.one_of(st.floats(lo, hi), st.sampled_from(_HH_SPECIAL))
                                for lo, hi in _HH.sample_box),
                              st.floats(-40.0, 40.0)),
                    min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_hh_field_gives_the_array_bits_on_floats(pts):
    # the stepped field and f_inv read one f: on floats, f and f_jac return
    # floats with the bits of the same call over arrays. Hypothesis favours
    # simple floats, on which even math.tanh agrees with np.tanh, so every
    # example also carries 256 uniform points of the sample box.
    rng = np.random.default_rng(len(pts))
    (ylo, yhi), (zlo, zhi) = _HH.sample_box
    more = rng.uniform((ylo, zlo, -40.0), (yhi, zhi, 40.0), (256, 3))
    y, z, u = np.concatenate([np.array(pts), more]).T
    tab = [_HH.f(0.0, y, z, u), *_HH.f_jac(0.0, y, z, u)]
    for k, (yk, zk, uk) in enumerate(zip(y.tolist(), z.tolist(), u.tolist())):
        one = [_HH.f(0.0, yk, zk, uk), *_HH.f_jac(0.0, yk, zk, uk)]
        assert [type(v) for v in one] == [float] * 4
        assert [v.hex() for v in one] == [float(np.broadcast_to(a, y.shape)[k]).hex()
                                          for a in tab]


def test_inverse_system_shape():
    inv = InverseSystem(fitzhugh_nagumo())
    assert inv.n == 1
    out = inv.rhs(0.0, np.array([0.2]), 0.5)
    # internal dynamics z' = -z + y with y replaced by the drive
    assert out[0] == pytest.approx(-0.2 + 0.5)


def test_neuron_plant_values():
    plant = neuron_family()
    model = plant.model(np.array([0.5, 1.5]))
    out = model.rhs(0.0, np.array([-0.7, 0.0]), 0.0)
    assert out[0] == pytest.approx(142.5, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-15)


# each stacked gate table and the gates it stacks, slot by slot
STACKS = {
    "NEURON_GATES": ("NEURON_M_INF", "NEURON_TAU", "NEURON_Z_INF"),
    "NEURON_UPDATE_GATES": ("NEURON_M_INT",),
    "NEURON_GATE_SLOPES": ("NEURON_M_INF", "NEURON_M_INF_PRIME", "NEURON_TAU",
                           "NEURON_TAU_PRIME", "NEURON_Z_INF", "NEURON_Z_INF_PRIME"),
}


@pytest.mark.parametrize("name", ["NEURON_M_INF", "NEURON_M_INF_PRIME", "NEURON_TAU",
                                  "NEURON_TAU_PRIME", "NEURON_Z_INF",
                                  "NEURON_Z_INF_PRIME", "NEURON_M_INT", *STACKS])
def test_piecewise_scalar_call_matches_vectorized(name):
    # the scalar Horner path must agree bit for bit with np.polyval on the
    # piece a vectorized lookup picks, on every piece, at the breakpoints
    # themselves (left piece applies) and one ulp to either side of them; a
    # stacked table gives in each slot the bits of the gate read alone
    import condux.models as m

    table = getattr(m, name)
    gates = [getattr(m, g) for g in STACKS.get(name, (name,))]
    assert all(type(b) is float for b in table.breaks)
    assert table.breaks == tuple(sorted({b for g in gates for b in g.breaks}))
    stack = table if name in STACKS else GateStack(table)
    edges = np.array(table.breaks)
    ys = np.concatenate([np.linspace(-1.5, 1.5, 20001), edges,
                         np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    rows = [stack(float(y)) for y in ys]
    for k, poly in enumerate(gates):
        piece = np.searchsorted(poly.breaks, ys, side="left")
        ref = np.array([np.polyval(poly.coeffs[i], y) for i, y in zip(piece, ys)])
        got = np.array([r[k] for r in rows])
        assert np.array_equal(got, ref)
        alone = GateStack(poly)
        assert got.tobytes() == np.array([alone(float(y))[0] for y in ys]).tobytes()


def _loop_horner(gates, y):
    """Each gate's piece at y (the left one at a break) by the Horner loop
    acc = acc * y + c from acc = 0.0: the oracle of a GateStack call."""
    out = []
    for g in gates:
        acc = 0.0
        for c in g.coeffs[bisect_left(g.breaks, y)]:
            acc = acc * y + c
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(STACKS))
@given(ys=st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0]), max_size=40))
@settings(max_examples=50, deadline=None)
def test_gate_stack_matches_the_horner_loop_bitwise(name, ys):
    # the compiled pieces give the loop's bits and np.polyval's at every
    # break, one ulp to either side of it and at random y, signed zeros
    # included
    import condux.models as m

    stack = getattr(m, name)
    gates = [getattr(m, g) for g in STACKS[name]]
    probe = [*stack.breaks, *(math.nextafter(b, -math.inf) for b in stack.breaks),
             *(math.nextafter(b, math.inf) for b in stack.breaks), *ys]
    for y in probe:
        got = [v.hex() for v in stack(y)]
        assert got == [v.hex() for v in _loop_horner(gates, y)]
        assert got == [float(np.polyval(g.coeffs[bisect_left(g.breaks, y)], y)).hex()
                       for g in gates]


# A stack whose degree-1 pieces lead with -0.0: on (0, 1] the loop reads
# (0.0 * y + -0.0) * y + -0.0 = +0.0, where -0.0 * y + -0.0 is -0.0, so the
# chain keeps the leading 0.0 * y there.
SIGNED_LEAD = PiecewisePoly((0.0, 1.0), ((-0.0, 2.0), (-0.0, -0.0), (0.5, -0.0)))


def _written_stack(gates):
    """The rhs of a field whose components are the gates, read by one gate
    lookup at its first state: the chain as a field source writes it."""
    names = [f"q{k}" for k in range(len(gates))]
    outs = [f"o{k}" for k in range(len(gates))]
    source = FieldSource(tuple(names), tuple(outs),
                         lets=(f"{', '.join(outs)}, = stack(q0)",),
                         helpers=(("stack", GateStack(*gates)),))
    return PlainModel("stack", len(gates), None, None, source=source).rhs


@pytest.mark.parametrize("name", [*sorted(STACKS), "SIGNED_LEAD"])
@given(ys=st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0]), max_size=40))
@settings(max_examples=50, deadline=None)
def test_written_chain_matches_the_stack_and_the_loop_bitwise(name, ys):
    # the chain written into a rendered field gives the bits of the compiled
    # lookup and of the Horner loop at every break, one ulp to either side
    # of it, the signed zeros and random y, also where a degree-1 piece
    # leads with -0.0
    import condux.models as m

    gates = ([SIGNED_LEAD] if name == "SIGNED_LEAD"
             else [getattr(m, g) for g in STACKS[name]])
    stack, rhs = GateStack(*gates), _written_stack(gates)
    probe = [*stack.breaks, *(math.nextafter(b, -math.inf) for b in stack.breaks),
             *(math.nextafter(b, math.inf) for b in stack.breaks), 0.0, -0.0, *ys]
    for y in probe:
        state = (y, *[0.0] * (len(gates) - 1))
        want = [v.hex() for v in _loop_horner(gates, y)]
        assert [v.hex() for v in rhs(0.0, state, 0.0)] == want
        assert [v.hex() for v in stack(y)] == want
    if name == "SIGNED_LEAD":
        assert stack(0.5)[0].hex() == "0x0.0p+0" and (-0.0 * 0.5 + -0.0).hex() == "-0x0.0p+0"


@pytest.mark.parametrize("let", ["m = gates(q)", "m, tau = gates(q)", "m, tau, z = gates(q + 1.0)",
                                 "m, tau, z = gates(q, p)"])
def test_a_gate_lookup_that_does_not_fit_is_rejected(let):
    # a lookup binds one name per gate of its stack, at one name
    source = FieldSource(("q", "p"), ("p", "-q"), lets=(let,),
                         helpers=(("gates", NEURON_GATES),))
    with pytest.raises(ValueError, match="gate"):
        PlainModel("bad", 2, None, None, source=source)


@pytest.mark.parametrize("breaks, coeffs", [((math.inf,), ((0.0,), (1.0,))),
                                            ((), ((math.nan,),)),
                                            ((0.0,), ((1.0, -math.inf), (0.0,)))])
def test_piecewise_poly_rejects_non_finite_numbers(breaks, coeffs):
    # a gate chain writes every break and coefficient as a float literal
    with pytest.raises(ValueError, match="finite"):
        PiecewisePoly(breaks, coeffs)


def test_gate_stack_keeps_the_loop_signed_zero():
    # the Horner chain starts from 0.0 * y like the loop, so a -0.0
    # coefficient reads +0.0 at finite y and a non-finite y gives nan; a NaN
    # y fails every y <= b test and gives nan in every slot
    flat = PiecewisePoly((), ((-0.0,),))
    assert GateStack(flat)(2.0)[0].hex() == _loop_horner([flat], 2.0)[0].hex() == "0x0.0p+0"
    assert math.isnan(GateStack(flat)(math.inf)[0])
    assert all(math.isnan(v) for v in NEURON_GATE_SLOPES(math.nan))


def test_plain_model_stores_its_callables():
    # rhs and jac are the field's own functions, called with no forwarding
    # frame, and the model is still a VectorField
    def rhs(t, s, u):
        return (u - s[0],)

    def jac(t, s, u):
        return ((-1.0,),)

    model = PlainModel("lag", 1, rhs, jac)
    assert model.rhs is rhs and model.jac is jac
    assert not hasattr(model, "rhs_fn") and not hasattr(model, "jac_fn")
    assert isinstance(model, VectorField)


@given(
    coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
    lead=st.floats(0.1, 5.0) | st.floats(-5.0, -0.1),
    lo=st.floats(-2.0, 2.0),
    gap=st.floats(0.1, 3.0),
    ys=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=50),
)
@settings(max_examples=100, deadline=None)
# a double root at 0 where p' is subnormal: its Newton polish overflowed to
# NaN, which dropped the crossing at 0.072 and left p unclamped beyond it
@example(coeffs=[0.2529699259029785, -2.2250738585072014e-308, -8.628728305945069e-159],
         lead=-3.5100717785978217, lo=-5.774788038689606e-114, gap=2.8105433535881876,
         ys=[-4.075401926728632, 5.0])
def test_sat_poly_equals_clamped_polynomial(coeffs, lead, lo, gap, ys):
    # away from its breakpoints (and from the levels, where a near-double
    # root may shift a break by the root solver's sqrt(eps)), the flattened
    # piecewise form is the clamp of the polynomial, bit for bit
    p = (lead, *coeffs)
    hi = lo + gap
    sat = sat_poly(lo, hi, p)
    ys = np.array([y for y in ys
                   if all(abs(y - b) > 1e-6 for b in sat.breaks)
                   and min(abs(np.polyval(p, y) - lo), abs(np.polyval(p, y) - hi)) > 1e-9])
    clamped = np.clip(np.polyval(p, ys), lo, hi)
    gate = GateStack(sat)
    assert np.array_equal(np.array([gate(float(y))[0] for y in ys]), clamped)


def test_neuron_update_antiderivative_consistency():
    # H comes from the update hook, its derivative hu from the derivatives hook
    plant = neuron_family()
    H = lambda y: np.asarray(plant.update(y))
    h = 1e-7
    for y in (-0.9, -0.6, -0.3, 0.2, 0.8):
        fd = (H(y + h) - H(y - h)) / (2 * h)
        assert np.allclose(fd, plant.derivatives(0.0, y, 0.5, 0.0, 0.5, 1.5)[6:], atol=1e-6)


def test_neuron_theta_box_and_regressor_scaling():
    plant = neuron_family()
    assert plant.m == 2 and "m" not in {f.name for f in dataclasses.fields(plant)}
    assert plant.theta_box == ((0.3, 0.7), (1.1, 1.9))
    assert len(plant.values(0.0, -0.2, 0.5, 0.0, 0.5, 1.5)) == 2
    assert len(plant.update(-0.2)) == 2
    out = plant.derivatives(0.0, -0.2, 0.5, 0.0, 0.5, 1.5)
    assert len(out) == 8
    assert np.allclose(out[4:6], np.asarray(out[6:]) / plant_eps())


def test_neuron_hooks_give_the_same_regressor_bits():
    # values reads m_inf from NEURON_GATES and derivatives from
    # NEURON_GATE_SLOPES; both stacks merge the same breaks, so m_inf, and
    # with it h, is the same from either stack at every break, one ulp
    # beside it and between
    breaks = NEURON_GATES.breaks
    assert breaks == NEURON_GATE_SLOPES.breaks
    ys = [*np.linspace(-1.5, 1.5, 2001).tolist(), *breaks, 0.0, -0.0,
          *(math.nextafter(b, -math.inf) for b in breaks),
          *(math.nextafter(b, math.inf) for b in breaks)]
    for y in ys:
        assert NEURON_GATE_SLOPES(y)[0].hex() == NEURON_GATES(y)[0].hex()


def plant_eps() -> float:
    # the plant regressor is the update regressor scaled by 1/eps with eps = 0.02
    return 0.02


def _dot(a, b):
    """a[0] * b[0] + a[1] * b[1] + ..., added left to right: the loop that
    every inner product of the plant, observer and chua fields once went
    through, and whose bits the written-out products keep."""
    acc = a[0] * b[0]
    for k in range(1, len(a)):
        acc = acc + a[k] * b[k]
    return acc


def _loop_neuron_hooks():
    """The neuron hooks as they read when every inner product was a _dot
    loop: values gave (f0, g, h, hu, H) and derivatives (df0, dg, dh), each
    reading its gates by the Horner loop."""
    inv_eps = 1.0 / plant_eps()

    def values(t, y, z, u):
        m, tau, z_inf, m_int = _loop_horner(
            [NEURON_M_INF, NEURON_TAU, NEURON_Z_INF, NEURON_M_INT], y)
        return (inv_eps * (-2.0 * z * (y + 0.7) + 0.15 + u), (z_inf - z) / tau,
                (-inv_eps * (y + 0.4), -inv_eps * (m * (y - 1.0))),
                (-(y + 0.4), -(m * (y - 1.0))), (-(0.5 * y**2 + 0.4 * y), -m_int))

    def derivatives(t, y, z, u):
        m, dm, tau, dtau, z_inf, dz_inf = _loop_horner(
            [NEURON_M_INF, NEURON_M_INF_PRIME, NEURON_TAU, NEURON_TAU_PRIME,
             NEURON_Z_INF, NEURON_Z_INF_PRIME], y)
        return ((inv_eps * (-2.0 * z), inv_eps * (-2.0 * (y + 0.7))),
                ((dz_inf * tau - (z_inf - z) * dtau) / tau**2, -1.0 / tau),
                (-inv_eps, -inv_eps * (dm * (y - 1.0) + m)))

    return values, derivatives


def _loop_fields(th):
    """Oracle (rhs, jac) pairs, by name, of the fields whose inner products
    are written out, each computed with _dot loops from gate values read by
    the Horner loop; th is the plant's parameter vector, the error field
    reads its parameters from the state, and the chua linearized field reads
    its output y from the input slot."""
    values, derivatives = _loop_neuron_hooks()
    A, B, C = CHUA_A.tolist(), CHUA_B.tolist(), CHUA_C.tolist()

    def plant_rhs(t, s, u):
        f0, g, h, _, _ = values(t, s[0], s[1], u)
        return (f0 + _dot(h, th), g)

    def plant_jac(t, s, u):
        df0, dg, dh = derivatives(t, s[0], s[1], u)
        return ((df0[0] + _dot(dh, th), df0[1]), dg)

    def coupled_rhs(t, s, u):
        f0, g, h, _, H = values(t, s[0], s[1], u)
        f0h, gh, hh, _, Hh = values(t, s[2], s[3], u)
        return (f0 + _dot(h, th), g, f0h + _dot(hh, s[4:]), gh,
                *[a - b for a, b in zip(H, Hh)])

    def coupled_jac(t, s, u):
        y, z, yh, zh = s[0], s[1], s[2], s[3]
        df0, dg, dh = derivatives(t, y, z, u)
        df0h, dgh, dhh = derivatives(t, yh, zh, u)
        hy = values(t, y, z, u)[3]
        _, _, h, hyh, _ = values(t, yh, zh, u)
        zm = (0.0,) * 2
        return ((df0[0] + _dot(dh, th), df0[1], 0.0, 0.0, *zm),
                (*dg, 0.0, 0.0, *zm),
                (0.0, 0.0, df0h[0] + _dot(dhh, s[4:]), df0h[1], *h),
                (0.0, 0.0, *dgh, *zm),
                *((hy[k], 0.0, -hyh[k], 0.0, *zm) for k in range(2)))

    def error_rhs(t, s, u):
        f0, g, h, _, _ = values(t, s[0], s[1], u)
        return (f0 + _dot(h, s[2:]), g, 0.0, 0.0)

    def error_jac(t, s, u):
        df0, dg, dh = derivatives(t, s[0], s[1], u)
        _, _, h, hu, _ = values(t, s[0], s[1], u)
        return ((df0[0] + _dot(dh, s[2:]), df0[1], *h),
                (*dg, 0.0, 0.0),
                *((-hu[k], 0.0, 0.0, 0.0) for k in range(2)))

    def chua_rhs(t, s, u):
        w = u - chua_nonlinearity(_dot(C, s))
        return tuple(_dot(row, s) + b * w for row, b in zip(A, B))

    return {
        "plant": (plant_rhs, plant_jac),
        "coupled": (coupled_rhs, coupled_jac),
        "error": (error_rhs, error_jac),
        "chua": (chua_rhs, lambda t, s, u: chua_linearization(_dot(C, s))),
        "chua-linearized": (lambda t, x, y: tuple(_dot(row, x) for row in chua_linearization(y)),
                            lambda t, x, y: chua_linearization(y)),
    }


@pytest.fixture(scope="module")
def chua_linearized():
    """The linearized field that chua_pipeline hands to flow, caught before
    it is stepped."""
    import condux.experiments

    class Caught(Exception):
        pass

    def catch(model, *args):
        raise Caught(model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condux.experiments, "flow", catch)
        with pytest.raises(Caught) as caught:
            condux.experiments.chua_pipeline(config_from_dict({"experiment": "chua"}))
    return caught.value.args[0]


def _hexes(out):
    """Every float of a vector or of a tuple of rows, as its hex string."""
    return [v.hex() for row in out for v in (row if isinstance(row, tuple) else (row,))]


@st.composite
def _field_case(draw):
    """A state of six entries, a parameter pair and an input: random
    uniforms on [-3, 3] (so the order of a sum shows in its last bits), among
    which hypothesis puts signed zeros and the neuron gate breaks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-3.0, 3.0, 9).tolist()
    for k, special in draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(
            [0.0, -0.0, *NEURON_GATES.breaks])), max_size=4)):
        v[k] = special
    return tuple(v[:6]), tuple(v[6:8]), v[8]


@given(name=st.sampled_from(["plant", "coupled", "error", "chua", "chua-linearized"]),
       case=_field_case(), t=st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_written_out_fields_match_the_dot_loop_bitwise(chua_linearized, name, case, t):
    # each field's rhs and jac give the bits of the _dot-loop oracle at
    # random states, signed zeros and the gate breaks among them
    s, th, u = case
    plant = neuron_family()
    field = {
        "plant": lambda: plant.model(np.array(th)),
        "coupled": lambda: coupled_with_jac(plant, np.array(th)),
        "error": lambda: error_system(plant),
        "chua": chua_system,
        "chua-linearized": lambda: chua_linearized,
    }[name]()
    state = s[:field.n]
    for got, want in zip((field.rhs, field.jac), _loop_fields(th)[name]):
        assert _hexes(got(t, state, u)) == _hexes(want(t, state, u))


# y-levels where a neuron gate switches piece, one ulp either side of each,
# and the signed zeros
_NEURON_SPECIAL = [0.0, -0.0, *NEURON_GATES.breaks,
                   *(math.nextafter(b, -math.inf) for b in NEURON_GATES.breaks),
                   *(math.nextafter(b, math.inf) for b in NEURON_GATES.breaks)]


@st.composite
def _neuron_case(draw):
    """A coupled state of six entries, a parameter pair, an input and the 36
    Phi entries of the largest joint field: random uniforms on [-3, 3], among
    which hypothesis puts the special levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-3.0, 3.0, 9 + 36).tolist()
    for k, special in draw(st.lists(st.tuples(st.integers(0, 8),
                                              st.sampled_from(_NEURON_SPECIAL)), max_size=4)):
        v[k] = special
    return tuple(v[:6]), tuple(v[6:8]), v[8], tuple(v[9:])


@given(case=_neuron_case(), t=st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_neuron_fields_give_the_closure_bits(case, t):
    # the rendered hooks, the rhs and jac rendered from the plant source and
    # the joint fields of flow give the bits of the hand-written closures
    # they replaced, at the drawn state and with its y and yh set to every
    # special level in turn
    s, th, u, phi = case
    plant = neuron_family()
    oracles = neuron_field_oracles(*th)
    fields = {"plant": plant.model(np.array(th)),
              "coupled": coupled_with_jac(plant, np.array(th)),
              "error": error_system(plant)}
    hooks = (plant.values, plant.update, plant.derivatives)
    for state in (s, *((y, s[1], y, *s[3:]) for y in _NEURON_SPECIAL)):
        y = state[0]
        for got, want in zip(hooks, neuron_hook_oracles()):
            args = (y,) if got is plant.update else (t, y, state[1], u, *th)
            assert _hexes(got(*args)) == _hexes(want(*args))
        for name, field in fields.items():
            x = state[:field.n]
            rhs, jac = oracles[name]
            assert _hexes(field.rhs(t, x, u)) == _hexes(rhs(t, x, u))
            assert _hexes(field.jac(t, x, u)) == _hexes(jac(t, x, u))
            joint = _with_variations(field)
            xp = (*x, *phi[:field.n**2])
            assert _hexes(joint.rhs(t, xp, u)) == _hexes(oracles[f"joint-{name}"][0](t, xp, u))
    assert fields["plant"].source.jac is not None and fields["error"].source.jac is not None
    assert coupled_system(plant, np.array(th)).rhs is fields["coupled"].rhs
