import ast
import dataclasses
import inspect
import math
import textwrap

import numpy as np
import pytest

from condux.errors import AntiderivativeMismatch, ConfigError, NumericalBlowup, PeriodMismatch
from condux.integrate import Trajectory, _rk4_block, integrate
from condux.models import PlainModel, neuron_family
from condux.observer import (
    coupled_system,
    error_system,
    observer_contraction_check,
    run_observer,
)
from condux.signals import Constant, SquarePulseTrain
from condux.variational import _with_variations, floquet, flow
from conftest import coupled_with_jac, neuron_field_oracles

THETA_STAR = np.array([0.5, 1.5])
PULSE = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)


@pytest.fixture(scope="module")
def plant():
    return neuron_family()


class TestBuildObserver:
    def test_antiderivative_mismatch_rejected(self, plant):
        with pytest.raises(AntiderivativeMismatch):
            # not an antiderivative of hu
            dataclasses.replace(plant, source=dataclasses.replace(
                plant.source, update=((), ("y", "y"))))

    def test_antiderivative_check_runs_once_per_source(self, plant):
        # building the plant again, or replacing a field other than its
        # source and constants, reads the gap the first construction found
        from condux.models import _antiderivative_gap

        before = _antiderivative_gap.cache_info()
        neuron_family()
        dataclasses.replace(plant, name="again")
        after = _antiderivative_gap.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)

    def test_update_direction_matches_regressor_sign(self, plant):
        # the update regressor is the plant regressor without the 1/eps scale
        for y in (-0.8, -0.4, 0.5):
            _, _, _, _, h0, h1, hu0, hu1 = plant.derivatives(0.0, y, 0.5, 0.0, 0.5, 1.5)
            assert np.allclose([hu0, hu1], np.array([h0, h1]) * 0.02)

    def test_gate_lookups_per_call(self, plant):
        # no rendered hook, rhs, jac, RK4 block or joint block calls a gate
        # stack, and each writes one chain per lookup its hooks declare: a
        # hook its own stack, the plant and error fields one values chain
        # per rhs and one derivatives chain per jac, each stage of the
        # coupled block one values and one update chain per block (the
        # coupled jac of coupled_with_jac makes one derivatives hook call
        # per block), and each stage of flow's joint block the rhs and the
        # jac chains
        for hook, want in (("values", [("gates", "y")]), ("update", [("update_gates", "y")]),
                           ("derivatives", [("slopes", "y")])):
            assert _chains(plant, getattr(plant, hook)) == want
        calls = []
        counted = dataclasses.replace(plant)
        object.__setattr__(counted, "derivatives",
                           lambda *args: calls.append(args) or plant.derivatives(*args))
        s = (-0.3, 0.2, 0.1, 0.4, 0.45, 1.6)
        coupled_with_jac(counted, THETA_STAR).jac(0.0, s, 0.5)
        assert [args[1] for args in calls] == [s[0], s[2]]
        for field, rhs_hooks, jac_hooks in (
                (coupled_system(plant, THETA_STAR), ["gates", "gates", "update_gates",
                                                     "update_gates"], None),
                (plant.model(THETA_STAR), ["gates"], ["slopes"]),
                (error_system(plant), ["gates"], ["slopes"])):
            # each lookup of the coupled field reads its own block's output
            ys = ["0", "2", "0", "2"][:len(rhs_hooks)]
            assert _chains(plant, field.rhs) == [(h, f"x{i}") for h, i in zip(rhs_hooks, ys)]
            block = _rk4_block(field.n, field.source)
            assert _chains(plant, block) == [(h, f"{x}{i}") for x in "axxx"
                                             for h, i in zip(rhs_hooks, ys)]
            if jac_hooks is None:
                continue
            assert _chains(plant, field.jac) == [(h, "x0") for h in jac_hooks]
            joint = _with_variations(field)
            assert _chains(plant, _rk4_block(joint.n, joint.source)) == [
                (h, f"{x}0") for x in "axxx" for h in rhs_hooks + jac_hooks]


def _chains(plant, fn):
    """(helper name, variable) of each gate chain written into the rendered
    source of fn, in order: an if-chain is told by its breaks and by how
    many names each branch assigns. Asserts that fn calls nothing but zip
    and the block's push, and that its globals hold no gate stack."""
    stacks = {(len(stack.gates), stack.breaks): name for name, stack in plant.source.helpers}
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called <= {"zip", "push"}
    assert not any(v is stack for v in fn.__globals__.values() for _, stack in plant.source.helpers)
    ifs = [node for node in ast.walk(tree) if isinstance(node, ast.If)]
    elifs = {id(node.orelse[0]) for node in ifs
             if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If)}
    chains = []
    for head in sorted((node for node in ifs if id(node) not in elifs), key=lambda n: n.lineno):
        breaks, node = [], head
        while isinstance(node, ast.If):
            breaks.append(ast.literal_eval(node.test.comparators[0]))
            node = node.orelse[0] if id(node.orelse[0]) in elifs else None
        chains.append((stacks[len(head.body), tuple(breaks)], head.test.left.id))
    return chains


class TestEmbedding:
    def test_matched_run_is_exact(self, plant):
        # converged_at needs an in-tolerance run spanning 3 input periods,
        # so the horizon must leave room for one.
        run = run_observer(plant, THETA_STAR, PULSE, horizon=4 * PULSE.period,
                           tolerance=0.0316, plant_ic=np.array([-0.7, 0.0]),
                           theta0=THETA_STAR.copy(), step=1e-3)
        st = run.traces.states
        assert np.array_equal(st[:, 0], st[:, 2])  # y == y_hat bitwise
        assert np.array_equal(st[:, 1], st[:, 3])
        assert np.all(st[:, 4:] == THETA_STAR)
        assert run.converged_at == 0.0

    def test_coupled_embedding_dimension(self, plant):
        model = coupled_system(plant, THETA_STAR)
        assert model.n == 6
        assert model.jac is None  # only ever stepped

    def test_antiderivative_shift_is_invisible(self, plant):
        # The estimate moves only through H(y) - H(y_hat), so adding a
        # constant to H cancels. With matched initial data the difference is
        # exactly zero at every integrator stage and the cancellation is
        # bitwise. With a parameter error it is only analytic: the shifted
        # declaration rounds H(y) + 7.5 before the difference is taken, which
        # perturbs the update at the last-bit level, so we bound the drift
        # instead (measured 3.7e-14 over three input periods).
        lets, exprs = plant.source.update
        shifted = dataclasses.replace(plant, source=dataclasses.replace(
            plant.source, update=(lets, tuple(f"({e}) + 7.5" for e in exprs))))
        kw = dict(horizon=PULSE.period, tolerance=0.0316,
                  plant_ic=np.array([-0.7, 0.0]), step=1e-3)
        m1 = run_observer(plant, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        m2 = run_observer(shifted, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        assert np.array_equal(m1.traces.states, m2.traces.states)

        kw["horizon"] = 3 * PULSE.period
        a = run_observer(plant, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        b = run_observer(shifted, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        # plant states never see H at all
        assert np.array_equal(a.traces.states[:, :2], b.traces.states[:, :2])
        assert np.max(np.abs(a.traces.states - b.traces.states)) < 1e-12


class TestRunObserver:
    def test_requires_period(self, plant):
        with pytest.raises(ConfigError):
            run_observer(plant, THETA_STAR, Constant(0.0), horizon=10.0,
                         tolerance=0.03, plant_ic=np.array([-0.7, 0.0]),
                         theta0=np.array([0.3, 1.8]))

    def test_unexcited_run_stalls(self, plant):
        # a zero-magnitude pulse train is the zero input with a period
        silent = SquarePulseTrain(magnitude=0.0, duration=0.002, period=2.8)
        run = run_observer(plant, THETA_STAR, silent, horizon=30.0,
                           tolerance=0.0316,
                           plant_ic=np.array([-0.7, 0.0]),
                           theta0=np.array([0.3, 1.8]), step=1e-3)
        assert run.converged_at is None
        assert float(run.theta_error.min()) > run.tolerance


class TestContractionCheck:
    def test_frozen_spectrum(self, observer_run):
        report = observer_run[1]
        lams = [math.hypot(*lam) for lam in report["extended_monodromy"]["eigenvalues"]]
        assert max(lams) == pytest.approx(0.95927, abs=5e-3)
        assert report["contraction_verdict"]
        # depends only on the orbit anchor y at t0 = 112, a pulse edge
        assert report["q_min_eigenvalue"] == pytest.approx(0.872891, abs=1e-5)
        # the identity-metric one-period difference is an indefinite
        # diagnostic here (non-normal transient), recorded but not a verdict
        assert report["lyapunov_decreases"] is False
        assert report["lyapunov_shift"] > 0

    def test_reference_closes(self, observer_run):
        assert observer_run[1]["reference_closure_gap"] < 1e-10

    def test_zero_update_leaves_parameter_block_identity(self, plant,
                                                         observer_run):
        # the whole update is zero: H in the update hook, and hu in the
        # derivatives hook that jac is written from
        lets, exprs = plant.source.derivatives
        frozen = dataclasses.replace(plant, source=dataclasses.replace(
            plant.source, update=((), ("0.0", "0.0")), derivatives=(lets, (*exprs[:6], "0.0", "0.0"))))
        ref = observer_run[0]["reference"]
        check = observer_contraction_check(frozen, THETA_STAR, ref, PULSE)
        phi = check.monodromy.phi
        n = plant.n
        assert np.array_equal(phi[n:, :n], np.zeros((2, n)))
        assert np.array_equal(phi[n:, n:], np.eye(2))

    def test_monodromy_is_the_coupled_lower_right_block_bitwise(self, plant,
                                                                observer_run):
        # the check steps the 4-state error system from (x0, theta_star); its
        # monodromy has the bits of the lower-right block of the 6-state
        # coupled system's, stepped from the embedding (x0, x0, theta_star)
        ref = observer_run[0]["reference"]
        x0 = ref.states[0]
        _, joint = floquet(coupled_with_jac(plant, THETA_STAR), PULSE,
                           np.concatenate([x0, x0, THETA_STAR]), ref.t0, ref.t1 - ref.t0, 1e-3)
        check = observer_contraction_check(plant, THETA_STAR, ref, PULSE, 1e-3)
        n = plant.n
        assert ([v.hex() for v in check.monodromy.phi.ravel()]
                == [v.hex() for v in joint.phi[n:, n:].ravel()])

    def test_open_reference_is_rejected(self, plant, observer_run):
        # a window that does not close up is no period: the anchor check of
        # floquet rejects it, relative to the scale of the anchor
        ref = observer_run[0]["reference"]
        half = ref.ts.size // 2
        shifted = Trajectory(ts=ref.ts[half:] - ref.ts[half] + ref.ts[0],
                             states=ref.states[half:])
        with pytest.raises(PeriodMismatch):
            observer_contraction_check(plant, THETA_STAR, shifted, PULSE)

    def test_nominal_convergence_profile(self, observer_run):
        report = observer_run[1]
        assert report["converged_at"] is None  # horizon 200 is not enough
        assert report["final_theta_error"] == pytest.approx(0.0737, abs=2e-3)
        # the error does decay: final quarter is well below the start
        err = observer_run[0]["traces"]["nominal"]["theta_error"]
        q = err.size // 4
        assert float(err[-q:].max()) < 0.5 * float(err[:q].max())

    def test_embedding_deviation_zero(self, observer_run):
        assert observer_run[1]["embedding_deviation"] == 0.0


@pytest.mark.parametrize("name, x0", [
    ("plant", [-0.7, 0.0]),
    ("error", [-0.7, 0.0, 0.3, 1.8]),
    ("coupled", [-0.7, 0.0, -0.7, 0.0, 0.3, 1.8]),
])
def test_flow_of_a_source_field_gives_the_closure_bits(plant, name, x0):
    # over one observer period, the integrate trajectory, and the flow
    # trajectory and transition matrix, of each field written from the
    # plant source are those of the hand-written closures it replaced,
    # whose gates are read by stack calls; the coupled field is flowed
    # with the tests' Jacobian
    field = {"plant": plant.model(THETA_STAR), "error": error_system(plant),
             "coupled": coupled_system(plant, THETA_STAR)}[name]
    rhs, jac = neuron_field_oracles(*THETA_STAR.tolist())[name]
    oracle = PlainModel(name, field.n, rhs, jac)
    x0 = np.array(x0)
    run, ref_run = (integrate(f, PULSE, 0.0, PULSE.period, x0, 1e-3) for f in (field, oracle))
    assert run.states.tobytes() == ref_run.states.tobytes()
    if field.jac is None:
        field = coupled_with_jac(plant, THETA_STAR)
    traj, phi = flow(field, PULSE, 0.0, PULSE.period, x0, 1e-3)
    ref, ref_phi = flow(oracle, PULSE, 0.0, PULSE.period, x0, 1e-3)
    assert traj.ts.size == ref.ts.size > PULSE.period / 1e-3
    assert traj.states.tobytes() == ref.states.tobytes()
    assert phi.tobytes() == ref_phi.tobytes()


@pytest.mark.parametrize("name", ["plant", "error"])
@pytest.mark.parametrize("run", [integrate, flow])
def test_a_source_field_blows_up_where_the_closures_do(plant, name, run):
    # th0 = -100 makes the output unstable: the state (and under flow its
    # Phi) leaves R^n inside a block of steps, at the same first
    # non-finite node for the written-in field as for the closures
    field, x0 = {"plant": (plant.model(np.array([-100.0, 1.5])), [-0.7, 0.0]),
                 "error": (error_system(plant), [-0.7, 0.0, -100.0, 1.5])}[name]
    rhs, jac = neuron_field_oracles(-100.0, 1.5)[name]
    seen = []
    for f in (field, PlainModel(name, field.n, rhs, jac)):
        with pytest.raises(NumericalBlowup) as err:
            run(f, PULSE, 0.0, PULSE.period, np.array(x0), 1e-4)
        seen.append(err.value.t)
    assert seen[0] == seen[1] and 0.0 < seen[0] < PULSE.period
