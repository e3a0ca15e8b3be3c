"""Acceptance suite: one function per study, each returning verdict rows.

Every row pins an expected value and a tolerance up front and reports the
observed value honestly; a red row is a result, not an error. Each criterion
is a function of its study's validated params and the JSON-ready report that
run_experiment returns for them, so `condux verify` checks the same report
`condux run` writes; the test suite calls the same functions.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .config import config_from_dict
from .experiments import run_experiment
from .integrate import integrate
from .lure import (
    CHUA_DEN,
    CHUA_NUM,
    chua_system,
    describing_function,
    lure_stability,
)
from .models import (
    ConductanceParams,
    FieldSource,
    PlainModel,
    finite_difference_jacobian,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
)
from .signals import Constant
from .variational import contraction_probe, flow

__all__ = ["CriterionRow", "CRITERIA", "VERIFY", "run_criteria", "bessel_j0"]


@dataclass
class CriterionRow:
    criterion: str
    check: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    note: str = ""


def _row(criterion: str, check: str, expected: str, observed, tolerance: str,
         passed: bool, note: str = "") -> CriterionRow:
    if isinstance(observed, float):
        observed = f"{observed:.6g}"
    return CriterionRow(criterion, check, expected,
                        "none" if observed is None else str(observed), tolerance,
                        bool(passed), note)


def bessel_j0(x: float, terms: int = 40) -> float:
    """Order-zero Bessel function by its power series; the independent check
    value for the averaged vibrational gain."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= -(x * x) / (4.0 * k * k)
        total += term
    return total


def criterion_kapitza(p: dict, r: dict) -> list[CriterionRow]:
    rows = []
    gain = r["averaged_gain"]
    rows.append(_row("kapitza", "averaged_gain_sign", "gain < 0", gain, "exact",
                     gain < 0.0, f"M = {r['selected_amplitude']:.6g}"))
    series = bessel_j0(r["selected_amplitude"])
    rows.append(_row("kapitza", "bessel_series_agreement",
                     f"{series:.6g}", gain, "1e-9",
                     abs(gain - series) <= 1e-9,
                     f"|diff| = {abs(gain - series):.3g}"))
    # the entry time is null when the slow angle never enters the band, the
    # decay rate when the run is too short to fit it; a complex eigenvalue is
    # a [re, im] pair
    entry = r["band_entry_time"]
    decay = r["measured_slow_decay"]
    slowest = max(e[0] if isinstance(e, list) else e for e in r["averaged_eigenvalues"])
    rows.append(_row("kapitza", "band_entry_by_deadline",
                     "entry <= 20 tu", entry, "0.05 rad band",
                     entry is not None and entry <= p["settle_deadline"],
                     f"deviation at 20 tu = {r['deviation_at_deadline']:.4g}; "
                     f"slow decay rate {'none' if decay is None else f'{decay:.5g}'} "
                     f"matches the averaged eigenvalue {slowest:.5g}, so the slow "
                     "mode sets a longer settling time than the deadline"))
    return rows


def criterion_fhn(p: dict, r: dict) -> list[CriterionRow]:
    rows = []
    free = np.sort(np.abs([complex(*e) for e in r["free_window_monodromy"]["eigenvalues"]]))
    lead, second = float(free[-1]), float(free[-2])
    rows.append(_row("fhn", "free_multiplier_unity", "1", lead, "1e-3",
                     abs(lead - 1.0) <= 1e-3))
    rows.append(_row("fhn", "free_second_multiplier", "< 1", second, "exact",
                     second < 1.0))
    mism = r["monodromy_entrywise_mismatch"]
    rows.append(_row("fhn", "realized_vs_predicted_monodromy", "0", mism, "2e-2",
                     mism <= 0.02,
                     f"impulse magnitude {r['impulse_magnitude']:.6g} at width {p['width']:g}"))
    rho = r["realized_monodromy"]["spectral_radius"]
    rows.append(_row("fhn", "realized_spectral_radius", "< 1", rho, "exact",
                     rho < 1.0))
    gap = r["realized_closure_gap"]
    rows.append(_row("fhn", "realized_orbit_closes", "0", gap, "1e-5", gap <= 1e-5,
                     "state gap over one period of the realized orbit"))
    final = r["sync_diff_per_period"][-1]
    rows.append(_row("fhn", "phase_synchronization", "< 1e-3", final, "1e-3",
                     final < 1e-3,
                     f"offsets {p['phase_offsets']} periods, "
                     f"{p['sync_periods']} periods simulated"))
    return rows


def criterion_hh(p: dict, r: dict) -> list[CriterionRow]:
    rows = []
    rep = r["certificate"]
    rows.append(_row("hh", "slow_gate_midpoint", "0.5", rep["M_s"], "exact",
                     rep["M_s"] == 0.5))
    rows.append(_row("hh", "total_conductance_bound", "49", rep["G_tot"], "exact",
                     rep["G_tot"] == 49.0))
    rows.append(_row("hh", "averaged_rate_bound", "49.5", rep["a_bar"], "exact",
                     rep["a_bar"] == 49.5))
    lhs = p["eps"] * p["T_hat"]
    rhs = rep["a_bar"] * p["tau"]
    rows.append(_row("hh", "certificate_verdict",
                     f"{lhs:.6g} > {rhs:.6g} and verdict true",
                     f"verdict={rep['verdict']}", "exact",
                     rep["verdict"] and lhs > rhs,
                     f"measured tau = {rep['tau_unstable']:.6g}, "
                     f"T_hat = {rep['T_hat']:.6g}"))
    sync = r["sync_diff_per_period"][-1]
    rows.append(_row("hh", "two_state_synchronization", "< 1e-2", sync, "1e-2",
                     sync < 1e-2,
                     f"initial conditions {p['sync_ics']}"))
    return rows


# the constant-gain stability threshold the two chua probes bracket
CHUA_THRESHOLD = -0.05


def criterion_chua(p: dict, r: dict) -> list[CriterionRow]:
    rows = []
    cf = r["closed_form_gain"]
    rows.append(_row("chua", "closed_form_gain", "-0.05 < p < 0", cf, "exact",
                     -0.05 < cf < 0.0))
    above = lure_stability(CHUA_NUM, CHUA_DEN, CHUA_THRESHOLD + 1e-3)
    rows.append(_row("chua", "stable_above_threshold",
                     f"stable at {CHUA_THRESHOLD + 1e-3:.6g}",
                     f"stable={above.stable}", "margin > 0", above.stable,
                     f"margin = {above.margin:.3g}"))
    below = lure_stability(CHUA_NUM, CHUA_DEN, CHUA_THRESHOLD - 1e-3)
    rows.append(_row("chua", "unstable_below_threshold",
                     f"unstable at {CHUA_THRESHOLD - 1e-3:.6g}",
                     f"stable={below.stable}", "margin < 0", not below.stable,
                     f"margin = {below.margin:.3g}; the constant-gain loop "
                     "loses stability near -0.05118, just below this probe"))
    fund = r["from_rest"]["fundamental_amplitude"]
    rel = abs(fund - p["M"]) / p["M"]
    rows.append(_row("chua", "entrained_fundamental",
                     f"{p['M']:.6g}", fund, "3%", rel <= 0.03,
                     "the designed orbit is an exact solution (per-period "
                     f"tracking max {max(r['tracking_per_period']):.3g}) but its "
                     f"linearization has spectral radius "
                     f"{r['orbit_spectral_radius']:.5g} > 1, so from rest the "
                     "response escapes to a large attractor instead"))
    return rows


def criterion_observer(p: dict, r: dict) -> list[CriterionRow]:
    rows = []
    conv = r["converged_at"]
    rows.append(_row("observer", "parameter_convergence",
                     f"error < {r['tolerance']:.4g} held 3 periods within "
                     f"{p['horizon']:g} s",
                     "none" if conv is None else f"{conv:.1f} s",
                     f"{r['tolerance']:.4g}", conv is not None,
                     f"error at horizon = {r['final_theta_error']:.4g}; a longer run "
                     "converges near 364 s, the shortfall is a non-normal transient "
                     "plus a slow nonlinear approach, not divergence"))
    emb = r["embedding_deviation"]
    rows.append(_row("observer", "embedding_invariance", "0", emb, "1e-6",
                     emb <= 1e-6,
                     f"{p['embedding_periods']} input periods"))
    rho = r["extended_monodromy"]["spectral_radius"]
    rows.append(_row("observer", "extended_contraction", "< 1", rho, "exact",
                     rho < 1.0, f"margin = {r['contraction_margin']:.4g}"))
    return rows


def criterion_properties(p: dict, r: dict) -> list[CriterionRow]:
    """Solver and model identities, plus region contraction read from the
    lorenz report."""
    rows = []
    rng = np.random.default_rng(7)

    # flow-map composition and the trace identity on one nonlinear window
    fhn = fitzhugh_nagumo()
    traj, full = flow(fhn, None, 0.0, 2.0, np.array([1.0, 0.0]), 1e-3)
    first, phi_a = flow(fhn, None, 0.0, 1.0, traj.states[0], 1e-3)
    _, phi_b = flow(fhn, None, 1.0, 2.0, first.states[-1], 1e-3)
    half = phi_b @ phi_a
    comp = float(np.max(np.abs(full - half)) / np.max(np.abs(full)))
    rows.append(_row("properties", "flow_composition", "0", comp, "1e-7",
                     comp <= 1e-7))
    from scipy.integrate import simpson

    tr = np.array([np.trace(np.asarray(fhn.jac(t, s, 0.0)))
                   for t, s in zip(traj.ts, traj.states)])
    liou = math.exp(float(simpson(tr, x=traj.ts)))
    det = float(np.linalg.det(full))
    rel = abs(det - liou) / abs(liou)
    rows.append(_row("properties", "volume_trace_identity", "0", rel, "1e-6",
                     rel <= 1e-6))

    # integrator order on a rotation with a known solution, declared from
    # source so that the row measures the block with the field written out
    rot = PlainModel("rotation", 2, None, lambda t, s, u: ((0.0, 1.0), (-1.0, 0.0)),
                     source=FieldSource(("x", "v"), ("v", "-x")))
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    errs = []
    for h in (0.01, 0.005):
        end = integrate(rot, None, 0.0, 1.0, np.array([1.0, 0.0]), h).states[-1]
        errs.append(float(np.linalg.norm(end - exact)))
    order = math.log2(errs[0] / errs[1])
    rows.append(_row("properties", "integrator_order", "4", order, "0.2",
                     abs(order - 4.0) <= 0.2))

    # input inversion residual on the conductance model
    hh = hh_conductance(ConductanceParams())
    y, z, v = np.array([[rng.uniform(-1.2, 1.2), rng.uniform(-0.8, 0.8),
                         rng.uniform(-30.0, 30.0)] for _ in range(50)]).T
    u = hh.f_inv(0.0, y, z, v)
    worst = float(np.max(np.abs(hh.f(0.0, y, z, u) - v) / np.maximum(1.0, np.abs(v))))
    rows.append(_row("properties", "input_inversion_residual", "0", worst,
                     "1e-10", worst <= 1e-10))

    # hand-coded jacobians against finite differences for every built-in
    builtins = (kapitza(), fitzhugh_nagumo(), hh_conductance(ConductanceParams()),
                lorenz(10.0, 28.0, 8.0 / 3.0), chua_system(), leaky_integrator())
    worst_jac = 0.0
    for model in builtins:
        box = model.sample_box or ((-1.0, 1.0),) * model.n
        lows = np.array([b[0] for b in box])
        highs = np.array([b[1] for b in box])
        for _ in range(20):
            s = rng.uniform(lows, highs)
            u = float(rng.uniform(-1.0, 1.0))
            J = np.asarray(model.jac(0.3, s, u))
            Jfd = finite_difference_jacobian(model, 0.3, s, u)
            scale = max(1.0, float(np.max(np.abs(J))))
            worst_jac = max(worst_jac, float(np.max(np.abs(J - Jfd))) / scale)
    rows.append(_row("properties", "jacobian_consistency", "0", worst_jac,
                     "1e-5", worst_jac <= 1e-5))

    # quadrature gain: odd static nonlinearity has no quadrature component
    df = describing_function(lambda y: y ** 3 - 2.0 * y, 1.7, 1.3)
    rows.append(_row("properties", "odd_nonlinearity_quadrature", "0",
                     abs(df.q), "1e-8", abs(df.q) <= 1e-8))

    # fading-memory probe recovers the known rate of a first-order lag
    probe = contraction_probe(leaky_integrator(1.0), Constant(0.5),
                              np.array([0.0]), np.array([0.5]), 0.0, 20.0)
    rows.append(_row("properties", "probe_rate_recovery", "-1", probe.rate,
                     "0.01", abs(probe.rate + 1.0) <= 0.01))

    # region membership implies a negative-definite symmetric part
    violations = r["region_contraction_violations"]
    ok = r["samples_in_region"] > 0 and not violations
    rows.append(_row("properties", "lorenz_region_contraction",
                     "0 violations", f"{len(violations)} of {r['samples_in_region']}",
                     "exact", ok, f"{r['samples_total']} samples"))
    return rows


CRITERIA = {
    "kapitza": criterion_kapitza,
    "fhn": criterion_fhn,
    "hh": criterion_hh,
    "chua": criterion_chua,
    "observer": criterion_observer,
    "properties": criterion_properties,
}

# criterion -> (the config it runs and reads the report of, runtime budget in
# seconds); chua runs from rest too, for its entrained_fundamental row
VERIFY = {
    "kapitza": ({"experiment": "kapitza"}, 60),
    "fhn": ({"experiment": "fhn"}, 120),
    "hh": ({"experiment": "hh"}, 120),
    "chua": ({"experiment": "chua", "params": {"from_rest": True}}, 120),
    "observer": ({"experiment": "observer"}, 180),
    "properties": ({"experiment": "lorenz"}, 120),
}


def run_criteria(names=None, jobs: int = 1) -> list[CriterionRow]:
    """Run each picked criterion's verify config through run_experiment, check
    the report it returns, and add a runtime row timing run and checks."""
    picked = list(CRITERIA) if not names else [n for n in CRITERIA if n in names]
    if jobs > 1 and len(picked) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(picked))) as pool:
            return [row for rows in pool.map(run_criteria, [[n] for n in picked])
                    for row in rows]
    rows = []
    for name in picked:
        raw, budget = VERIFY[name]
        t_start = time.monotonic()
        cfg = config_from_dict(raw)
        with tempfile.TemporaryDirectory() as out:
            report = run_experiment(cfg, out)
        rows += CRITERIA[name](cfg.params, report)
        wall = time.monotonic() - t_start
        rows.append(_row(name, "runtime", f"<= {budget} s", f"{wall:.1f} s",
                         f"{budget} s", wall <= budget))
    return rows
