"""Acceptance suite: one function per study, each returning verdict rows.

Every row pins an expected value and a tolerance up front and reports the
observed value honestly; a red row is a result, not an error. The functions
are shared by the CLI `verify` subcommand and the test suite so the two can
never drift apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import config_from_dict
from .experiments import (
    chua_pipeline,
    fhn_pipeline,
    hh_pipeline,
    kapitza_pipeline,
    lorenz_pipeline,
    observer_pipeline,
)
from .integrate import FixedStep, integrate
from .lure import (
    CHUA_DEN,
    CHUA_NUM,
    DescribingFunctionResult,
    chua_closed_form,
    chua_system,
    describing_function,
    lure_stability,
)
from .models import (
    ConductanceParams,
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

__all__ = ["CriterionRow", "CRITERIA", "run_criteria", "bessel_j0"]


@dataclass
class CriterionRow:
    criterion: str
    name: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    note: str = ""


def _row(criterion: str, name: str, expected: str, observed, tolerance: str,
         passed: bool, note: str = "") -> CriterionRow:
    if isinstance(observed, float):
        observed = f"{observed:.6g}"
    return CriterionRow(criterion, name, expected, str(observed), tolerance,
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


def _params(experiment: str) -> dict:
    return config_from_dict({"experiment": experiment}).params


def criterion_kapitza(results: dict | None = None,
                      wall: float | None = None) -> list[CriterionRow]:
    t_start = time.monotonic()
    p = _params("kapitza")
    r = kapitza_pipeline(p) if results is None else results
    rows = []
    gain = r["design"].gain
    rows.append(_row("kapitza", "averaged_gain_sign", "gain < 0", gain, "exact",
                     gain < 0.0, f"M = {r['design'].M:.6g}"))
    series = bessel_j0(r["design"].M)
    rows.append(_row("kapitza", "bessel_series_agreement",
                     f"{series:.6g}", gain, "1e-9",
                     abs(gain - series) <= 1e-9,
                     f"|diff| = {abs(gain - series):.3g}"))
    entry = r["band_entry_time"]
    rows.append(_row("kapitza", "band_entry_by_deadline",
                     "entry <= 20 tu", entry, "0.05 rad band",
                     entry <= p["settle_deadline"],
                     f"deviation at 20 tu = {r['deviation_at_deadline']:.4g}; "
                     f"slow decay rate {r['measured_slow_decay']:.5g} matches the "
                     "averaged eigenvalue "
                     f"{max(np.real(r['averaged_eigenvalues'])):.5g}, so the slow "
                     "mode sets a longer settling time than the deadline"))
    if wall is None:
        wall = time.monotonic() - t_start
    rows.append(_row("kapitza", "runtime", "<= 60 s", f"{wall:.1f} s", "60 s",
                     wall <= 60.0))
    return rows


def criterion_fhn(results: dict | None = None,
                  wall: float | None = None) -> list[CriterionRow]:
    t_start = time.monotonic()
    p = _params("fhn")
    r = fhn_pipeline(p) if results is None else results
    rows = []
    free = np.array([complex(a, b) for a, b in
                     r["design"].free_window_monodromy.to_json_dict()["eigenvalues"]])
    lead = free[np.argmax(np.abs(free))]
    rows.append(_row("fhn", "free_multiplier_unity", "1", abs(lead), "1e-3",
                     abs(abs(lead) - 1.0) <= 1e-3))
    second = float(np.sort(np.abs(free))[-2])
    rows.append(_row("fhn", "free_second_multiplier", "< 1", second, "exact",
                     second < 1.0))
    mism = r["monodromy_mismatch"]
    rows.append(_row("fhn", "realized_vs_predicted_monodromy", "0", mism, "2e-2",
                     mism <= 0.02,
                     f"impulse magnitude {r['design'].eps_n:.6g} at width {p['width']:g}"))
    rho = float(np.max(np.abs(
        [complex(a, b) for a, b in r["realized_monodromy"].to_json_dict()["eigenvalues"]])))
    rows.append(_row("fhn", "realized_spectral_radius", "< 1", rho, "exact",
                     rho < 1.0))
    final = r["sync_diff_per_period"][-1]
    rows.append(_row("fhn", "phase_synchronization", "< 1e-3", final, "1e-3",
                     final < p["sync_tol"],
                     f"offsets {p['phase_offsets']} periods, "
                     f"{p['sync_periods']} periods simulated"))
    if wall is None:
        wall = time.monotonic() - t_start
    rows.append(_row("fhn", "runtime", "<= 120 s", f"{wall:.1f} s", "120 s",
                     wall <= 120.0))
    return rows


def criterion_hh(results: dict | None = None,
                 wall: float | None = None) -> list[CriterionRow]:
    t_start = time.monotonic()
    p = _params("hh")
    r = hh_pipeline(p) if results is None else results
    rows = []
    rep = r["certificate"]
    rows.append(_row("hh", "slow_gate_midpoint", "0.5", rep.M_s, "exact",
                     rep.M_s == 0.5))
    rows.append(_row("hh", "total_conductance_bound", "49", rep.G_tot, "exact",
                     rep.G_tot == 49.0))
    rows.append(_row("hh", "averaged_rate_bound", "49.5", rep.a_bar, "exact",
                     rep.a_bar == 49.5))
    lhs = p["eps"] * p["T_hat"]
    rhs = rep.a_bar * p["tau"]
    rows.append(_row("hh", "certificate_verdict",
                     f"{lhs:.6g} > {rhs:.6g} and verdict true",
                     f"verdict={rep.verdict}", "exact",
                     rep.verdict and lhs > rhs,
                     f"measured tau = {rep.tau_unstable:.6g}, "
                     f"T_hat = {rep.T_hat:.6g}"))
    sync = r["sync_diff_per_period"][-1]
    rows.append(_row("hh", "two_state_synchronization", "< 1e-2", sync, "1e-2",
                     sync < p["sync_tol"],
                     f"initial conditions {p['sync_ics']}"))
    if wall is None:
        wall = time.monotonic() - t_start
    rows.append(_row("hh", "runtime", "<= 120 s", f"{wall:.1f} s", "120 s",
                     wall <= 120.0))
    return rows


def criterion_chua(threshold: float = -0.05, results: dict | None = None,
                   wall: float | None = None) -> list[CriterionRow]:
    t_start = time.monotonic()
    p = _params("chua")
    p["from_rest"] = True
    r = chua_pipeline(p) if results is None else results
    rows = []
    cf = chua_closed_form(p["M"], p["omega"])
    rows.append(_row("chua", "closed_form_gain", "-0.05 < p < 0", cf.p, "exact",
                     -0.05 < cf.p < 0.0))

    def verdict_at(rho: float):
        df = DescribingFunctionResult(p=rho, q=0.0, M=p["M"], omega=p["omega"],
                                      method="constant-gain")
        return lure_stability(CHUA_NUM, CHUA_DEN, df)

    above = verdict_at(threshold + 1e-3)
    rows.append(_row("chua", "stable_above_threshold",
                     f"stable at {threshold + 1e-3:.6g}",
                     f"stable={above.stable}", "margin > 0", above.stable,
                     f"margin = {above.margin:.3g}"))
    below = verdict_at(threshold - 1e-3)
    rows.append(_row("chua", "unstable_below_threshold",
                     f"unstable at {threshold - 1e-3:.6g}",
                     f"stable={below.stable}", "margin < 0", not below.stable,
                     f"margin = {below.margin:.3g}; the constant-gain loop "
                     "loses stability near -0.05118, just below this probe"))
    fr = r["from_rest"]
    fund = fr["fundamental_amplitude"]
    rel = abs(fund - p["M"]) / p["M"]
    rows.append(_row("chua", "entrained_fundamental",
                     f"{p['M']:.6g}", fund, "3%", rel <= 0.03,
                     "the designed orbit is an exact solution (per-period "
                     f"tracking max {max(r['tracking_per_period']):.3g}) but its "
                     f"linearization has spectral radius "
                     f"{r['orbit_spectral_radius']:.5g} > 1, so from rest the "
                     "response escapes to a large attractor instead"))
    if wall is None:
        wall = time.monotonic() - t_start
    rows.append(_row("chua", "runtime", "<= 120 s", f"{wall:.1f} s", "120 s",
                     wall <= 120.0))
    return rows


def criterion_observer(results: dict | None = None,
                       wall: float | None = None) -> list[CriterionRow]:
    t_start = time.monotonic()
    p = _params("observer")
    r = observer_pipeline(p) if results is None else results
    rows = []
    conv = r["nominal"].converged_at
    err_end = float(r["nominal"].theta_error[-1])
    rows.append(_row("observer", "parameter_convergence",
                     f"error < {r['tolerance']:.4g} held 3 periods within "
                     f"{p['horizon']:g} s",
                     "none" if conv is None else f"{conv:.1f} s",
                     f"{r['tolerance']:.4g}", conv is not None,
                     f"error at horizon = {err_end:.4g}; a longer run converges "
                     "near 364 s, the shortfall is a non-normal transient plus "
                     "a slow nonlinear approach, not divergence"))
    emb = r["embedding_deviation"]
    rows.append(_row("observer", "embedding_invariance", "0", emb, "1e-6",
                     emb <= 1e-6,
                     f"{p['embedding_periods']} input periods"))
    rho = float(np.max(np.abs(
        [complex(a, b) for a, b in r["check"].monodromy.to_json_dict()["eigenvalues"]])))
    rows.append(_row("observer", "extended_contraction", "< 1", rho, "exact",
                     rho < 1.0, f"margin = {r['check'].verdict.margin:.4g}"))
    if wall is None:
        wall = time.monotonic() - t_start
    rows.append(_row("observer", "runtime", "<= 180 s", f"{wall:.1f} s", "180 s",
                     wall <= 180.0))
    return rows


def criterion_properties() -> list[CriterionRow]:
    t_start = time.monotonic()
    rows = []
    rng = np.random.default_rng(7)

    # flow-map composition and the trace identity on one nonlinear window
    fhn = fitzhugh_nagumo()
    pol = FixedStep(1e-3)
    traj, full = flow(fhn, None, 0.0, 2.0, np.array([1.0, 0.0]), pol)
    first, phi_a = flow(fhn, None, 0.0, 1.0, traj.states[0], pol)
    _, phi_b = flow(fhn, None, 1.0, 2.0, first.states[-1], pol)
    half = phi_b @ phi_a
    comp = float(np.max(np.abs(full - half)) / np.max(np.abs(full)))
    rows.append(_row("properties", "flow_composition", "0", comp, "1e-7",
                     comp <= 1e-7))
    from scipy.integrate import simpson

    tr = np.array([np.trace(fhn.jac(t, s, 0.0)) for t, s in zip(traj.ts, traj.states)])
    liou = math.exp(float(simpson(tr, x=traj.ts)))
    det = float(np.linalg.det(full))
    rel = abs(det - liou) / abs(liou)
    rows.append(_row("properties", "volume_trace_identity", "0", rel, "1e-6",
                     rel <= 1e-6))

    # integrator order on a rotation with a known solution
    rot = PlainModel("rotation", 2,
                     lambda t, s, u: np.array([s[1], -s[0]]),
                     lambda t, s, u: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    errs = []
    for h in (0.01, 0.005):
        end = integrate(rot, None, 0.0, 1.0, np.array([1.0, 0.0]), FixedStep(h)).states[-1]
        errs.append(float(np.linalg.norm(end - exact)))
    order = math.log2(errs[0] / errs[1])
    rows.append(_row("properties", "integrator_order", "4", order, "0.2",
                     abs(order - 4.0) <= 0.2))

    # input inversion residual on the conductance model
    hh = hh_conductance(ConductanceParams())
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1.2, 1.2, size=1)
        z = rng.uniform(-0.8, 0.8, size=1)
        v = float(rng.uniform(-30.0, 30.0))
        u = hh.f_inv_solve(0.0, x, z, v)
        worst = max(worst, abs(hh.f(0.0, x, z, u) - v) / max(1.0, abs(v)))
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
            J = model.jac(0.3, s, u)
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
    lp = _params("lorenz")
    lr = lorenz_pipeline(lp, seed=0)
    ok = lr["samples_in_region"] > 0 and not lr["region_violations"]
    rows.append(_row("properties", "lorenz_region_contraction",
                     "0 violations",
                     f"{len(lr['region_violations'])} of {lr['samples_in_region']}",
                     "exact", ok, f"{lr['samples_total']} samples"))

    wall = time.monotonic() - t_start
    rows.append(_row("properties", "runtime", "<= 120 s", f"{wall:.1f} s",
                     "120 s", wall <= 120.0))
    return rows


CRITERIA = {
    "kapitza": criterion_kapitza,
    "fhn": criterion_fhn,
    "hh": criterion_hh,
    "chua": criterion_chua,
    "observer": criterion_observer,
    "properties": criterion_properties,
}


def run_criteria(names=None, jobs: int = 1) -> list[CriterionRow]:
    picked = list(CRITERIA) if not names else [n for n in CRITERIA if n in names]
    if jobs > 1 and len(picked) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(CRITERIA[n]) for n in picked]
            rows: list[CriterionRow] = []
            for f in futures:
                rows.extend(f.result())
            return rows
    rows = []
    for n in picked:
        rows.extend(CRITERIA[n]())
    return rows
