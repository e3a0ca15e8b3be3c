"""Experiment drivers: one pipeline per built-in study, artifacts out.

Each ``<study>_pipeline(cfg)`` runs its study from one validated config and
returns ``{"report": ..., "traces": ..., **objects}``: the report, its named
trace columns (arrays at full length, or the signal of a column that is only
written, which write_csv tabulates on the rows it keeps), and only those
objects that a reader outside this module needs and that a JSON report
cannot carry (designs, feedforwards, orbits). run_experiment alone writes
the artifacts: one downsampled CSV per trace, then the report as strict JSON
and the echoed config. It looks the pipeline up among this module's globals
when called, so that a wrapper put in place of ``<study>_pipeline`` sees the
call. Reports carry no wall-clock data so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .design import (
    OutputReference,
    feedforward_from_reference,
    fhn_impulse_design,
    hh_certificate,
    hh_square_reference,
    kapitza_design,
    lorenz_region_check,
)
from .errors import NoCrossings, PeriodUnstable, RangeViolation
from .integrate import build_grid, integrate
from .lure import (
    CHUA_C,
    CHUA_DEN,
    CHUA_KINKS,
    CHUA_NUM,
    chua_closed_form,
    chua_linearization,
    chua_nonlinearity,
    chua_system,
    describing_function,
    lure_input_reconstruct,
    lure_stability,
)
from .models import (
    ConductanceParams,
    InverseSystem,
    PlainModel,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
    neuron_family,
)
from .observer import observer_contraction_check, run_observer
from .signals import CallableSignal, Constant, InputSignal, SquarePulseTrain, Sum
from .variational import (
    MonodromyResult,
    contraction_probe,
    flow,
    floquet,
    refine_periodic_orbit,
)

__all__ = [
    "kapitza_pipeline",
    "fhn_pipeline",
    "hh_pipeline",
    "chua_pipeline",
    "lorenz_pipeline",
    "observer_pipeline",
    "probe_pipeline",
    "run_experiment",
]

_CSV_ROW_CAP = 20000
# Rows converted to Python floats at a time, so that write_csv never holds
# more than this many rows of a column as a list.
_CSV_CHUNK = 4096


def write_csv(path, cols: dict[str, np.ndarray | InputSignal]) -> None:
    """Write equal-length named columns under a header row, every value as
    %.17g so that reading the file back recovers each float64 exactly. Longer
    columns keep every k-th row from the first, k the least stride that leaves
    at most _CSV_ROW_CAP rows. The first column is the times; a column given
    as a signal is tabulated at the kept times only."""
    ts, *rest = cols.values()
    ts = np.asarray(ts)
    stride = max(1, math.ceil(ts.size / _CSV_ROW_CAP))
    ts = ts[::stride]
    kept = [ts] + [c.values(ts) if isinstance(c, InputSignal) else np.asarray(c)[::stride]
                   for c in rest]
    row = ",".join(["%.17g"] * len(kept)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, kept[0].size, _CSV_CHUNK):
            chunk = zip(*(a[i:i + _CSV_CHUNK].tolist() for a in kept))
            fh.write("".join([row % r for r in chunk]))


def _per_period_max(ts: np.ndarray, d: np.ndarray, t0: float, T: float,
                    n: int) -> list[float]:
    """Largest d over each closed period [t0 + (k - 1) T, t0 + k T], k = 1..n."""
    return [float(d[(ts >= t0 + (k - 1) * T) & (ts <= t0 + k * T)].max())
            for k in range(1, n + 1)]


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return _json_ready(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def kapitza_pipeline(cfg: ExperimentConfig) -> dict:
    """Amplitude selection, averaged verdict, and the full fast simulation."""
    p = cfg.params
    alpha, beta, gamma = p["alpha"], p["beta"], p["gamma"]
    omega = p["omega"]
    design = kapitza_design(
        p["amplitude_grid"], omega, alpha=alpha, beta=beta, gamma=gamma
    )
    M = design.M
    model = kapitza(alpha, beta, gamma)
    ic = np.array([math.pi + p["y0_offset"], M * omega])
    traj = integrate(model, design.feedforward, 0.0, p["horizon"], ic, cfg.step)
    delta_y = M * np.sin(omega * traj.ts)
    slow = traj.states[:, 0] - delta_y
    dev = np.abs(slow - math.pi)
    outside = np.nonzero(dev > p["band"])[0]
    if outside.size and outside[-1] + 1 < traj.ts.size:
        entry = float(traj.ts[outside[-1] + 1])
    else:
        entry = 0.0 if not outside.size else float("inf")
    i_dead = min(int(np.searchsorted(traj.ts, p["settle_deadline"])), dev.size - 1)
    msk = (traj.ts > 5.0) & (traj.ts < 30.0) & (dev > 1e-12)
    decay = float(np.polyfit(traj.ts[msk], np.log(dev[msk]), 1)[0]) if msk.sum() > 10 else None
    report = {
        "selected_amplitude": M,
        "averaged_gain": design.gain,
        "averaged_eigenvalues": np.sort(np.roots([1.0, gamma, -beta * design.gain])),
        "rejected_amplitudes": design.rejected,
        "band_entry_time": entry,
        "deviation_at_deadline": float(dev[i_dead]),
        "measured_slow_decay": decay,
        "steps": int(traj.ts.size),
    }
    traces = {"trace": {"t": traj.ts, "y": traj.states[:, 0], "delta_y": delta_y,
                        "y_slow": slow, "u": design.feedforward}}
    return {"report": report, "traces": traces, "design": design}


def fhn_pipeline(cfg: ExperimentConfig) -> dict:
    """Free cycle, impulse design, inverse feedforward, realized monodromy,
    and phase synchronization under the designed input."""
    p = cfg.params
    model = fitzhugh_nagumo(p["alpha"], p["beta"], p["gamma"], p["eps"])
    fine = cfg.step if cfg.step is not None else p["fine_step"]
    one, _ = refine_periodic_orbit(model, None, np.array([1.0, 0.0]), 0.0, step=fine)
    T = one.t1 - one.t0
    design = fhn_impulse_design(
        one, p["eps_fraction"], alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
        eps=p["eps"], width=p["width"], phase_points=p["phase_points"],
        cross_budget=p["cross_budget"],
    )
    ta = one.t0
    train = design.train

    def wrap(t):
        return ta + (t - ta) % T

    def ystar(t):
        return one.interp_state(wrap(t))[..., 0]

    def ystar_dot(t):
        w = wrap(t)
        y, z = one.interp_state(w).T
        return model.f(w, y, z, 0.0)

    ref = OutputReference(Sum((CallableSignal(fn=ystar, derivative_fn=ystar_dot), train)))
    w0 = design.free_window_monodromy.t0
    n_sync = p["sync_periods"]
    ff = feedforward_from_reference(
        model, ref, w0, T, zbar_ic=np.array([one.interp_state(wrap(w0))[1]]), step=fine,
    )
    ic = np.array([ref.signal.value(w0), ff.zbar.states[0, 0]])
    realized, mono = floquet(model, ff.signal, ic, w0, T, fine)
    pred = design.predicted_monodromy

    runs = []
    for off in p["phase_offsets"]:
        t_off = wrap(w0 + off * T)
        ic_off = np.array([ystar(t_off), float(one.interp_state(t_off)[1])])
        runs.append(integrate(model, ff.signal, w0, w0 + n_sync * T, ic_off,
                              p["sync_step"]))
    a, b = runs
    ya, yb = a.states[:, 0], b.states[:, 0]
    diff = np.abs(ya - yb)
    report = {
        "period": T,
        "anchor": one.states[0],
        "impulse_time": design.t0,
        "impulse_magnitude": design.eps_n,
        "cross_exponent": design.cross_exponent,
        "feedforward_residual": ff.residual_max,
        "inverse_rate": ff.inverse_rate,
        "free_window_monodromy": design.free_window_monodromy.to_json_dict(),
        "predicted_monodromy": pred.to_json_dict(),
        "realized_monodromy": mono.to_json_dict(),
        "realized_closure_gap": float(np.max(np.abs(realized.states[-1] - realized.states[0]))),
        "monodromy_entrywise_mismatch":
            float(np.max(np.abs(mono.phi - pred.phi)) / np.max(np.abs(pred.phi))),
        "sync_diff_per_period": _per_period_max(a.ts, diff, w0, T, n_sync),
    }
    traces = {
        "realized": {"t": realized.ts, "y": realized.states[:, 0],
                     "y_free_reference": ystar(realized.ts),
                     "u": ff.signal},
        "sync": {"t": a.ts, "y_phase_a": ya, "y_phase_b": yb, "abs_diff": diff},
    }
    return {"report": report, "traces": traces, "cycle": one, "design": design,
            "feedforward": ff, "realized": realized}


def hh_pipeline(cfg: ExperimentConfig) -> dict:
    """Square-wave certificate on a dedicated fine grid plus entrainment sync
    and the scaled-free-orbit certificate sweep."""
    p, step = cfg.params, cfg.step
    params = ConductanceParams(
        g=p["g"], E=p["E"], gbar_f=p["gbar_f"], E_f=p["E_f"], kappa_f=p["kappa_f"],
        V_f=p["V_f"], gbar_s=p["gbar_s"], E_s=p["E_s"], kappa_s=p["kappa_s"],
        V_s=p["V_s"], eps=p["eps"],
    )
    model = hh_conductance(params)
    sq = hh_square_reference(p["T_hat"], p["tau"], tuple(p["levels"]))
    P = sq.period
    ff = feedforward_from_reference(
        model, OutputReference(sq), 0.0, P, zbar_ic=np.array([sq.value(0.0)]), step=step,
    )

    # certificate grid: every segment of the reference, plateaus included,
    # stepped at tau / divisor at most, so the default divisor puts about
    # 400,000 nodes on one period
    grid = build_grid(0.0, P, min(p["base_step"], p["tau"] / p["ramp_step_divisor"]), sq)
    ys = sq.values(grid)
    zs = ff.zbar.interp_state(grid)[:, 0]
    cert = hh_certificate(params, grid, ys, zs, sq.derivative(grid), theta=p["theta"],
                          theta_prime=p["theta_prime"], M_y=p["M_y"])

    a, b = (
        integrate(model, ff.signal, 0.0, p["sync_periods"] * P,
                  np.array(ic, dtype=float), step)
        for ic in p["sync_ics"]
    )
    diff = np.abs(a.states[:, 0] - b.states[:, 0])

    sweep = []
    if p["run_delta_sweep"]:
        try:
            loop, _ = refine_periodic_orbit(model, None, np.array([1.0, 0.0]), 0.0,
                                            step=step)
            ydf = model.f(loop.ts, loop.states[:, 0], loop.states[:, 1], 0.0)
            free = {
                "period": loop.t1 - loop.t0,
                "y_range": [float(loop.states[:, 0].min()), float(loop.states[:, 0].max())],
            }
            for delta in p["delta_sweep"]:
                ys_d, zs_d = ((1.0 + delta) * loop.states).T
                try:
                    rep = hh_certificate(params, loop.ts, ys_d, zs_d, (1.0 + delta) * ydf,
                                         theta=p["theta"], theta_prime=p["theta_prime"],
                                         M_y=p["M_y"])
                    sweep.append({"delta": delta, "verdict": rep.verdict,
                                  "tau_unstable": rep.tau_unstable, "T_hat": rep.T_hat})
                except RangeViolation as exc:
                    sweep.append({"delta": delta, "verdict": None,
                                  "range_violation": str(exc)})
        except (PeriodUnstable, NoCrossings) as exc:
            free = {"error": type(exc).__name__, "detail": str(exc)}
    else:
        free = None
    report = {
        "period": P,
        "certificate": dataclasses.asdict(cert),
        "design_margin": {"eps_T_hat": p["eps"] * p["T_hat"], "a_bar_tau": cert.a_bar * p["tau"]},
        "feedforward_residual": ff.residual_max,
        "inverse_rate": ff.inverse_rate,
        "zbar_range": [float(ff.zbar.states.min()), float(ff.zbar.states.max())],
        "sync_diff_per_period": _per_period_max(a.ts, diff, 0.0, P, p["sync_periods"]),
        "free_orbit": free,
        "delta_sweep": sweep,
    }
    traces = {
        "sync": {"t": a.ts, "y_reference": sq, "y_ic_a": a.states[:, 0],
                 "y_ic_b": b.states[:, 0], "u": ff.signal},
        "reference": {"t": grid, "y_reference": ys, "z_bar": zs, "u": ff.signal},
    }
    return {"report": report, "traces": traces, "feedforward": ff}


def chua_pipeline(cfg: ExperimentConfig) -> dict:
    """Describing-function design, constant-gain threshold sweep, reference
    monodromy, and the exact-solution check from the phasor initial state."""
    p = cfg.params
    M, omega = p["M"], p["omega"]
    cf = chua_closed_form(M, omega)
    qd = describing_function(chua_nonlinearity, M, omega, kinks=CHUA_KINKS)
    rec, D, theta = lure_input_reconstruct(CHUA_NUM, CHUA_DEN, cf, chua_nonlinearity)

    sweep = []
    for rho in p["rho_grid"]:
        verdict = lure_stability(CHUA_NUM, CHUA_DEN, rho)
        sweep.append({"rho": rho, "stable": verdict.stable, "margin": verdict.margin})

    # monodromy of the linearization x' = A(y) x along the designed output
    # y = M sin(omega t), fed in as the input; the slope of the nonlinearity
    # jumps where |y| = 1, and each of those instants is a grid breakpoint
    T = 2.0 * math.pi / omega

    def Ax(t: float, x, y: float) -> tuple[float, ...]:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = chua_linearization(y)
        x0, x1, x2 = x
        return (a00 * x0 + a01 * x1 + a02 * x2,
                a10 * x0 + a11 * x1 + a12 * x2,
                a20 * x0 + a21 * x1 + a22 * x2)

    linearized = PlainModel("chua-linearized", 3, Ax, lambda t, x, y: chua_linearization(y))
    kinks = []
    if M > 1.0:
        a = math.asin(1.0 / M)
        kinks = [(b + 2.0 * math.pi * k) / omega
                 for k in range(-1, 3) for b in (a, math.pi - a, -a, math.pi + a)]
    output = CallableSignal(fn=lambda t: M * np.sin(omega * t), breaks=tuple(kinks))
    _, phi = flow(linearized, output, 0.0, T, np.zeros(3), p["monodromy_base_step"])
    orbit = MonodromyResult.from_phi(0.0, T, phi)

    # phasor initial state making M sin(omega t) an exact solution
    s = 1j * omega
    W = D * np.exp(1j * theta) - cf.p * M
    X1 = CHUA_DEN[0] * W / np.polyval(CHUA_DEN, s)
    phasors = [X1, X1 * s, X1 * s * s]
    x0 = np.array([x.imag for x in phasors])  # value at t = 0 in sin convention
    model = chua_system()
    h = T / p["steps_per_period"]
    n_per = p["periods"]
    tr = integrate(model, rec, 0.0, n_per * T, x0, h)
    y = tr.states @ np.asarray(CHUA_C)
    y_ref = M * np.sin(omega * tr.ts)

    tr2 = integrate(model, rec, 0.0, n_per * T,
                    x0 + np.array([p["perturbation"], 0.0, 0.0]), h)
    d = np.abs(tr2.states @ np.asarray(CHUA_C) - y_ref)
    peaks = _per_period_max(tr2.ts, d, 0.0, T, n_per)

    from_rest = None
    if p["from_rest"]:
        trr = integrate(model, rec, 0.0, p["from_rest_horizon"], np.zeros(3))
        yr = trr.states @ np.asarray(CHUA_C)
        msk = trr.ts >= p["from_rest_horizon"] - 2.0 * T
        tt, yy = trr.ts[msk], yr[msk]
        a = float(np.trapezoid(yy * np.sin(omega * tt), tt) / T)
        b = float(np.trapezoid(yy * np.cos(omega * tt), tt) / T)
        from_rest = {
            "fundamental_amplitude": math.hypot(a, b),
            "max_output_last_two_periods": float(np.abs(yy).max()),
        }
    report = {
        "closed_form_gain": cf.p,
        "quadrature_gain_p": qd.p,
        "quadrature_gain_q": qd.q,
        "gain_difference_p": qd.p - cf.p,
        "input_amplitude": D,
        "input_phase": theta,
        "threshold_sweep": sweep,
        "orbit_monodromy_eigenvalues": orbit.eigenvalues,
        "orbit_spectral_radius": orbit.spectral_radius,
        "tracking_per_period": _per_period_max(tr.ts, np.abs(y - y_ref), 0.0, T, n_per),
        "perturbed_growth_per_period": [peaks[i + 1] / peaks[i] for i in range(len(peaks) - 1)],
        "from_rest": from_rest,
    }
    return {"report": report,
            "traces": {"trace": {"t": tr.ts, "y_reference": y_ref, "y": y, "u": rec}}}


def lorenz_pipeline(cfg: ExperimentConfig) -> dict:
    """Region-implies-contraction sampling plus the no-stable-period probe of
    the chaotic instance."""
    p, step = cfg.params, cfg.step
    sigma, beta = p["sigma"], p["beta"]
    region_model = lorenz(sigma, p["sampling_rho"], beta)
    rng = np.random.default_rng(cfg.seed)
    z_c = sigma + beta
    z_b = 2.0 * math.sqrt(sigma / 2.0)
    x2_b = 2.0 * math.sqrt(sigma * beta / 2.0)
    lows = np.array([-25.0, -1.5 * x2_b, z_c - 1.5 * z_b])
    highs = np.array([25.0, 1.5 * x2_b, z_c + 1.5 * z_b])
    samples = rng.uniform(lows, highs, size=(p["samples"], 3))
    in_region = 0
    violations = []
    for x in samples:
        if not lorenz_region_check(x, sigma, beta):
            continue
        in_region += 1
        S = np.asarray(region_model.jac(0.0, x, 0.0))
        lam_max = float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))
        if lam_max >= 0.0:
            violations.append({"state": x.tolist(), "lam_max": lam_max})

    chaotic = lorenz(sigma, p["rho"], beta)
    traj = integrate(chaotic, None, 0.0, p["horizon"],
                     np.array(p["x0"], dtype=float), step)
    flags = np.array([lorenz_region_check(s, sigma, beta) for s in traj.states])
    try:
        refine_periodic_orbit(chaotic, None, np.array(p["x0"], dtype=float), 0.0,
                              step=step)
        cycle_outcome = {"error": None}
    except (PeriodUnstable, NoCrossings) as exc:
        cycle_outcome = {"error": type(exc).__name__, "detail": str(exc)}
    report = {
        "samples_total": p["samples"],
        "samples_in_region": in_region,
        "region_contraction_violations": violations,
        "cycle_outcome": cycle_outcome,
    }
    x = traj.states
    return {"report": report,
            "traces": {"trace": {"t": traj.ts, "x1": x[:, 0], "x2": x[:, 1], "z": x[:, 2],
                                 "in_region": flags.astype(float)}}}


def observer_pipeline(cfg: ExperimentConfig) -> dict:
    """Entrained reference, extended monodromy check, embedding run, and the
    nominal parameter-convergence run."""
    p, step = cfg.params, cfg.step
    plant = neuron_family()
    theta_star = np.array(p["theta_star"], dtype=float)
    u = SquarePulseTrain(magnitude=p["magnitude"], duration=p["duration"],
                         period=p["period"])
    P = p["period"]

    model = plant.model(theta_star)
    k = p["settle_periods"]
    guess = np.array([-0.7, 0.0])
    if k:
        guess = integrate(model, u, 0.0, k * P, guess, step).states[-1]
    ref, _ = refine_periodic_orbit(model, u, guess, k * P, P, step)
    check = observer_contraction_check(plant, theta_star, ref, u, step,
                                       eps_coupling=p["eps_coupling"])

    tol = p["tolerance_fraction"] * float(np.linalg.norm(theta_star))
    emb = run_observer(plant, theta_star, u, horizon=p["embedding_periods"] * P,
                       tolerance=tol, plant_ic=np.array([-0.7, 0.0]),
                       theta0=theta_star.copy(), step=step)
    st = emb.traces.states
    emb_dev = max(
        float(np.max(np.abs(st[:, 2:4] - st[:, :2]))),
        float(np.max(np.abs(st[:, 4:] - theta_star))),
    )

    nominal = run_observer(plant, theta_star, u, horizon=p["horizon"], tolerance=tol,
                           plant_ic=np.array([-0.7, 0.0]),
                           theta0=np.array(p["theta0"], dtype=float), step=step)
    corners = []
    if p["run_corners"]:
        box = plant.theta_box
        for c in ((box[0][0], box[1][0]), (box[0][0], box[1][1]),
                  (box[0][1], box[1][0]), (box[0][1], box[1][1])):
            r = run_observer(plant, theta_star, u, horizon=p["horizon"],
                             tolerance=tol, plant_ic=np.array([-0.7, 0.0]),
                             theta0=np.array(c), step=step)
            corners.append({"theta0": list(c), "converged_at": r.converged_at,
                            "final_error": float(r.theta_error[-1])})
    report = {
        "tolerance": tol,
        "reference_closure_gap": float(np.max(np.abs(ref.states[-1] - ref.states[0]))),
        "extended_monodromy": check.monodromy.to_json_dict(),
        "contraction_verdict": check.verdict.stable,
        "contraction_margin": check.verdict.margin,
        "lyapunov_shift": check.lyapunov_shift,
        "lyapunov_decreases": check.lyapunov_decreases,
        "q_min_eigenvalue": check.q_min_eigenvalue,
        "embedding_deviation": emb_dev,
        "converged_at": nominal.converged_at,
        "final_theta_error": float(nominal.theta_error[-1]),
        "corners": corners,
    }
    tr = nominal.traces
    trace = {"t": tr.ts, "y": tr.states[:, 0], "y_hat": tr.states[:, 2],
             "z": tr.states[:, 1], "z_hat": tr.states[:, 3]}
    for j in range(theta_star.size):
        trace[f"theta_hat_{j + 1}"] = tr.states[:, 4 + j]
    trace["theta_error"] = nominal.theta_error
    return {"report": report, "traces": {"nominal": trace}, "reference": ref}


def probe_pipeline(cfg: ExperimentConfig) -> dict:
    """Fading-memory probe of a chosen internal/inverse system."""
    p = cfg.params
    target = p["target"]
    if target == "leaky":
        model = leaky_integrator(p["tau"])
    elif target == "fhn":
        model = InverseSystem(fitzhugh_nagumo())
    else:
        model = InverseSystem(hh_conductance(ConductanceParams()))
    ic = np.zeros(model.n)
    res = contraction_probe(model, Constant(0.5), ic, ic + p["offset"],
                            p["t0"], p["t1"], cfg.step)
    report = {"model": model.name, "rate": res.rate, "stable": res.stable,
              "final_separation": res.final_separation}
    return {"report": report, "traces": {}}


def run_experiment(cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Execute one experiment and write its artifacts into outdir: one
    <out_prefix>_<name>.csv per trace, then <out_prefix>_report.json and
    <out_prefix>_config.json. Returns the JSON-ready report dict."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    # looked up when called, not bound at import: tests and the benchmark
    # worker wrap a study's pipeline by replacing this module's global
    result = globals()[f"{cfg.experiment}_pipeline"](cfg)
    for name, cols in result["traces"].items():
        write_csv(out / f"{cfg.out_prefix}_{name}.csv", cols)
    report = _json_ready(result["report"])
    for name, obj in (("report", report), ("config", cfg.to_dict())):
        with open(out / f"{cfg.out_prefix}_{name}.json", "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return report
