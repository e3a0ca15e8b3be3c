"""Experiment drivers: one pipeline per built-in study, artifacts out.

Each pipeline is a pure function of its parameter dict (plus an optional
fixed-step override) returning raw results; the run_* wrappers serialize a
JSON report and downsampled CSV traces. Reports carry no wall-clock data so
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

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
    orbit_scale,
)
from .errors import NoCrossings, PeriodUnstable, RangeViolation
from .integrate import (
    FixedStep,
    Trajectory,
    build_grid,
    find_limit_cycle,
    integrate,
    write_csv,
)
from .lure import (
    CHUA_A,
    CHUA_B,
    CHUA_C,
    CHUA_DEN,
    CHUA_KINKS,
    CHUA_NUM,
    DescribingFunctionResult,
    chua_closed_form,
    chua_nonlinearity,
    chua_nonlinearity_slope,
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
from .observer import (
    build_observer,
    observer_contraction_check,
    run_observer,
)
from .signals import CallableSignal, Constant, SquarePulseTrain, Zero
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


def _policy(step: float | None) -> FixedStep | None:
    return FixedStep(step) if step is not None else None


def _strided(*arrays: np.ndarray) -> list[np.ndarray]:
    n = arrays[0].size
    stride = max(1, math.ceil(n / _CSV_ROW_CAP))
    return [np.asarray(a)[::stride] for a in arrays]


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
    return obj


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def kapitza_pipeline(p: dict, step: float | None = None) -> dict:
    """Amplitude selection, averaged verdict, and the full fast simulation."""
    alpha, beta, gamma = p["alpha"], p["beta"], p["gamma"]
    omega = p["omega"]
    design = kapitza_design(
        p["amplitude_grid"], omega, alpha=alpha, beta=beta, gamma=gamma
    )
    M = design.M
    avg_eigs = np.sort(np.roots([1.0, gamma, -beta * design.gain]))
    model = kapitza(alpha, beta, gamma)
    ic = np.array([math.pi + p["y0_offset"], M * omega])
    traj = integrate(model, design.feedforward, 0.0, p["horizon"], ic, _policy(step))
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
    return {
        "design": design,
        "averaged_eigenvalues": avg_eigs,
        "traj": traj,
        "delta_y": delta_y,
        "slow": slow,
        "deviation": dev,
        "band_entry_time": entry,
        "deviation_at_deadline": float(dev[i_dead]),
        "measured_slow_decay": decay,
    }


def fhn_pipeline(p: dict, step: float | None = None) -> dict:
    """Free cycle, impulse design, inverse feedforward, realized monodromy,
    and phase synchronization under the designed input."""
    model = fitzhugh_nagumo(p["alpha"], p["beta"], p["gamma"], p["eps"])
    cyc = find_limit_cycle(
        model, None, np.array([1.0, 0.0]), section=(0, 0.0, 1),
        max_time=200.0, policy=FixedStep(p["cycle_step"]),
    )
    T = cyc.period
    fine = _policy(step) or FixedStep(p["fine_step"])
    one = integrate(model, None, cyc.t_anchor, cyc.t_anchor + T, cyc.anchor, fine)
    design = fhn_impulse_design(
        one, p["eps_fraction"], alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
        eps=p["eps"], width=p["width"], phase_points=p["phase_points"],
        cross_budget=p["cross_budget"],
    )
    ta = one.t0
    train = design.train

    def wrap(t: float) -> float:
        return ta + (t - ta) % T

    def ystar(t: float) -> float:
        return float(one.interp_state(wrap(t))[0])

    def ystar_dot(t: float) -> float:
        s = one.interp_state(wrap(t))
        return float(model.rhs(wrap(t), s, 0.0)[0])

    ref = OutputReference(
        r=1,
        x_fn=lambda t: np.array([ystar(t) + train.value(t)]),
        v_fn=lambda t: ystar_dot(t) + train.derivative(t),
        breakpoints_fn=train.breakpoints,
        windows_fn=train.refine_windows,
    )
    w0 = design.t0 - 8.0 * train.width
    n_sync = p["sync_periods"]
    ff = feedforward_from_reference(
        model, ref, w0, w0 + (n_sync + 1.0) * T,
        zbar_ic=np.array([one.interp_state(wrap(w0))[1]]), policy=fine,
    )
    ic = np.array([ref.x_fn(w0)[0], float(ff.zbar.interp_state(w0)[0])])
    realized, mono = floquet(model, ff.signal, ic, w0, T, fine)
    closure = float(np.max(np.abs(realized.states[-1] - realized.states[0])))
    pred = design.predicted_monodromy
    mismatch = float(np.max(np.abs(mono.phi - pred.phi)) / np.max(np.abs(pred.phi)))

    sync_pol = FixedStep(p["sync_step"])
    runs = []
    for off in p["phase_offsets"]:
        t_off = wrap(w0 + off * T)
        ic_off = np.array([ystar(t_off), float(one.interp_state(t_off)[1])])
        runs.append(integrate(model, ff.signal, w0, w0 + n_sync * T, ic_off, sync_pol))
    diff = np.abs(runs[0].states[:, 0] - runs[1].states[:, 0])
    per_period = []
    for k in range(1, n_sync + 1):
        msk = (runs[0].ts >= w0 + (k - 1) * T) & (runs[0].ts <= w0 + k * T)
        per_period.append(float(diff[msk].max()))
    return {
        "model": model,
        "period": T,
        "anchor": cyc.anchor,
        "cycle": one,
        "design": design,
        "feedforward": ff,
        "window_start": w0,
        "realized": realized,
        "realized_closure_gap": closure,
        "realized_monodromy": mono,
        "monodromy_mismatch": mismatch,
        "sync_runs": runs,
        "sync_diff_per_period": per_period,
    }


def hh_pipeline(p: dict, step: float | None = None) -> dict:
    """Square-wave certificate on a dedicated fine grid plus entrainment sync
    and the scaled-free-orbit certificate sweep."""
    params = ConductanceParams(
        g=p["g"], E=p["E"], gbar_f=p["gbar_f"], E_f=p["E_f"], kappa_f=p["kappa_f"],
        V_f=p["V_f"], gbar_s=p["gbar_s"], E_s=p["E_s"], kappa_s=p["kappa_s"],
        V_s=p["V_s"], eps=p["eps"],
    )
    model = hh_conductance(params)
    sq = hh_square_reference(p["T_hat"], p["tau"], tuple(p["levels"]))
    P = sq.period
    ref = OutputReference.from_signal(sq, r=1)
    ff = feedforward_from_reference(
        model, ref, 0.0, (p["sync_periods"] + 1.0) * P,
        zbar_ic=np.array([sq.value(0.0)]), policy=_policy(step),
    )

    # certificate grid: base step with ramp windows capped at tau / divisor
    cap = p["tau"] / p["ramp_step_divisor"]
    capped = CallableSignal(
        fn=sq.value,
        breakpoints_fn=sq.breakpoints,
        windows_fn=lambda a, b: [(lo, hi, min(c, cap)) for lo, hi, c in sq.refine_windows(a, b)],
    )
    grid = build_grid(0.0, P, p["base_step"], capped)
    ys = sq.values(grid)
    yd = np.array([sq.derivative(float(t)) for t in grid])
    zs = np.array([float(ff.zbar.interp_state(float(t))[0]) for t in grid])
    us = ff.signal.values(grid)
    reftraj = Trajectory(ts=grid, states=np.column_stack([ys, zs]), us=us,
                         state_names=("y", "z"))
    report = hh_certificate(params, reftraj, theta=p["theta"],
                            theta_prime=p["theta_prime"], M_y=p["M_y"], ydot=yd)

    sync_pol = _policy(step)
    runs = [
        integrate(model, ff.signal, 0.0, p["sync_periods"] * P,
                  np.array(ic, dtype=float), sync_pol)
        for ic in p["sync_ics"]
    ]
    diff = np.abs(runs[0].states[:, 0] - runs[1].states[:, 0])
    per_period = []
    for k in range(1, p["sync_periods"] + 1):
        msk = (runs[0].ts >= (k - 1) * P) & (runs[0].ts <= k * P)
        per_period.append(float(diff[msk].max()))

    sweep = []
    if p["run_delta_sweep"]:
        try:
            cyc = find_limit_cycle(model, None, np.array([1.0, 0.0]),
                                   section=(0, 0.0, 1), max_time=60.0,
                                   agreement=1e-4)
            loop = integrate(model, None, cyc.t_anchor, cyc.t_anchor + cyc.period,
                             cyc.anchor)
            ydf = np.array([model.rhs(t, s, 0.0)[0]
                            for t, s in zip(loop.ts, loop.states)])
            free = {
                "period": cyc.period,
                "y_range": [float(loop.states[:, 0].min()), float(loop.states[:, 0].max())],
            }
            for delta in p["delta_sweep"]:
                scaled = orbit_scale(loop, delta)
                try:
                    rep = hh_certificate(params, scaled, theta=p["theta"],
                                         theta_prime=p["theta_prime"], M_y=p["M_y"],
                                         ydot=(1.0 + delta) * ydf)
                    sweep.append({"delta": delta, "verdict": rep.verdict,
                                  "tau_unstable": rep.tau_unstable, "T_hat": rep.T_hat})
                except RangeViolation as exc:
                    sweep.append({"delta": delta, "verdict": None,
                                  "range_violation": str(exc)})
        except (PeriodUnstable, NoCrossings) as exc:
            free = {"error": type(exc).__name__, "detail": str(exc)}
    else:
        free = None
    return {
        "params": params,
        "reference": sq,
        "period": P,
        "feedforward": ff,
        "reference_traj": reftraj,
        "certificate": report,
        "sync_runs": runs,
        "sync_diff_per_period": per_period,
        "free_orbit": free,
        "delta_sweep": sweep,
    }


def chua_pipeline(p: dict) -> dict:
    """Describing-function design, constant-gain threshold sweep, reference
    monodromy, and the exact-solution check from the phasor initial state."""
    M, omega = p["M"], p["omega"]
    cf = chua_closed_form(M, omega)
    quad_df = describing_function(chua_nonlinearity, M, omega, kinks=CHUA_KINKS)
    rec = lure_input_reconstruct(CHUA_NUM, CHUA_DEN, cf, M, omega, chua_nonlinearity)

    sweep = []
    for rho in p["rho_grid"]:
        df = DescribingFunctionResult(p=rho, q=0.0, M=M, omega=omega,
                                      method="constant-gain")
        verdict = lure_stability(CHUA_NUM, CHUA_DEN, df)
        sweep.append({"rho": rho, "stable": verdict.stable, "margin": verdict.margin})

    # monodromy of the linearization x' = A(y) x along the designed output
    # y = M sin(omega t), fed in as the input; the slope of the nonlinearity
    # jumps where |y| = 1, and each of those instants gets a refine window
    T = 2.0 * math.pi / omega
    bc = np.outer(CHUA_B, CHUA_C)

    def A(t: float, x: np.ndarray, y: float) -> np.ndarray:
        return CHUA_A - chua_nonlinearity_slope(y) * bc

    linearized = PlainModel("chua-linearized", 3, lambda t, x, y: A(t, x, y) @ x, A)
    kinks = []
    if M > 1.0:
        a = math.asin(1.0 / M)
        kinks = [(b + 2.0 * math.pi * k) / omega
                 for k in range(-1, 3) for b in (a, math.pi - a, -a, math.pi + a)]
    kink_step = p["monodromy_kink_step"]
    output = CallableSignal(
        fn=lambda t: M * math.sin(omega * t),
        windows_fn=lambda t0, t1: [(c - 2e-3, c + 2e-3, kink_step) for c in kinks],
    )
    _, phi = flow(linearized, output, 0.0, T, np.zeros(3),
                  FixedStep(p["monodromy_base_step"]))
    orbit = MonodromyResult.from_phi(0.0, T, phi)

    # phasor initial state making M sin(omega t) an exact solution
    s = 1j * omega
    W = rec.D * np.exp(1j * rec.theta) - cf.p * M
    X1 = CHUA_DEN[0] * W / np.polyval(CHUA_DEN, s)
    phasors = [X1, X1 * s, X1 * s * s]
    x0 = np.array([x.imag for x in phasors])  # value at t = 0 in sin convention
    model = chua_system()
    h = T / p["steps_per_period"]
    n_per = p["periods"]
    tr = integrate(model, rec, 0.0, n_per * T, x0, FixedStep(h))
    y = tr.states @ np.asarray(CHUA_C)
    y_ref = M * np.sin(omega * tr.ts)
    track = np.abs(y - y_ref)
    per_period = []
    for k in range(1, n_per + 1):
        msk = (tr.ts >= (k - 1) * T) & (tr.ts <= k * T)
        per_period.append(float(track[msk].max()))

    tr2 = integrate(model, rec, 0.0, n_per * T,
                    x0 + np.array([p["perturbation"], 0.0, 0.0]), FixedStep(h))
    d = np.abs(tr2.states @ np.asarray(CHUA_C) - y_ref)
    peaks = []
    for k in range(1, n_per + 1):
        msk = (tr2.ts >= (k - 1) * T) & (tr2.ts <= k * T)
        peaks.append(float(d[msk].max()))
    growth = [peaks[i + 1] / peaks[i] for i in range(len(peaks) - 1)]

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
    return {
        "closed_form": cf,
        "quadrature_df": quad_df,
        "reconstruction": rec,
        "threshold_sweep": sweep,
        "orbit_monodromy_eigenvalues": orbit.eigenvalues,
        "orbit_spectral_radius": orbit.spectral_radius,
        "x0": x0,
        "traj": tr,
        "y_ref": y_ref,
        "tracking_per_period": per_period,
        "perturbed_growth_per_period": growth,
        "from_rest": from_rest,
    }


def lorenz_pipeline(p: dict, seed: int = 0, step: float | None = None) -> dict:
    """Region-implies-contraction sampling plus the no-stable-period probe of
    the chaotic instance."""
    sigma, beta = p["sigma"], p["beta"]
    region_model = lorenz(sigma, p["sampling_rho"], beta)
    rng = np.random.default_rng(seed)
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
        S = region_model.jac(0.0, x, 0.0)
        lam_max = float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))
        if lam_max >= 0.0:
            violations.append({"state": x.tolist(), "lam_max": lam_max})

    chaotic = lorenz(sigma, p["rho"], beta)
    traj = integrate(chaotic, Zero(), 0.0, p["horizon"],
                     np.array(p["x0"], dtype=float), _policy(step))
    flags = np.array([lorenz_region_check(s, sigma, beta) for s in traj.states])
    try:
        find_limit_cycle(chaotic, None, np.array(p["x0"], dtype=float),
                         section=(0, 0.0, 1), max_time=60.0)
        cycle_outcome = {"error": None}
    except (PeriodUnstable, NoCrossings) as exc:
        cycle_outcome = {"error": type(exc).__name__, "detail": str(exc)}
    return {
        "samples_total": p["samples"],
        "samples_in_region": in_region,
        "region_violations": violations,
        "traj": traj,
        "in_region_flags": flags,
        "cycle_outcome": cycle_outcome,
    }


def observer_pipeline(p: dict, step: float | None = None) -> dict:
    """Entrained reference, extended monodromy check, embedding run, and the
    nominal parameter-convergence run."""
    plant = neuron_family()
    spec = build_observer(plant)
    theta_star = np.array(p["theta_star"], dtype=float)
    u = SquarePulseTrain(magnitude=p["magnitude"], duration=p["duration"],
                         period=p["period"])
    P = p["period"]
    pol = _policy(step)

    model = plant.model(theta_star)
    k = p["settle_periods"]
    settle = integrate(model, u, 0.0, (k + 2.0) * P, np.array([-0.7, 0.0]), pol)
    ref = refine_periodic_orbit(model, u, settle.interp_state(k * P), k * P, P, pol)
    closure = float(np.max(np.abs(ref.states[-1] - ref.states[0])))
    check = observer_contraction_check(spec, theta_star, ref, u, pol,
                                       eps_coupling=p["eps_coupling"])

    tol = p["tolerance_fraction"] * float(np.linalg.norm(theta_star))
    emb = run_observer(spec, theta_star, u, horizon=p["embedding_periods"] * P,
                       tolerance=tol, plant_ic=np.array([-0.7, 0.0]),
                       theta0=theta_star.copy(), policy=pol)
    st = emb.traces.states
    n = plant.n
    emb_dev = max(
        float(np.max(np.abs(st[:, n:2 * n] - st[:, :n]))),
        float(np.max(np.abs(st[:, 2 * n:] - theta_star))),
    )

    nominal = run_observer(spec, theta_star, u, horizon=p["horizon"], tolerance=tol,
                           plant_ic=np.array([-0.7, 0.0]),
                           theta0=np.array(p["theta0"], dtype=float), policy=pol)
    corners = []
    if p["run_corners"]:
        box = plant.theta_box
        for c in ((box[0][0], box[1][0]), (box[0][0], box[1][1]),
                  (box[0][1], box[1][0]), (box[0][1], box[1][1])):
            r = run_observer(spec, theta_star, u, horizon=p["horizon"],
                             tolerance=tol, plant_ic=np.array([-0.7, 0.0]),
                             theta0=np.array(c), policy=pol)
            corners.append({"theta0": list(c), "converged_at": r.converged_at,
                            "final_error": float(r.theta_error[-1])})
    return {
        "spec": spec,
        "theta_star": theta_star,
        "tolerance": tol,
        "reference": ref,
        "reference_closure_gap": closure,
        "check": check,
        "embedding_deviation": emb_dev,
        "embedding_run": emb,
        "nominal": nominal,
        "corners": corners,
    }


def probe_pipeline(p: dict, step: float | None = None) -> dict:
    """Fading-memory probe of a chosen internal/inverse system."""
    target = p["target"]
    if target == "leaky":
        model = leaky_integrator(p["tau"])
    elif target == "fhn":
        model = InverseSystem(fitzhugh_nagumo())
    else:
        model = InverseSystem(hh_conductance(ConductanceParams()))
    ic = np.zeros(model.n)
    res = contraction_probe(model, Constant(0.5), ic, ic + p["offset"],
                            p["t0"], p["t1"], _policy(step))
    return {"model": model.name, "probe": res}


# ---------------------------------------------------------------------------
# runners: pipeline -> artifacts
# ---------------------------------------------------------------------------


def _run_kapitza(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = kapitza_pipeline(cfg.params, cfg.step)
    design = r["design"]
    report = {
        "selected_amplitude": design.M,
        "averaged_gain": design.gain,
        "averaged_eigenvalues": r["averaged_eigenvalues"],
        "rejected_amplitudes": design.rejected,
        "band_entry_time": r["band_entry_time"],
        "deviation_at_deadline": r["deviation_at_deadline"],
        "measured_slow_decay": r["measured_slow_decay"],
        "steps": int(r["traj"].ts.size),
    }
    if outdir is not None:
        traj = r["traj"]
        ts, y, dy, slow, us = _strided(traj.ts, traj.states[:, 0], r["delta_y"],
                                       r["slow"], traj.us)
        write_csv(outdir / f"{cfg.out_prefix}_trace.csv",
                  ["t", "y", "delta_y", "y_slow", "u"], [ts, y, dy, slow, us])
    return report


def _run_fhn(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = fhn_pipeline(cfg.params, cfg.step)
    design = r["design"]
    report = {
        "period": r["period"],
        "anchor": r["anchor"],
        "impulse_time": design.t0,
        "impulse_magnitude": design.eps_n,
        "cross_exponent": design.cross_exponent,
        "feedforward_residual": r["feedforward"].residual_max,
        "inverse_rate": r["feedforward"].inverse_rate,
        "free_window_monodromy": r["design"].free_window_monodromy.to_json_dict(),
        "predicted_monodromy": design.predicted_monodromy.to_json_dict(),
        "realized_monodromy": r["realized_monodromy"].to_json_dict(),
        "realized_closure_gap": r["realized_closure_gap"],
        "monodromy_entrywise_mismatch": r["monodromy_mismatch"],
        "sync_diff_per_period": r["sync_diff_per_period"],
    }
    if outdir is not None:
        real = r["realized"]
        y_ref = np.array([float(v) for v in map(lambda t: r["cycle"].interp_state(
            r["cycle"].t0 + (t - r["cycle"].t0) % r["period"])[0], real.ts)])
        ts, ys, yr, us = _strided(real.ts, real.states[:, 0], y_ref, real.us)
        write_csv(outdir / f"{cfg.out_prefix}_realized.csv",
                  ["t", "y", "y_free_reference", "u"], [ts, ys, yr, us])
        a, b = r["sync_runs"]
        ts, ya, yb = _strided(a.ts, a.states[:, 0], b.states[:, 0])
        write_csv(outdir / f"{cfg.out_prefix}_sync.csv",
                  ["t", "y_phase_a", "y_phase_b", "abs_diff"],
                  [ts, ya, yb, np.abs(ya - yb)])
    return report


def _run_hh(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = hh_pipeline(cfg.params, cfg.step)
    report = {
        "period": r["period"],
        "certificate": r["certificate"].to_json_dict(),
        "design_margin": {
            "eps_T_hat": cfg.params["eps"] * cfg.params["T_hat"],
            "a_bar_tau": r["certificate"].a_bar * cfg.params["tau"],
        },
        "feedforward_residual": r["feedforward"].residual_max,
        "inverse_rate": r["feedforward"].inverse_rate,
        "zbar_range": [float(r["feedforward"].zbar.states.min()),
                       float(r["feedforward"].zbar.states.max())],
        "sync_diff_per_period": r["sync_diff_per_period"],
        "free_orbit": r["free_orbit"],
        "delta_sweep": r["delta_sweep"],
    }
    if outdir is not None:
        a, b = r["sync_runs"]
        y_ref = r["reference"].values(a.ts)
        ts, yr, ya, yb, us = _strided(a.ts, y_ref, a.states[:, 0], b.states[:, 0],
                                      a.us)
        write_csv(outdir / f"{cfg.out_prefix}_sync.csv",
                  ["t", "y_reference", "y_ic_a", "y_ic_b", "u"],
                  [ts, yr, ya, yb, us])
        ref = r["reference_traj"]
        ts, yr, zs, us = _strided(ref.ts, ref.states[:, 0], ref.states[:, 1], ref.us)
        write_csv(outdir / f"{cfg.out_prefix}_reference.csv",
                  ["t", "y_reference", "z_bar", "u"], [ts, yr, zs, us])
    return report


def _run_chua(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = chua_pipeline(cfg.params)
    cf, qd, rec = r["closed_form"], r["quadrature_df"], r["reconstruction"]
    report = {
        "closed_form_gain": cf.p,
        "quadrature_gain_p": qd.p,
        "quadrature_gain_q": qd.q,
        "gain_difference_p": qd.p - cf.p,
        "input_amplitude": rec.D,
        "input_phase": rec.theta,
        "threshold_sweep": r["threshold_sweep"],
        "orbit_monodromy_eigenvalues": r["orbit_monodromy_eigenvalues"],
        "orbit_spectral_radius": r["orbit_spectral_radius"],
        "tracking_per_period": r["tracking_per_period"],
        "perturbed_growth_per_period": r["perturbed_growth_per_period"],
        "from_rest": r["from_rest"],
    }
    if outdir is not None:
        tr = r["traj"]
        y = tr.states @ np.asarray(CHUA_C)
        ts, yr, ys, us = _strided(tr.ts, r["y_ref"], y, tr.us)
        write_csv(outdir / f"{cfg.out_prefix}_trace.csv",
                  ["t", "y_reference", "y", "u"], [ts, yr, ys, us])
    return report


def _run_lorenz(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = lorenz_pipeline(cfg.params, cfg.seed, cfg.step)
    report = {
        "samples_total": r["samples_total"],
        "samples_in_region": r["samples_in_region"],
        "region_contraction_violations": r["region_violations"],
        "cycle_outcome": r["cycle_outcome"],
    }
    if outdir is not None:
        tr = r["traj"]
        ts, x1, x2, z = _strided(tr.ts, tr.states[:, 0], tr.states[:, 1],
                                 tr.states[:, 2])
        flags = _strided(r["in_region_flags"].astype(float))[0]
        write_csv(outdir / f"{cfg.out_prefix}_trace.csv",
                  ["t", "x1", "x2", "z", "in_region"], [ts, x1, x2, z, flags])
    return report


def _run_observer(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = observer_pipeline(cfg.params, cfg.step)
    check = r["check"]
    nominal = r["nominal"]
    report = {
        "tolerance": r["tolerance"],
        "reference_closure_gap": r["reference_closure_gap"],
        "extended_monodromy": check.monodromy.to_json_dict(),
        "contraction_verdict": check.verdict.stable,
        "contraction_margin": check.verdict.margin,
        "lyapunov_shift": check.lyapunov_shift,
        "lyapunov_decreases": check.lyapunov_decreases,
        "q_min_eigenvalue": check.q_min_eigenvalue,
        "embedding_deviation": r["embedding_deviation"],
        "converged_at": nominal.converged_at,
        "final_theta_error": float(nominal.theta_error[-1]),
        "corners": r["corners"],
    }
    if outdir is not None:
        tr = nominal.traces
        m = len(cfg.params["theta_star"])
        names = (["t", "y", "y_hat", "z", "z_hat"]
                 + [f"theta_hat_{j + 1}" for j in range(m)] + ["theta_error"])
        cols = [tr.ts, tr.states[:, 0], tr.states[:, 2], tr.states[:, 1],
                tr.states[:, 3]]
        cols += [tr.states[:, 4 + j] for j in range(m)]
        cols += [nominal.theta_error]
        write_csv(outdir / f"{cfg.out_prefix}_nominal.csv", names, _strided(*cols))
    return report


def _run_probe(cfg: ExperimentConfig, outdir: Path | None) -> dict:
    r = probe_pipeline(cfg.params, cfg.step)
    probe = r["probe"]
    return {
        "model": r["model"],
        "rate": probe.rate,
        "stable": probe.stable,
        "final_separation": probe.final_separation,
    }


_RUNNERS = {
    "kapitza": _run_kapitza,
    "fhn": _run_fhn,
    "hh": _run_hh,
    "chua": _run_chua,
    "lorenz": _run_lorenz,
    "observer": _run_observer,
    "probe": _run_probe,
}


def run_experiment(cfg: ExperimentConfig, outdir: str | Path | None = None) -> dict:
    """Execute one experiment; write report/config/trace artifacts if outdir
    is given. Returns the JSON-ready report dict."""
    out = Path(outdir) if outdir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    report = _json_ready(_RUNNERS[cfg.experiment](cfg, out))
    if out is not None:
        import json

        with open(out / f"{cfg.out_prefix}_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / f"{cfg.out_prefix}_config.json", "w", encoding="utf-8") as fh:
            json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
