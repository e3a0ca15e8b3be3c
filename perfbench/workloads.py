"""Workload configs for the benchmark, generated from a seed.

Each workload is a shortened config of one built-in condux study. The seed
picks only initial data (an offset, a pair of phase offsets, an initial
condition, an initial estimate), inside ranges where every run succeeds.
Studies, horizons and step sizes are fixed, so every seed integrates the same
grids and does the same amount of work.
"""

from __future__ import annotations

import random

from reference import hh_knots, periodic_lag_state

# hh-square-wave: a shorter square wave than the study default (T_hat 5,
# tau 1e-3) with the same ramp-to-plateau ratio, and a certificate grid whose
# step cap equals the base step (divisor 1) instead of tau / 80, which caps the
# plateaus too and would put 400,000 nodes on the period.
HH_T_HAT = 2.5
HH_TAU = 5e-4
HH_LEVELS = (1.35, 0.3, -1.45, -0.5)


def kapitza(rng: random.Random) -> dict:
    return {
        "experiment": "kapitza",
        "params": {
            "omega": 300.0,
            "horizon": 10.0,
            "y0_offset": rng.uniform(0.2, 0.4),
        },
    }


def fhn(rng: random.Random) -> dict:
    d = rng.uniform(0.03, 0.08)
    return {
        "experiment": "fhn",
        "params": {
            "fine_step": 4e-3,
            "sync_step": 4e-3,
            "sync_periods": 1,
            "phase_offsets": [-d, d],
        },
    }


def hh(rng: random.Random) -> dict:
    # The first sync run starts on the reference itself: y at the first knot
    # and z on the periodic response of zd = y* - z, so its output should
    # reproduce the piecewise-linear reference. The second starts off it.
    knots = hh_knots(HH_T_HAT, HH_TAU, HH_LEVELS)
    on_ref = [HH_LEVELS[0], periodic_lag_state(knots)]
    off_ref = [rng.uniform(0.3, 0.7), rng.uniform(-0.7, -0.3)]
    return {
        "experiment": "hh",
        "params": {
            "T_hat": HH_T_HAT,
            "tau": HH_TAU,
            "levels": list(HH_LEVELS),
            "ramp_step_divisor": 1.0,
            "sync_periods": 2,
            "sync_ics": [on_ref, off_ref],
            "run_delta_sweep": False,
        },
    }


def observer(rng: random.Random) -> dict:
    # 20 settle periods keep the Newton orbit refinement on its converging
    # side; the nominal estimation run covers one input period.
    return {
        "experiment": "observer",
        "params": {
            "settle_periods": 20,
            "embedding_periods": 1,
            "horizon": 2.8,
            "theta0": [rng.uniform(0.3, 0.7), rng.uniform(1.1, 1.9)],
        },
    }


WORKLOADS = {
    "kapitza-vibration": kapitza,
    "fhn-impulse": fhn,
    "hh-square-wave": hh,
    "observer-estimation": observer,
}


def make_config(workload: str, seed: int) -> dict:
    """The raw JSON config condux receives for this workload and seed."""
    return WORKLOADS[workload](random.Random(seed))
