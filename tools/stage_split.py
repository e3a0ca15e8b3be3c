"""CPU time per pipeline stage of two condux checkouts, side by side.

    python3 tools/stage_split.py PARENT_DIR CHANGE_DIR

Each of the four benchmark workloads runs at seed 1, with the config that
PARENT_DIR's perfbench/workloads.make_config writes, so both checkouts run
the same config. A stage is a function that condux.experiments imports from
another condux module (integrate, refine_periodic_orbit,
observer_contraction_check, ...), or its own CSV writer write_csv. Its
binding in condux.experiments is wrapped, so only the calls a pipeline
makes are timed, and only the outermost of them; a stage called more than
once in one run_experiment call counts the sum of those calls. The total
stage is the whole run_experiment call, artifacts included.

Each checkout runs in fresh processes, with its src first on PYTHONPATH and
OPENBLAS_NUM_THREADS=1: 5 rounds of one process making 3 calls, the rounds
alternating which checkout goes first. The script prints, per workload and
stage, the min and median of time.process_time over the 15 calls of each
checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("kapitza-vibration", "fhn-impulse", "hh-square-wave", "observer-estimation")
SEED = 1
ROUNDS = 5
CALLS = 3

# The child process: argv[1] is the config as JSON, argv[2] the number of
# run_experiment calls. It prints one JSON list, per call the CPU seconds by
# stage name.
_CHILD = r"""
import inspect, json, sys, tempfile, time
import condux.experiments as exp
from condux.config import config_from_dict

cfg = config_from_dict(json.loads(sys.argv[1]))
acc, active = {}, []

def timed(name, fn):
    def call(*args, **kwargs):
        if active:
            return fn(*args, **kwargs)
        active.append(name)
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[name] = acc.get(name, 0.0) + time.process_time() - t0
            active.pop()
    return call

for name, val in list(vars(exp).items()):
    home = getattr(val, "__module__", None) or ""
    imported = home.startswith("condux.") and home != exp.__name__
    if inspect.isfunction(val) and (imported or val is exp.write_csv):
        setattr(exp, name, timed(name, val))

calls = []
with tempfile.TemporaryDirectory(prefix="stage_split-") as tmp:
    for i in range(int(sys.argv[2])):
        acc.clear()
        t0 = time.process_time()
        exp.run_experiment(cfg, f"{tmp}/{i}")
        acc["total"] = time.process_time() - t0
        calls.append(dict(acc))
print(json.dumps(calls))
"""


def _calls(checkout: Path, config: str) -> list[dict[str, float]]:
    """One fresh process of CALLS run_experiment calls in a checkout."""
    src = str(checkout / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, config, str(CALLS)], cwd=checkout,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"stage split in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cell(xs: list[float]) -> str:
    return f"{min(xs):.3f} / {statistics.median(xs):.3f}" if xs else "-"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/stage_split.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    sides = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    sys.path.insert(0, str(sides["parent"] / "perfbench"))
    from workloads import make_config

    for w in WORKLOADS:
        config = json.dumps(make_config(w, SEED))
        calls: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
        for r in range(ROUNDS):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                calls[side] += _calls(sides[side], config)
        stages = list(dict.fromkeys(k for cs in calls.values() for c in cs for k in c
                                    if k != "total"))
        print(f"{w} (seed {SEED}; CPU s, min / median of {ROUNDS * CALLS} calls)")
        print(f"  {'stage':<34} {'parent':>15} {'change':>15}")
        for stage in (*stages, "total"):
            cells = [_cell([c[stage] for c in calls[side] if stage in c]) for side in sides]
            print(f"  {stage:<34} {cells[0]:>15} {cells[1]:>15}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
