"""CPU time per pipeline stage of two condux checkouts, side by side.

    python3 tools/stage_split.py PARENT_DIR CHANGE_DIR [CONFIG...]

Without CONFIG paths, each of the four benchmark workloads runs at seed 1,
with the config that PARENT_DIR's perfbench/workloads.make_config writes, so
both checkouts run the same config. Each CONFIG is instead a study config
file, as `condux run` reads it (a study at its defaults is
{"experiment": "kapitza"}), run by both checkouts in place of the
workloads. A stage is a function that condux.experiments imports from
another condux module (integrate, refine_periodic_orbit,
observer_contraction_check, ...), or its own CSV writer write_csv. Its
binding in condux.experiments is wrapped, so only the calls a pipeline
makes are timed, and only the outermost of them; a stage called more than
once in one run_experiment call counts the sum of those calls. The total
stage is the whole run_experiment call, artifacts included. The steps
columns count the RK4 steps of each stage, grid.size - 1 summed over every
run of condux.integrate._rk4_run (which every integrate and flow call steps
through) made inside the stage, the total row's those of the whole call,
and the per-step columns give each checkout's median CPU time of the stage
divided by its median steps, in microseconds per RK4 step.

Each checkout runs in fresh processes, with its src first on PYTHONPATH and
OPENBLAS_NUM_THREADS=1: 5 rounds of one process making 3 calls, the rounds
alternating which checkout goes first. The script prints, per workload or
config and stage, the min and median of time.process_time over the 15 calls
of each checkout, then the median of the stage's RK4 steps per call in each
checkout, then the microseconds per step of each checkout. The import row is
the process's CPU time from its start until it has imported
condux.experiments, one value per process, so its min and median are over
the 5 processes of each checkout.
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
# run_experiment calls. It prints one JSON object: the CPU seconds it took to
# import condux.experiments, and a list with, per call, the CPU seconds by
# stage name and the RK4 steps by stage name (total: the whole call).
_CHILD = r"""
import inspect, json, sys, tempfile, time
import condux.experiments as exp
imported_s = time.process_time()
from condux.config import config_from_dict

cfg = config_from_dict(json.loads(sys.argv[1]))
acc, steps, active = {}, {}, []

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

integ = sys.modules["condux.integrate"]
rk4_run = integ._rk4_run

def counted(model, signal, grid, x0):
    for name in {"total", *active[:1]}:
        steps[name] = steps.get(name, 0) + grid.size - 1
    return rk4_run(model, signal, grid, x0)

integ._rk4_run = counted
calls = []
with tempfile.TemporaryDirectory(prefix="stage_split-") as tmp:
    for i in range(int(sys.argv[2])):
        acc.clear()
        steps.clear()
        t0 = time.process_time()
        exp.run_experiment(cfg, f"{tmp}/{i}")
        acc["total"] = time.process_time() - t0
        calls.append({"cpu": dict(acc), "steps": dict(steps)})
print(json.dumps({"import": imported_s, "calls": calls}))
"""


def _process(checkout: Path, config: str) -> dict:
    """One fresh process of CALLS run_experiment calls in a checkout: its
    import CPU seconds and its calls' stage CPU seconds."""
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


def _steps(xs: list[int]) -> str:
    return f"{statistics.median(xs):.0f}" if any(xs) else "-"


def _per_step(cpu: list[float], steps: list[int]) -> str:
    """Median CPU seconds over median steps, in microseconds per step."""
    if not (cpu and any(steps)):
        return "-"
    return f"{1e6 * statistics.median(cpu) / statistics.median(steps):.3f}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print("usage: python3 tools/stage_split.py PARENT_DIR CHANGE_DIR [CONFIG...]",
              file=sys.stderr)
        return 2
    sides = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    if args[2:]:
        runs = {path: json.dumps(json.loads(Path(path).read_text(encoding="utf-8")))
                for path in args[2:]}
    else:
        sys.path.insert(0, str(sides["parent"] / "perfbench"))
        from workloads import make_config

        runs = {f"{w}, seed {SEED}": json.dumps(make_config(w, SEED)) for w in WORKLOADS}
    for name, config in runs.items():
        calls: dict[str, list[dict[str, dict[str, float]]]] = {side: [] for side in sides}
        imports: dict[str, list[float]] = {side: [] for side in sides}
        for r in range(ROUNDS):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                seen = _process(sides[side], config)
                imports[side].append(seen["import"])
                calls[side] += seen["calls"]
        stages = list(dict.fromkeys(k for cs in calls.values() for c in cs for k in c["cpu"]
                                    if k != "total"))
        print(f"{name} (CPU s, min / median of {ROUNDS * CALLS} calls; "
              f"import: of {ROUNDS} processes; then RK4 steps per call and us per step)")
        print(f"  {'stage':<34} {'parent':>15} {'change':>15} {'parent':>9} {'change':>9}"
              f" {'parent':>8} {'change':>8}")
        cells = [_cell(imports[side]) for side in sides]
        print(f"  {'import':<34} {cells[0]:>15} {cells[1]:>15}")
        for stage in (*stages, "total"):
            cpu = {side: [c["cpu"][stage] for c in calls[side] if stage in c["cpu"]]
                   for side in sides}
            steps = {side: [c["steps"].get(stage, 0) for c in calls[side]] for side in sides}
            cells = [_cell(cpu[side]) for side in sides]
            cells += [_steps(steps[side]) for side in sides]
            cells += [_per_step(cpu[side], steps[side]) for side in sides]
            print(f"  {stage:<34} {cells[0]:>15} {cells[1]:>15} {cells[2]:>9} {cells[3]:>9}"
                  f" {cells[4]:>8} {cells[5]:>8}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
