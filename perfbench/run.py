"""condux benchmark: time to a certified result, accuracy against an
independent reference, and a per-module trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout of condux; the package is taken
from ``src/``. The load is a closed loop with one client: one child process
runs one ``run_experiment`` call at a time, single-threaded. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 3
# The worker must end by then, so that the reference checks still fit in the
# 180 s a run may take.
WORKER_DEADLINE_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], timeout: float) -> None:
    """Run perfbench/worker.py to completion; raise if it fails."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=_child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")


def _setup_seconds(config: Path) -> float:
    """Median wall time of a fresh interpreter importing condux and
    validating the config."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _worker(["setup", str(config)], timeout=30.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, make_config

    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "condux" / "__init__.py").is_file():
        print(f"error: no condux source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    raw = make_config(args.workload, args.seed)
    config = run_dir / "config.json"
    config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {json.dumps(raw)}")

    setup_s = None if args.trace else _setup_seconds(config)
    _worker(["run", str(config), str(run_dir / "run"), repr(args.seconds), str(args.trace)],
            timeout=max(1.0, WORKER_DEADLINE_S - (time.perf_counter() - started)))
    res = json.loads((run_dir / "run" / "worker.json").read_text(encoding="utf-8"))
    for err in res["errors"]:
        print(f"failed operation:\n{err}", file=sys.stderr)

    from reference import EVALUATORS, REF_ERR_CEILING, Checks

    checks = Checks()
    checks.add("artifacts.byte_identical", not res["mismatches"],
               "; ".join(res["mismatches"]) or "every round and traced run identical")
    ref_err = None
    if res["first_round"] is None:
        checks.add("reference", False, "no operation succeeded")
    else:
        first = Path(res["first_round"])
        prefix = raw["experiment"]
        cfg = json.loads((first / f"{prefix}_config.json").read_text(encoding="utf-8"))
        report = json.loads((first / f"{prefix}_report.json").read_text(encoding="utf-8"))
        ref_err = EVALUATORS[args.workload](cfg, report, first, res["extras"], checks)
        ceiling = REF_ERR_CEILING[args.workload]
        checks.add("ref_err_below_ceiling", ref_err < ceiling,
                   f"ref_err {ref_err:.3e} < {ceiling:.0e}")
    for name, ok, detail in checks.rows:
        print(f"  {'pass' if ok else 'FAIL'}  {name}: {detail}")

    if args.trace:
        layers = res["layers"]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(res["traced_walls"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(res["walls"])
        units = {name: ("s" if name.endswith("_s") else
                        "bytes" if name.endswith("_bytes") else
                        "1" if name.endswith("_ratio") else "count") for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": setup_s,
            "peak_rss_mib": res["peak_rss_mib"],
            "ref_err": ref_err,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "ref_err": "1"}
    print(f"  {len(res['walls'])} untraced, {len(res['traced_walls'])} traced operations")
    print(json.dumps({
        "correct": checks.passed,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
