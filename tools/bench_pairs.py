"""Paired benchmark runs of two condux checkouts, written as one JSON record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<N>.json \
        [--title TEXT] [--claim TEXT]

For every workload and every seed 1..10, perfbench/run.py runs once in
each checkout with --seconds 10 --trace 0, in alternating order: the parent
first for odd seeds, the change first for even seeds. The record keeps every
run's end-to-end metrics, each side's median and quartiles (inclusive
method), the relative change of the medians, the parent's wall_s spread
(upper minus lower quartile) and the pairs in which the change's wall_s is
lower (ties count for neither side), and per side the runs that were not
correct and the runs with a failed operation. Each checkout then runs every
workload once with --trace 1 at seed 1, and the per-layer metrics are
recorded side by side. src_lines counts the lines of src/condux/*.py in
each checkout. The record's "pr" field is the N of the --out name
BENCH_<N>.json. The script exits 1, after writing the record, if any paired
run was not correct or had a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("kapitza-vibration", "fhn-impulse", "hh-square-wave", "observer-estimation")
METRICS = ("wall_s", "setup_s", "peak_rss_mib", "ref_err")
SECONDS = 10
PAIRS = 10
LAYER_SEED = 1


def _bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The summary line of one perfbench run in a checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(checkout: Path, workload: str, seed: int) -> dict:
    out = _bench(checkout, workload, seed, 0)
    return {"seed": seed, **{k: out["metrics"][k]["value"] for k in METRICS},
            "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"]}


def _quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def _summary(runs: dict[str, list[dict]]) -> dict:
    med = {side: {k: statistics.median(r[k] for r in rs) for k in METRICS}
           for side, rs in runs.items()}
    quart = {side: {k: _quartiles([r[k] for r in rs]) for k in METRICS}
             for side, rs in runs.items()}
    wins = sum(c["wall_s"] < p["wall_s"] for p, c in zip(runs["parent"], runs["change"]))
    lo, hi = quart["parent"]["wall_s"]
    return {
        "parent_median": med["parent"],
        "change_median": med["change"],
        "parent_quartiles": quart["parent"],
        "change_quartiles": quart["change"],
        "median_change": {k: round(med["change"][k] / med["parent"][k] - 1.0, 4)
                          if med["parent"][k] else 0.0 for k in METRICS},
        "parent_wall_s_iqr": round(hi - lo, 4),
        "wall_s_change_wins": f"{wins}/{len(runs['parent'])}",
        "incorrect_runs": {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()},
        "failed_runs": {side: sum(r["failed"] > 0 for r in rs) for side, rs in runs.items()},
    }


def _src_lines(checkout: Path) -> dict:
    files = sorted((checkout / "src" / "condux").glob("*.py"))
    per = {f.name: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    return {"total": sum(per.values()), "files": per}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<N>.json")
    ap.add_argument("--title", default="")
    ap.add_argument("--claim", default="")
    args = ap.parse_args(argv)
    name = re.fullmatch(r"BENCH_(\d+)\.json", args.out.name)
    if name is None:
        ap.error(f"--out must be named BENCH_<N>.json, not {args.out.name}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {
        "pr": int(name.group(1)),
        "title": args.title,
        "box": f"{os.cpu_count()}-core {platform.machine()}, Python "
               f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1 (set by perfbench)",
        "claim": args.claim,
        "end_to_end": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                       "--trace 0",
            "order": "alternating pairs: parent first for odd seeds, change first for even seeds",
            "workloads": {},
        },
    }
    for w in WORKLOADS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        seeds = list(range(1, PAIRS + 1))
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                runs[side].append(_run(sides[side], w, seed))
                print(f"{w} seed {seed} {side}: wall_s {runs[side][-1]['wall_s']:.3f} "
                      f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr, flush=True)
        record["end_to_end"]["workloads"][w] = {"seeds": seeds, "runs": runs, **_summary(runs)}
    record["per_layer"] = {
        "command": f"python3 perfbench/run.py --workload W --seed {LAYER_SEED} "
                   f"--seconds {SECONDS} --trace 1",
        "workloads": {w: {side: {k: v["value"] for k, v in
                                 _bench(path, w, LAYER_SEED, 1)["metrics"].items()}
                          for side, path in sides.items()} for w in WORKLOADS},
    }
    record["src_lines"] = {"command": "wc -l src/condux/*.py",
                           **{side: _src_lines(path) for side, path in sides.items()}}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    bad = [f"{w}: {k} {s[k]}" for w, s in record["end_to_end"]["workloads"].items()
           for k in ("incorrect_runs", "failed_runs") if any(s[k].values())]
    for line in bad:
        print(f"bad runs in {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
