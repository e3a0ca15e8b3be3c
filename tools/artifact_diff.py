"""Byte-for-byte comparison of the condux run artifacts of two checkouts.

    python3 tools/artifact_diff.py PARENT_DIR CHANGE_DIR

Seventeen configs run in each checkout: the six study defaults (chua from
rest, as its acceptance criterion runs it), the probe on the leaky, fhn and
hh targets, and the four benchmark workloads at seeds 1 and 7, written by
PARENT_DIR's perfbench/workloads.make_config. Each config runs as
`python -m condux run CONFIG --out DIR` in a directory of its own, with the
checkout's src first on PYTHONPATH, and both checkouts get the same config
file. The script prints every file that differs or exists on one side only,
the top-level keys that differ in each differing *_report.json, and every run
that failed; it exits 1 if there is any of these and 0 if every artifact is
byte-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STUDIES = {
    "kapitza": {"experiment": "kapitza"},
    "fhn": {"experiment": "fhn"},
    "hh": {"experiment": "hh"},
    "chua": {"experiment": "chua", "params": {"from_rest": True}},
    "lorenz": {"experiment": "lorenz"},
    "observer": {"experiment": "observer"},
    **{f"probe-{target}": {"experiment": "probe", "params": {"target": target}}
       for target in ("leaky", "fhn", "hh")},
}
WORKLOADS = ("kapitza-vibration", "fhn-impulse", "hh-square-wave", "observer-estimation")
SEEDS = (1, 7)


def _configs(parent: Path) -> dict[str, dict]:
    """The seventeen configs by name, the workloads from parent's perfbench."""
    sys.path.insert(0, str(parent / "perfbench"))
    from workloads import make_config

    return {**STUDIES, **{f"{w}-seed{seed}": make_config(w, seed)
                          for w in WORKLOADS for seed in SEEDS}}


def _run(checkout: Path, config: Path, out: Path) -> str | None:
    """Run one config in a checkout; the error text if the run failed."""
    src = str(checkout / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "condux", "run", str(config), "--out", str(out)],
                          cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def _report_keys(a: Path, b: Path) -> list[str]:
    """Top-level keys whose values differ between two report files."""
    ra, rb = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    missing = object()
    return sorted(k for k in ra.keys() | rb.keys() if ra.get(k, missing) != rb.get(k, missing))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/artifact_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    sides = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    configs = _configs(sides["parent"])
    faults = 0
    with tempfile.TemporaryDirectory(prefix="artifact_diff-") as tmp:
        for name, raw in configs.items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(raw), encoding="utf-8")
            outs = {side: Path(tmp) / side / name for side in sides}
            errors = {side: _run(path, config, outs[side]) for side, path in sides.items()}
            for side, err in errors.items():
                if err is not None:
                    faults += 1
                    print(f"{name}: {side} run failed, {err}")
            if any(errors.values()):
                continue
            files = sorted({p.name for out in outs.values() for p in out.iterdir()})
            same = 0
            for f in files:
                a, b = (outs[side] / f for side in sides)
                if not (a.exists() and b.exists()):
                    faults += 1
                    print(f"{name}: {f} only in {'parent' if a.exists() else 'change'}")
                elif a.read_bytes() != b.read_bytes():
                    faults += 1
                    keys = (f", keys {', '.join(_report_keys(a, b))}"
                            if f.endswith("_report.json") else "")
                    print(f"{name}: {f} differs{keys}")
                else:
                    same += 1
            print(f"{name}: {same}/{len(files)} files identical", file=sys.stderr, flush=True)
    print(f"{len(configs)} configs, {faults} differing files or failed runs")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
