"""Child process of the benchmark: one workload config through condux.

    python3 perfbench/worker.py setup CONFIG
        import condux and validate the config, then exit (timed by the parent
        as the set-up cost).
    python3 perfbench/worker.py run CONFIG OUTDIR SECONDS TRACE
        call condux.experiments.run_experiment in whole rounds until SECONDS
        have passed and write OUTDIR/worker.json. With TRACE 1 each round
        runs the config untraced and then traced, and the two runs must
        write byte-identical artifacts.

Every round must also reproduce the artifacts of the first round byte for
byte. The first round's artifacts stay in OUTDIR/round-0 for the parent's
reference checks.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _files(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


def _extras(experiment: str, result: dict) -> dict:
    """Numbers the independent reference needs that the report omits."""
    if experiment == "fhn":
        ff = result["feedforward"]
        sig, zbar = ff.signal, ff.zbar
        # The inversion audit's own sampling plus every realized grid node
        # inside the impulse support, where v* is largest.
        ts = list(zbar.ts[:: max(1, zbar.ts.size // 400)])
        train = result["design"].train
        lo, hi = train.t0 - 8.0 * train.width, train.t0 + 8.0 * train.width
        real = result["realized"].ts
        ts += list(real[(real >= lo) & (real <= hi)])
        ts = [float(t) for t in ts]
        return {
            "cycle_t0": result["cycle"].t0,
            "ff_samples": {
                "t": ts,
                "y": [float(sig.ref.x_fn(t)[0]) for t in ts],
                "z": [float(zbar.interp_state(t)[0]) for t in ts],
                "v": [float(sig.ref.v_fn(t)) for t in ts],
                "u": [float(sig.value(t)) for t in ts],
            },
        }
    if experiment == "observer":
        ref = result["reference"]
        return {"orbit_t0": ref.t0, "orbit_x0": ref.states[0].tolist()}
    return {}


class Capture:
    """Keeps the result dict of one pipeline call for the reference."""

    def __init__(self, module, name: str) -> None:
        self.module, self.name, self.result = module, name, None

    def __enter__(self):
        self.original = getattr(self.module, self.name)

        def keep(*args, **kwargs):
            self.result = self.original(*args, **kwargs)
            return self.result

        setattr(self.module, self.name, keep)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.original)


def run(cfg, outdir: Path, seconds: float, traced: bool) -> dict:
    from spans import Tracer, layer_metrics

    exp = importlib.import_module("condux.experiments")
    walls, traced_walls, layers, errors, mismatches = [], [], [], [], []
    extras, first, first_tree = None, None, None
    attempted = failed = 0

    def op(dest: Path, capture: Capture | None = None) -> float | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            t0 = time.perf_counter()
            if capture is None:
                exp.run_experiment(cfg, dest)
            else:
                with capture:
                    exp.run_experiment(cfg, dest)
            return time.perf_counter() - t0
        except Exception:  # one failed operation; the run goes on
            failed += 1
            errors.append(traceback.format_exc())
            shutil.rmtree(dest, ignore_errors=True)
            return None

    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        dest = outdir / f"round-{i}"
        capture = Capture(exp, f"{cfg.experiment}_pipeline") if first is None else None
        wall = op(dest, capture)
        if wall is not None:
            walls.append(wall)
            if first is None:
                first = dest
                extras = _extras(cfg.experiment, capture.result)
            elif _files(dest) != _files(first):
                mismatches.append(f"round {i} artifacts differ from the first round")
        if traced:
            tdest = outdir / f"traced-{i}"
            tracer = Tracer()
            tracer.install()
            try:
                twall = op(tdest)
            finally:
                tracer.uninstall()
            if twall is not None:
                traced_walls.append(twall)
                m = layer_metrics(tracer)
                m["experiments.artifact_bytes"] = sum(f.stat().st_size for f in tdest.iterdir())
                layers.append(m)
                if first is not None and _files(tdest) != _files(first):
                    mismatches.append(f"round {i}: traced artifacts differ from untraced")
                if first_tree is None:
                    first_tree = tracer.root
                shutil.rmtree(tdest)
        if dest != first:
            shutil.rmtree(dest, ignore_errors=True)
        i += 1
        if time.perf_counter() >= deadline:
            break
    if first_tree is not None:
        with open(outdir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(first_tree.to_json(), fh)
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_round": str(first) if first is not None else None,
        "extras": extras,
        "mismatches": mismatches,
        "errors": errors,
    }


def main(argv: list[str]) -> int:
    mode, config_path = argv[1], argv[2]
    from condux.config import config_from_dict

    with open(config_path, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh))
    if mode == "setup":
        return 0
    outdir, seconds, traced = Path(argv[3]), float(argv[4]), argv[5] == "1"
    outdir.mkdir(parents=True, exist_ok=True)
    result = run(cfg, outdir, seconds, traced)
    with open(outdir / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
