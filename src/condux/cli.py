"""Command line front end: run experiments from JSON configs, verify the
acceptance suite."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from numpy.linalg import LinAlgError

from .acceptance import CRITERIA, run_criteria
from .config import load_config
from .errors import ConduxError, ConfigError
from .experiments import run_experiment

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Failures of the numerics rather than of the config: typed condux errors,
# floating-point faults, and LAPACK refusals (singular or non-finite matrices).
_NUMERICAL_ERRORS = (ConduxError, ArithmeticError, LinAlgError)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="condux")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run experiments from JSON config files")
    runp.add_argument("configs", nargs="+", metavar="config.json")
    runp.add_argument("--out", default="out", help="artifact directory")
    runp.add_argument("--jobs", type=int, default=1)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--filter", default=None,
                     help="only criteria whose name contains this substring")
    ver.add_argument("--out", default=None,
                     help="also write the verdict table as JSON here")
    ver.add_argument("--jobs", type=int, default=1)
    return ap


def _cmd_run(args) -> int:
    t0 = time.monotonic()
    try:
        cfgs = [load_config(p) for p in args.configs]
    except ConfigError as exc:
        for line in str(exc).split("; "):
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    prefixes = [c.out_prefix for c in cfgs]
    dup = next((p for i, p in enumerate(prefixes) if p in prefixes[:i]), None)
    if dup is not None:
        print(f"config error: out_prefix: '{dup}' is used by more than one config",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.jobs > 1 and len(cfgs) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                futures = [pool.submit(run_experiment, c, args.out) for c in cfgs]
                reports = [f.result() for f in futures]
        else:
            reports = [run_experiment(c, args.out) for c in cfgs]
    except ConfigError as exc:
        for line in str(exc).split("; "):
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for cfg, _rep in zip(cfgs, reports):
        print(f"{cfg.experiment}: report written to "
              f"{args.out}/{cfg.out_prefix}_report.json")
    print(f"total {time.monotonic() - t0:.1f} s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = None
    if args.filter:
        names = [n for n in CRITERIA if args.filter in n]
        if not names:
            print(f"config error: --filter={args.filter} matches no criterion "
                  f"(have: {', '.join(CRITERIA)})", file=sys.stderr)
            return EXIT_CONFIG
    if args.out and (Path(args.out).is_dir() or not Path(args.out).absolute().parent.is_dir()):
        print(f"config error: --out: {args.out} is not a file in an existing directory",
              file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.monotonic()
    try:
        rows = run_criteria(names, jobs=args.jobs)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    wide = [len("criterion"), len("check"), len("expected"), len("observed"),
            len("tolerance")]
    table = [(r.criterion, r.check, r.expected, r.observed, r.tolerance,
              "pass" if r.passed else "FAIL", r.note) for r in rows]
    for row in table:
        for i in range(5):
            wide[i] = max(wide[i], len(row[i]))
    header = ("criterion", "check", "expected", "observed", "tolerance", "verdict")
    fmt = (f"{{:<{wide[0]}}}  {{:<{wide[1]}}}  {{:<{wide[2]}}}  "
           f"{{:<{wide[3]}}}  {{:<{wide[4]}}}  {{}}")
    print(fmt.format(*header))
    print("-" * (sum(wide) + 10 + len("verdict")))
    for row in table:
        print(fmt.format(*row[:6]))
        if row[6]:
            print(f"{'':<{wide[0]}}  note: {row[6]}")
    n_fail = sum(1 for r in rows if not r.passed)
    print(f"\n{len(rows) - n_fail}/{len(rows)} checks passed "
          f"({time.monotonic() - t0:.1f} s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(r) for r in rows], fh, indent=2)
            fh.write("\n")
    return EXIT_OK if n_fail == 0 else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.jobs < 1:
        print(f"config error: --jobs: must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
