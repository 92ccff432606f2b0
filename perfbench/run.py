"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/repro``).  Human-readable
report lines come first, each metric under its workload-specific name
with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of :data:`END_TO_END`, measured
with nothing wrapped; with ``--trace 1`` they are the per-layer metrics
of :data:`layers.PER_LAYER`, from a separate traced pass.  The exit code
is 1 when an output check failed and 2 on a usage error.

Workloads (see README.md for why each exists): ``reproduce``,
``serve_open_loop``, ``procure``, ``lint_project``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import Context

WORKLOADS = ("reproduce", "serve_open_loop", "procure", "lint_project")

#: Every workload reports each of these (README.md gives the meaning
#: per workload): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heavy_ms": "ms",
    "light_ms": "ms",
    "rate_per_s": "1/s",
    "good_share": "share",
}

#: Scratch space inside the checkout; removed after every run.
WORK_DIR = ".perfbench_work"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    from layers import PER_LAYER

    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    workload = importlib.import_module("wl_" + args.workload)
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it.

    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if ctx.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics)) if not ctx.trace else []
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    for line in outcome.report:
        print(line)
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
