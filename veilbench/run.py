#!/usr/bin/env python3
"""Benchmark for the veil toolchain: compile, CLI cold start and private
transactions, end to end and per layer.

    python3 veilbench/run.py --workload token-dharx --seed 1 --seconds 10 --trace 0
    python3 veilbench/run.py --workload corpus-dummy --smoke

Run it from the root of a checkout.  The workload runs in a fresh child
interpreter with PYTHONHASHSEED pinned; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
variant, reports the per-layer metrics and writes every span to
veilbench/.work/trace-<workload>-seed<seed>.json.  `--smoke` uses small
sizes and runs every check.  Scratch files live under veilbench/.work/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"

WORKLOAD_NAMES = ("token-dharx", "token-holders", "corpus-dummy")
END_TO_END_UNITS = {
    "setup_s": "s", "compile_s": "s", "tx_p50_ms": "ms", "tx_per_s": "1/s",
    "gas_per_tx": "gas", "constraints": "count", "build_mb": "MB",
    "peak_rss_mb": "MB",
}
REQUIRED = ("src/veil/__init__.py", "tests/reference.py",
            "tests/contracts/token.zkay")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes; every check still runs")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def check_checkout():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"veilbench: not a veil checkout ({', '.join(missing)} "
                 f"missing under {ROOT})")


def spawn(argv) -> int:
    """Run the workload in a fresh interpreter and relay its output."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               *argv, "--child"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"veilbench: workload did not finish in {CHILD_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def child(args) -> int:
    sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import veil
    if not os.path.realpath(veil.__file__).startswith(
            os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        sys.exit(f"veilbench: imported veil from {veil.__file__}, "
                 "not from this checkout")
    from checks import CheckFailed
    from workloads import WORKLOADS
    from tracing import per_layer_units

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.seconds,
                                        args.smoke)
    correct, failed, metrics = True, 0, {}
    try:
        metrics = workload.run(bool(args.trace))
    except CheckFailed as e:
        print(f"veilbench: check failed: {e}", file=sys.stderr)
        correct, failed, metrics = False, 1, {}
    finally:
        if workload.tracer is not None:
            workload.tracer.dump(
                os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "speed_factor": workload.speed.run_factor(),
                 "metrics": metrics})
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if correct and not args.trace:
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"correct": correct, "attempted": workload.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    if correct and set(result["metrics"]) != set(units):
        print(f"veilbench: metrics missing: {sorted(set(units) - set(metrics))}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv) -> int:
    args = parse_args(argv)
    check_checkout()
    return child(args) if args.child else spawn(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
