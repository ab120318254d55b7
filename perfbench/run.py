"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout of the repository:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Writes the seed's inputs under .perfbench/, measures set-up in fresh
processes, runs the workload in one fresh single-threaded worker process
(never more than one child at a time), checks every answer, and prints
the metrics by name; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run.
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

import calibrate
import gen

SETUP_PROBES = 9
# time for inputs, set-up probes, warm-up and oracles beyond --seconds
MARGIN_S = 60


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # set-up is timed with the bytecode cache warm, as after an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env, deadline):
    """Run one child to completion; its stdout's last line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for " + argv[1])
    proc = subprocess.run([sys.executable] + argv, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=timeout,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.seconds + MARGIN_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "closuretop", "cli.py")):
        print("error: run from the repository root; src/closuretop not found",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    env = child_env(root)
    base = os.path.join(root, ".perfbench")
    inputs = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_out = os.path.join(base, f"trace-{args.workload}.jsonl")
    try:
        gen.write_inputs(gen.make_pool(args.workload, args.seed), inputs)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child([os.path.join(here, "setup_probe.py"),
                                   inputs], env, deadline)
                setups.append((probe["import_s"] + probe["parse_s"],
                               calibrate.REF_S / probe["ref_s"]))
        res = run_child([os.path.join(here, "worker.py"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--inputs", inputs],
                        env, deadline)
        if args.trace:
            shutil.copyfile(os.path.join(inputs, "trace.jsonl"), trace_out)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["layers"]
        for name in res["absent"]:
            print(f"not measured: {name}")
    else:
        metrics = {
            "op_s.p50": metric(res["p50_s"], "s"),
            "op_s.p90": metric(res["p90_s"], "s"),
            "ops_per_s": metric(res["ops_per_s"], "ops/s"),
            "setup_s": metric(statistics.median(s * f for s, f in setups),
                              "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "correct_share": metric((attempted - failed) / attempted,
                                    "fraction"),
        }
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed, {res['completed_per_s']:.4g} completed/s; "
          f"latency percentiles over {res['latency_samples']} ops, each the "
          f"{'fastest' if args.trace else 'median calibrated latency'} of "
          f"at least {res['min_repeats']} repeats")
    if not args.trace:
        print(f"calibrated seconds (see perfbench/calibrate.py); machine "
              f"speed {res['speed']:.3g} of the reference's, raw op_s.p50 "
              f"{res['raw_p50_s']:.4g} s (fastest repeats), raw setup_s "
              f"{statistics.median(s for s, _ in setups):.4g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
