"""Run every workload, untraced and traced, and print all metrics.

Usage, from the root of the repository:
    python3 perfbench/all.py [--seed N] [--seconds S]

Runs perfbench/run.py once per workload with --trace 0 (end-to-end
metrics) and once with --trace 1 (per-layer metrics), one run at a time,
and prints one table per kind.  Exits non-zero if any run fails or any
answer is wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    ok = True
    for trace in (0, 1):
        for name in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            results[(name, trace)] = res
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        print(f"\n{key} (seed {args.seed}, {args.seconds} s per run)")
        print(f"{'metric':32s} {'unit':9s}" + "".join(f"{n:>18s}" for n in names))
        for m in spec[key]:
            row = f"{m['name']:32s} {m['unit']:9s}"
            for name in names:
                res = results.get((name, trace))
                value = res["metrics"].get(m["name"], {}).get("value") \
                    if res else None
                row += f"{value:18.6g}" if value is not None else f"{'-':>18s}"
            print(row)
        row = f"{'attempted / failed':42s}"
        for name in names:
            res = results.get((name, trace))
            row += f"{res['attempted']:>11d} / {res['failed']:<4d}" if res \
                else f"{'-':>18s}"
        print(row)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
