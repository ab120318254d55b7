"""One workload in one fresh process: closed loop, then oracles.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --inputs DIR

Prints one JSON object: the counts, the latencies' summary, the peak
resident memory read before the oracles run, and with --trace 1 the
per-layer metrics.  Spans are written to DIR/trace.jsonl.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import calibrate
import gen
import oracles
import workloads
from tracer import Tracer

WARMUP_OPS = 5

LAYERS = ("cli", "spaces", "filtrations", "complexes", "persistence",
          "homology", "linalg", "homotopy")

# metric -> (span names, "self" time or "total" span time)
SPAN_METRICS = {
    "persistence.births_self_s": (("persistence.filtered_simplices",), "self"),
    "persistence.reduce_self_s": (("cli.persistence_complex",), "self"),
    "persistence.tower_self_s": (("persistence.persistence_tower",), "self"),
    "persistence.diagram_s": (("persistence.tower_to_diagram",), "total"),
    "persistence.bottleneck_s": (("persistence.bottleneck",), "total"),
    "homology.enumerate_s": (("homology.enumerate_cubes",
                              "homology.enumerate_simplices"), "self"),
    "homology.assemble_self_s": (("homology.cubical_chain_complex",
                                  "homology.simplicial_chain_complex",
                                  "persistence.complex_chain_complex"), "self"),
    "homology.basis_self_s": (("persistence.homology_basis",
                               "persistence.induced_map_between"), "self"),
    "homotopy.enumerate_s": (("homotopy.enumerate_continuous_maps",), "self"),
    "homotopy.graph_self_s": (("homotopy.MapGraph.__init__",), "self"),
    "homotopy.search_s": (("homotopy.MapGraph.find_chain",), "total"),
    "homotopy.witness_self_s": (("homotopy._extract_one_step",), "self"),
}

# counters reported per op
COUNT_METRICS = ("filtrations.stages", "complexes.simplices_built",
                 "persistence.columns", "persistence.bars",
                 "homology.shapes_enumerated", "homology.basis_size",
                 "homology.boundary_nnz", "linalg.matrix_cells",
                 "homotopy.maps")


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def closed_loop(ops, seconds, run=workloads.run_op, reference=False):
    """Run ops in order, one caller, until the time is spent.

    Returns (elapsed seconds,
    [(op id, latency, exit code, output, reference seconds or None)]).
    With reference=True the calibration reference is timed right before
    each op, outside the op's latency.  An op that raises is recorded
    with exit code None.
    """
    samples = []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        ref = calibrate.time_reference() if reference else None
        t0 = time.perf_counter()
        try:
            rc, out = run(op)
        except Exception as exc:  # an op that raises counts as failed
            rc, out = None, repr(exc)
        t1 = time.perf_counter()
        samples.append((op["id"], t1 - t0, rc, out, ref))
        i += 1
        if t1 - start >= seconds:
            return t1 - start, samples


def grade(workload, ops, samples):
    """Failed samples and op ids: bad exit, unreadable, unstable or wrong.

    Returns (number of failed samples, set of failed op ids).
    """
    by_id = {op["id"]: op for op in ops}
    first = {}
    failed_ids = set()
    for op_id, _, rc, out, _ in samples:
        if op_id in failed_ids:
            continue
        if rc != 0:
            print(f"op {op_id}: exit {rc}: {str(out)[:200]}", file=sys.stderr)
            failed_ids.add(op_id)
            continue
        try:
            ans = workloads.read_answer(workload, out)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"op {op_id}: unreadable output: {exc}", file=sys.stderr)
            failed_ids.add(op_id)
            continue
        if op_id not in first:
            first[op_id] = ans
        elif first[op_id] != ans:
            print(f"op {op_id}: answer changed on a repeat", file=sys.stderr)
            failed_ids.add(op_id)
    wrong = oracles.CHECKS[workload](ops, first)
    for op_id in sorted(wrong):
        op = by_id[op_id]
        print(f"op {op_id}: oracle rejected {op['argv'] or op['item']['cls']}",
              file=sys.stderr)
    failed_ids |= wrong
    return sum(1 for s in samples if s[0] in failed_ids), failed_ids


def op_latencies(samples):
    """Each op's fastest latency over its repeats, and the fewest repeats.

    On a shared machine the speed of the same code swings by up to 1.5x
    for tens of seconds at a time; the repeats of an op are spread over
    the whole run, and the slower ones measure the neighbours, not the
    program.
    """
    by_op = {}
    for op_id, latency, _, _, _ in samples:
        by_op.setdefault(op_id, []).append(latency)
    return {op_id: min(v) for op_id, v in by_op.items()}, \
        min(len(v) for v in by_op.values())


def calibrated_latencies(samples):
    """Each op's median calibrated latency over its repeats.

    A repeat's latency is scaled by the machine's speed around it
    (calibrate.speed_factors), so a slow phase of the machine scales the
    reference and the op alike and drops out.
    """
    factors = calibrate.speed_factors([s[4] for s in samples])
    by_op = {}
    for s, factor in zip(samples, factors):
        by_op.setdefault(s[0], []).append(s[1] * factor)
    return {op_id: statistics.median(v) for op_id, v in by_op.items()}


def layer_metrics(tracer, n_ops, op_time):
    spans = [s for s in tracer.spans if s is not None and s[5] is not None]
    self_by_layer = {}
    self_by_name = {}
    total_by_name = {}
    calls_by_layer = {}
    for name, layer, start, end, _, _, self_s in spans:
        top = layer.split(".")[0]
        for key in {layer, top}:
            self_by_layer[key] = self_by_layer.get(key, 0.0) + self_s
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        total_by_name[name] = total_by_name.get(name, 0.0) + (end - start)
        calls_by_layer[top] = calls_by_layer.get(top, 0) + 1
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", self_by_layer.get(layer, 0.0) / n_ops, "s/op")
        put(f"{layer}.self_share", self_by_layer.get(layer, 0.0) / op_time,
            "fraction")
    for metric, (names, kind) in SPAN_METRICS.items():
        source = self_by_name if kind == "self" else total_by_name
        put(metric, sum(source.get(n, 0.0) for n in names) / n_ops, "s/op")
    put("linalg.z_s", self_by_layer.get("linalg.z", 0.0) / n_ops, "s/op")
    put("linalg.field_s", self_by_layer.get("linalg.field", 0.0) / n_ops,
        "s/op")
    put("linalg.calls", calls_by_layer.get("linalg", 0) / n_ops, "count/op")
    put("complexes.calls", calls_by_layer.get("complexes", 0) / n_ops,
        "count/op")
    for name in COUNT_METRICS:
        put(name, counts.get(name, 0) / n_ops, "count/op")
    built = counts.get("complexes.simplices_built", 0)
    put("complexes.kept_share",
        counts.get("persistence.columns", 0) / built if built else 0.0,
        "fraction")
    shapes = counts.get("homology.shapes_enumerated", 0)
    put("homology.nondegenerate_share",
        counts.get("homology.basis_size", 0) / shapes if shapes else 0.0,
        "fraction")
    cells = counts.get("homotopy.adjacency_cells", 0)
    put("homotopy.adjacency_density",
        counts.get("homotopy.adjacency_edges", 0) / cells if cells else 0.0,
        "fraction")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    args = ap.parse_args(argv)

    pool = gen.read_pool(args.inputs)
    ops = workloads.build_ops(args.workload, pool)
    # a partial last pass then samples the mix evenly, not the first class
    order = ops[:]
    random.Random(args.seed).shuffle(order)
    import closuretop.cli  # noqa: F401  (import cost belongs to set-up)

    # a few untimed ops warm the file cache and lazy imports
    for op in order[:WARMUP_OPS]:
        calibrate.time_reference()
        workloads.run_op(op)
    result = {}
    if args.trace:
        # each op runs untraced, then traced, so the two latencies share
        # the machine's state when trace.overhead compares them
        tracer = Tracer()
        run_traced = tracer.wrap(workloads.run_op, "op", "op")
        untraced, traced = [], []

        def paired(op):
            t0 = time.perf_counter()
            rc, out = workloads.run_op(op)
            untraced.append((op["id"], time.perf_counter() - t0, rc, out,
                             None))
            tracer.install()
            tracer.op = op["id"]
            try:
                t0 = time.perf_counter()
                rc, out = run_traced(op)
                traced.append((op["id"], time.perf_counter() - t0, rc, out,
                               None))
                return rc, out
            finally:
                tracer.op = None
                tracer.uninstall()

        elapsed, samples = closed_loop(order, args.seconds, run=paired)
        # samples hold the traced answers, and ops that raised either way
        samples += untraced
        tracer.dump(os.path.join(args.inputs, "trace.jsonl"))
        op_time = sum(s[3] - s[2] for s in tracer.spans if s[0] == "op")
        layers = layer_metrics(tracer, len(traced), op_time)
        layers["trace.overhead"] = {
            "value": statistics.median(op_latencies(traced)[0].values())
            / statistics.median(op_latencies(untraced)[0].values()),
            "unit": "ratio"}
        result["layers"] = layers
        result["absent"] = tracer.absent
    else:
        elapsed, samples = closed_loop(order, args.seconds, reference=True)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest, repeats = op_latencies(samples)
    failed, failed_ids = grade(args.workload, ops, samples)
    if args.trace:
        latency = fastest
    else:
        latency = calibrated_latencies(samples)
        result["raw_p50_s"] = statistics.median(fastest.values())
        result["speed"] = statistics.median(
            calibrate.speed_factors([s[4] for s in samples]))
    lat = list(latency.values())
    result.update({
        "attempted": len(samples), "failed": failed,
        "latency_samples": len(lat), "min_repeats": repeats,
        "p50_s": statistics.median(lat),
        "p90_s": percentile(lat, 0.9),
        # one caller running every op of the pool once
        "ops_per_s": sum(1 for i in latency if i not in failed_ids) / sum(lat),
        "completed_per_s": (len(samples) - failed) / elapsed,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
