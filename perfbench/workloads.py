"""The operations of each workload and the answers read from them.

Three workloads call the public CLI entry point ``closuretop.cli.main``
with captured stdout; ``tower-sublevel`` calls the library, since towers
have no CLI command.  Every name is looked up on its module at call time
so that the tracer's patches apply.  Only ranks, torsion, pairs, verdicts
and stages are read from the output.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import re


def _op(item, variant=None, argv=None, group=None):
    return {"item": item, "variant": variant, "argv": argv,
            "group": item["id"] if group is None else group}


def persist_ops(pool):
    ops = []
    for item in pool:
        p = item["paths"]
        if item["kind"] == "digraph":
            argv = ["persist", "--digraph", p["g.txt"]]
        else:
            argv = ["persist", "--metric", p["m.csv"],
                    "--construction", item["kind"]]
        ops.append(_op(item, argv=argv + ["--max-dim", "1", "--json"]))
    return ops


def homology_ops(pool):
    ops = []
    for item in pool:
        for coeffs in ("z", "f2"):
            argv = ["homology", item["paths"]["s.json"],
                    "--theory", item["theory"], "--max-dim", "2",
                    "--coeffs", coeffs, "--json"]
            if item["power"] is not None:
                argv.append("--reduced")
            ops.append(_op(item, coeffs, argv))
    return ops


def tower_ops(pool):
    return [_op(item) for item in pool]


def homotopy_ops(pool):
    ops = []
    for item in pool:
        p = item["paths"]
        argv = ["homotopic", p["src.json"], p["tgt.json"], p["f.json"],
                p["g.json"], "--interval", item["interval"],
                "--product", item["product"],
                "--max-steps", str(item["n_maps"] + 1)]
        ops.append(_op(item, argv=argv, group=item["pair"]))
    return ops


OPS = {
    "persist-metric": persist_ops,
    "homology-cubical": homology_ops,
    "tower-sublevel": tower_ops,
    "homotopy-search": homotopy_ops,
}


def build_ops(workload, pool):
    ops = OPS[workload](pool)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# ---------------------------------------------------------------------------
# running one op: returns (exit code, raw output)


def run_cli(argv):
    cli = importlib.import_module("closuretop.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_tower(item):
    """One tower comparison: diagrams of f and g in degrees 0, 1 and the
    bottleneck distance per degree."""
    filtrations, homology, persistence, spaces = (
        importlib.import_module(f"closuretop.{name}") for name in
        ("filtrations", "homology", "persistence", "spaces"))
    paths = item["paths"]
    X = spaces.load_space(paths["s.json"])
    theory = homology.parse_theory(item["theory"])
    diagrams = []
    for name in ("f.csv", "g.csv"):
        with open(paths[name], "r", encoding="utf-8") as fh:
            f = filtrations.sublevel_from_csv(fh.read())
        F = filtrations.filtered_from_sublevel(X, f)
        diagrams.append([persistence.tower_to_diagram(
            persistence.persistence_tower(F, theory, k, item["coeffs"]))
            for k in (0, 1)])
    dist = [persistence.bottleneck(diagrams[0][k], diagrams[1][k])
            for k in (0, 1)]
    return 0, (diagrams, dist)


def run_op(op):
    if op["argv"] is not None:
        return run_cli(op["argv"])
    return run_tower(op["item"])


# ---------------------------------------------------------------------------
# answers: canonical JSON-ready values read from the raw output


def _pairs(raw_pairs):
    out = [[float(b), None if d in ("inf", None) else float(d)]
           for b, d in raw_pairs]
    return sorted(out, key=lambda bd: (bd[0], float("inf") if bd[1] is None
                                       else bd[1]))


def diagram_answer(diagram):
    return _pairs(diagram.pairs)


_STAGE_ITEM = re.compile(r"'([^']*)'->'([^']*)'")


def read_answer(workload, output):
    if workload == "persist-metric":
        obj = json.loads(output)
        return {str(D["degree"]): _pairs(D["pairs"]) for D in obj["diagrams"]}
    if workload == "homology-cubical":
        obj = json.loads(output)
        return {n: [g["rank"], sorted(g["torsion"])]
                for n, g in obj["homology"].items()}
    if workload == "tower-sublevel":
        diagrams, dist = output
        return {"f": [diagram_answer(D) for D in diagrams[0]],
                "g": [diagram_answer(D) for D in diagrams[1]],
                "bottleneck": [float(d) for d in dist]}
    lines = output.splitlines()
    if lines and lines[0].startswith("not homotopic"):
        return {"homotopic": False, "stages": []}
    if not lines or not lines[0].startswith("homotopic in"):
        raise ValueError(f"unexpected homotopic output {output[:80]!r}")
    stages = [dict(_STAGE_ITEM.findall(line)) for line in lines[1:]]
    return {"homotopic": True, "stages": stages}
