"""Command-line front end.

Subcommands: homology, persist, bottleneck, gh, homotopic, vr, cech.
Numbers print with nine decimals; diagrams are emitted as JSON; the
optional plot is a minimal static SVG scatter.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .complexes import cech as cech_complex
from .complexes import complex_to_text
from .complexes import vr as vr_complex
from .errors import ClosureError, DimensionTooLarge, ParseError
from .filtrations import (Decoration, filtered_from_metric,
                          filtered_from_sublevel,
                          filtered_from_weighted_digraph, metric_from_csv,
                          digraph_from_text, sublevel_from_csv)
from .homology import (homology, parse_coefficients, parse_theory,
                       singular_chain_complex)
from .homotopy import HomotopyQuery, homotopic
from .persistence import (bottleneck, diagram_to_json, gh_distance,
                          load_diagram, persistence_complex)
from .spaces import (ContinuousMap, IntervalSpec, IntervalFamily, ProductKind,
                     load_space)


def _fmt(x) -> str:
    if x == math.inf:
        return "inf"
    return f"{float(x):.9f}"


def _parse_interval(text: str) -> IntervalSpec:
    """Interval names: j1, jplus, jminus, top:m, bot:m, plain:m, leq:m, bits:m:k."""
    parts = text.strip().lower().split(":")
    name = parts[0]
    try:
        if name == "j1" and len(parts) == 1:
            return IntervalSpec(IntervalFamily.TOP, 1)
        if name == "jplus" and len(parts) == 1:
            return IntervalSpec(IntervalFamily.BITS, 1, 1)
        if name == "jminus" and len(parts) == 1:
            return IntervalSpec(IntervalFamily.BITS, 1, 0)
        if name in ("top", "bot", "plain", "leq") and len(parts) == 2:
            fam = IntervalFamily[name.upper()]
            return IntervalSpec(fam, int(parts[1]))
        if name == "bits" and len(parts) == 3:
            return IntervalSpec(IntervalFamily.BITS, int(parts[1]), int(parts[2]))
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad interval {text!r}: {exc}") from exc
    raise ParseError(f"unknown interval {text!r}")


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


def _load_filtration(args):
    if getattr(args, "metric", None):
        with open(args.metric, "r", encoding="utf-8") as fh:
            M = metric_from_csv(fh.read(), pseudo=args.pseudo)
        return filtered_from_metric(M, Decoration(args.decoration))
    if getattr(args, "digraph", None):
        with open(args.digraph, "r", encoding="utf-8") as fh:
            return filtered_from_weighted_digraph(digraph_from_text(fh.read()))
    if getattr(args, "space", None) and getattr(args, "sublevel", None):
        X = load_space(args.space)
        with open(args.sublevel, "r", encoding="utf-8") as fh:
            f = sublevel_from_csv(fh.read())
        return filtered_from_sublevel(X, f)
    raise ParseError("need --metric, --digraph, or --space with --sublevel")


def _plot_svg(diagrams, path):
    """Static persistence-diagram scatter: axes, diagonal, multiplicities."""
    finite = [v for D in diagrams.values() for bd in D.pairs
              for v in bd if v is not None]
    hi = float(max(finite)) if finite else 1.0
    hi = hi * 1.1 if hi > 0 else 1.0
    size, pad = 400, 50
    scale = (size - 2 * pad) / hi

    def sx(v):
        return pad + float(v) * scale

    def sy(v):
        return size - pad - float(v) * scale

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" '
             f'y2="{size - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{size - pad}" x2="{pad}" y2="{pad}" '
             f'stroke="black"/>',
             f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" '
             f'y2="{pad}" stroke="#999" stroke-dasharray="4"/>']
    for d in sorted(diagrams):
        color = colors[d % len(colors)]
        counts = diagrams[d].as_multiset()
        for (b, dth), mult in sorted(counts.items(), key=repr):
            y = pad if dth is None else sy(dth)
            parts.append(f'<circle cx="{sx(b):.1f}" cy="{y:.1f}" r="4" '
                         f'fill="{color}" fill-opacity="0.8"/>')
            if mult > 1:
                parts.append(f'<text x="{sx(b) + 6:.1f}" y="{y - 6:.1f}" '
                             f'font-size="10">{mult}</text>')
    parts.append(f'<text x="{size // 2}" y="{size - 15}" font-size="12" '
                 'text-anchor="middle">birth</text>')
    parts.append(f'<text x="15" y="{size // 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 15 {size // 2})"'
                 '>death</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _arithmetic(coeffs) -> str:
    kind, p = parse_coefficients(coeffs)
    return {"z": "exact-integer", "q": "exact-rational"}.get(
        kind, f"exact-mod-{p}")


def cmd_homology(args) -> int:
    X = load_space(args.space)
    theory = parse_theory(args.theory)
    C = singular_chain_complex(X, theory, args.max_dim + 1, cap=args.cap)
    groups = {n: homology(C, n, coefficients=args.coeffs, reduced=args.reduced)
              for n in range(args.max_dim + 1)}
    if args.json:
        out = {"theory": args.theory, "coefficients": args.coeffs,
               "reduced": args.reduced,
               "arithmetic": _arithmetic(args.coeffs),
               "homology": {str(n): {"rank": g.rank,
                                     "torsion": list(g.torsion)}
                            for n, g in groups.items()}}
        print(json.dumps(out))
    else:
        for n, g in groups.items():
            print(f"H_{n} = {g}")
    return 0


def cmd_persist(args) -> int:
    F = _load_filtration(args)
    diagrams = persistence_complex(F, construction=args.construction,
                                   max_dim=args.max_dim,
                                   coefficients=args.coeffs)
    if args.json:
        out = {"construction": args.construction, "coefficients": args.coeffs,
               "arithmetic": _arithmetic(args.coeffs),
               "diagrams": [json.loads(diagram_to_json(D))
                            for _, D in sorted(diagrams.items())]}
        print(json.dumps(out))
    else:
        for d in sorted(diagrams):
            print(diagram_to_json(diagrams[d]))
    if args.out:
        for d in sorted(diagrams):
            with open(f"{args.out}_deg{d}.json", "w", encoding="utf-8") as fh:
                fh.write(diagram_to_json(diagrams[d]) + "\n")
    if args.plot:
        _plot_svg(diagrams, args.plot)
    return 0


def cmd_bottleneck(args) -> int:
    D1 = load_diagram(args.diagram1)
    D2 = load_diagram(args.diagram2)
    print(_fmt(bottleneck(D1, D2)))
    return 0


def cmd_gh(args) -> int:
    filt = []
    if args.metric:
        if len(args.metric) != 2:
            raise ParseError("gh --metric needs exactly two files")
        for path in args.metric:
            with open(path, "r", encoding="utf-8") as fh:
                M = metric_from_csv(fh.read(), pseudo=args.pseudo)
            filt.append(filtered_from_metric(M, Decoration(args.decoration)))
    elif args.digraph:
        if len(args.digraph) != 2:
            raise ParseError("gh --digraph needs exactly two files")
        for path in args.digraph:
            with open(path, "r", encoding="utf-8") as fh:
                filt.append(filtered_from_weighted_digraph(
                    digraph_from_text(fh.read())))
    else:
        raise ParseError("gh needs --metric or --digraph (two files)")
    print(_fmt(gh_distance(filt[0], filt[1], cap=args.cap)))
    return 0


def _load_mapping(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad map JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"map file {path} must be a JSON object")
    return obj


def _resolve_mapping(raw, X, Y, path):
    """JSON keys are strings; match them to the actual point labels."""
    src = {str(p): p for p in X.points}
    tgt = {str(p): p for p in Y.points}
    out = {}
    for k, v in raw.items():
        if k not in src:
            raise ParseError(f"{path}: unknown source point {k!r}")
        if str(v) not in tgt:
            raise ParseError(f"{path}: unknown target point {v!r}")
        out[src[k]] = tgt[str(v)]
    return out


def cmd_homotopic(args) -> int:
    X = load_space(args.source)
    Y = load_space(args.target)
    f = ContinuousMap(X, Y, _resolve_mapping(_load_mapping(args.map1),
                                             X, Y, args.map1))
    g = ContinuousMap(X, Y, _resolve_mapping(_load_mapping(args.map2),
                                             X, Y, args.map2))
    query = HomotopyQuery(interval=_parse_interval(args.interval),
                          product=ProductKind(args.product),
                          max_steps=args.max_steps, size_cap=args.cap)
    witness = homotopic(f, g, query)
    if witness is None:
        print("not homotopic (map graph exhausted)")
        return 0
    print(f"homotopic in {witness.step_count} step(s)")
    for i, stage in enumerate(witness.stages):
        items = " ".join(f"{k!r}->{v!r}" for k, v in sorted(stage.items(),
                                                            key=repr))
        print(f"  stage {i}: {items}")
    return 0


def cmd_vr(args) -> int:
    X = load_space(args.space)
    sys.stdout.write(complex_to_text(vr_complex(X)))
    return 0


def cmd_cech(args) -> int:
    X = load_space(args.space)
    sys.stdout.write(complex_to_text(cech_complex(X)))
    return 0


def _add_common(p, coeffs_default="z"):
    p.add_argument("--coeffs", default=coeffs_default,
                   help="coefficients: z, q, or f<p>")
    p.add_argument("--json", action="store_true", help="emit JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closuretop",
        description="homotopy, homology, and persistence of finite closure spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="singular homology of a space file")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--theory", default="j1-times",
                   help="j1-times, j1-box, jplus-times, jplus-box, "
                        "simplicial-j1, simplicial-jplus")
    p.add_argument("--max-dim", type=_nonnegative, default=1)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--cap", type=int, default=None,
                   help="override the shape-dimension cap")
    _add_common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("persist", help="persistence diagrams of a filtration")
    p.add_argument("--metric", help="distance matrix CSV")
    p.add_argument("--digraph", help="weighted digraph text file")
    p.add_argument("--space", help="space JSON (with --sublevel)")
    p.add_argument("--sublevel", help="point,value CSV (with --space)")
    p.add_argument("--construction", default="vr", choices=["vr", "cech"])
    p.add_argument("--decoration", default="closed",
                   choices=[d.value for d in Decoration])
    p.add_argument("--pseudo", action="store_true",
                   help="allow zero distances between distinct points")
    p.add_argument("--max-dim", type=_nonnegative, default=1)
    p.add_argument("--out", help="prefix for per-degree diagram files")
    p.add_argument("--plot", help="write an SVG scatter to this path")
    _add_common(p, coeffs_default="f2")
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser("bottleneck", help="bottleneck distance of two diagrams")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("gh", help="Gromov-Hausdorff distance of two filtrations")
    p.add_argument("--metric", nargs=2, help="two distance matrix CSVs")
    p.add_argument("--digraph", nargs=2, help="two weighted digraph files")
    p.add_argument("--decoration", default="closed",
                   choices=[d.value for d in Decoration])
    p.add_argument("--pseudo", action="store_true")
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("homotopic", help="search for a homotopy between two maps")
    p.add_argument("source", help="source space JSON")
    p.add_argument("target", help="target space JSON")
    p.add_argument("map1", help="JSON object point->point")
    p.add_argument("map2", help="JSON object point->point")
    p.add_argument("--interval", default="j1",
                   help="j1, jplus, jminus, top:m, bot:m, plain:m, leq:m, bits:m:k")
    p.add_argument("--product", default="x", choices=["x", "box"])
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument("--cap", type=int, default=5)
    p.set_defaults(func=cmd_homotopic)

    p = sub.add_parser("vr", help="Vietoris-Rips complex of a space file")
    p.add_argument("space")
    p.set_defaults(func=cmd_vr)

    p = sub.add_parser("cech", help="Cech complex of a space file")
    p.add_argument("space")
    p.set_defaults(func=cmd_cech)
    return parser


_PARSER = None


def main(argv=None) -> int:
    # built on the first call and reused: parsing leaves the parser as it was
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
