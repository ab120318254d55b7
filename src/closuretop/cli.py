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
from .filtrations import (filtered_from_metric, filtered_from_sublevel,
                          filtered_from_weighted_digraph, metric_from_csv,
                          digraph_from_text, sublevel_from_csv)
from .homology import (parse_coefficients, parse_theory,
                       singular_homology_groups)
from .homotopy import HomotopyQuery, _check_size, homotopic
from .persistence import (DEFAULT_GH_CAP, bottleneck, diagram_to_json,
                          gh_distance, load_diagram, num_out,
                          persistence_complex)
from .spaces import (ContinuousMap, ProductKind, _interval_name, load_space,
                     point_names, read_json, refused)

# the exit code of each error type; any other ClosureError or OSError is 1
_EXIT_CODES = ((ParseError, 2), (DimensionTooLarge, 3))


def _fmt(x) -> str:
    if x == math.inf:
        return "inf"
    return f"{num_out(x):.9f}"


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


def _read_filtration(args, path, metric):
    """The filtration of one metric CSV (metric true) or weighted digraph file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if metric:
        return filtered_from_metric(metric_from_csv(text, pseudo=args.pseudo))
    return filtered_from_weighted_digraph(digraph_from_text(text))


def _load_filtration(args):
    if (args.space is None) != (args.sublevel is None):
        raise ParseError("--space and --sublevel go together")
    if args.space is None:
        return _read_filtration(args, args.metric or args.digraph,
                                args.metric is not None)
    X = load_space(args.space)
    point = point_names(X.points, args.sublevel)
    with open(args.sublevel, "r", encoding="utf-8") as fh:
        f = {point(k): v for k, v in sublevel_from_csv(fh.read()).items()}
    return refused(args.sublevel, filtered_from_sublevel, X, f)


def _plot_svg(diagrams, path):
    """Static persistence-diagram scatter: axes, diagonal, multiplicities."""
    finite = [float(v) for D in diagrams.values() for bd in D.pairs
              for v in bd if v is not None]
    # the axes run from min(0, least value) to the largest, with a margin
    lo = min(finite + [0.0])
    span = max(finite, default=0.0) - lo
    span = span * 1.1 if span > 0 else 1.0
    size, pad = 400, 50
    scale = (size - 2 * pad) / span

    def sx(v):
        return pad + (float(v) - lo) * scale

    def sy(v):
        return size - pad - (float(v) - lo) * scale

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
    field = parse_coefficients(coeffs)
    return ("exact-integer" if field is None else
            f"exact-mod-{field.p}" if field.p else "exact-rational")


def cmd_homology(args) -> int:
    X = load_space(args.space)
    theory = parse_theory(args.theory)
    groups = singular_homology_groups(X, theory, range(args.max_dim + 1),
                                      args.coeffs, args.reduced, args.cap)
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
    FX, FY = (_read_filtration(args, path, args.metric is not None)
              for path in args.metric or args.digraph)
    print(_fmt(gh_distance(FX, FY, cap=args.cap)))
    return 0


def _load_map(path, X, Y) -> ContinuousMap:
    with open(path, "r", encoding="utf-8") as fh:
        raw = read_json(fh.read(), f"map {path}")
    src = point_names(X.points, f"{path} (source)")
    tgt = point_names(Y.points, f"{path} (target)")
    return refused(f"map {path}", ContinuousMap, X, Y,
                   {src(k): tgt(v) for k, v in raw.items()})


def cmd_homotopic(args) -> int:
    X = load_space(args.source)
    Y = load_space(args.target)
    f = _load_map(args.map1, X, Y)
    g = _load_map(args.map2, X, Y)
    make, interval_args = _interval_name(args.interval)
    # the interval's m + 1 points count against the cap: refuse before
    # building it, which takes up to (m + 1)^2 closure entries
    _check_size(args.cap, interval_args[0] + 1)
    query = HomotopyQuery(interval=make(*interval_args),
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


def cmd_complex(args) -> int:
    build = vr_complex if args.command == "vr" else cech_complex
    sys.stdout.write(complex_to_text(build(load_space(args.space))))
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
    p.add_argument("--cap", type=_nonnegative, default=None,
                   help="override the shape-dimension cap")
    _add_common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("persist", help="persistence diagrams of a filtration")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--metric", help="distance matrix CSV")
    source.add_argument("--digraph", help="weighted digraph text file")
    source.add_argument("--space", help="space JSON (with --sublevel)")
    p.add_argument("--sublevel", help="point,value CSV (with --space)")
    p.add_argument("--construction", default="vr", choices=["vr", "cech"])
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--metric", nargs=2, help="two distance matrix CSVs")
    source.add_argument("--digraph", nargs=2,
                        help="two weighted digraph files")
    p.add_argument("--pseudo", action="store_true")
    p.add_argument("--cap", type=_nonnegative, default=DEFAULT_GH_CAP)
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("homotopic", help="search for a homotopy between two maps")
    p.add_argument("source", help="source space JSON")
    p.add_argument("target", help="target space JSON")
    p.add_argument("map1", help="JSON object point->point")
    p.add_argument("map2", help="JSON object point->point")
    p.add_argument("--interval", default="j1",
                   help="j1, jplus, jminus, top:m, bot:m, plain:m, leq:m, bits:m:k")
    p.add_argument("--product", default="x", choices=["x", "box"])
    p.add_argument("--max-steps", type=_nonnegative,
                   default=HomotopyQuery.max_steps)
    p.add_argument("--cap", type=_nonnegative, default=HomotopyQuery.size_cap)
    p.set_defaults(func=cmd_homotopic)

    for name, title in (("vr", "Vietoris-Rips"), ("cech", "Cech")):
        p = sub.add_parser(name, help=f"{title} complex of a space file")
        p.add_argument("space")
        p.set_defaults(func=cmd_complex)
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
    except (ClosureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES
                     if isinstance(exc, kind)), 1)


if __name__ == "__main__":
    sys.exit(main())
