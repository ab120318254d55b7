"""Seeded input generators for the four benchmark workloads.

Nothing here imports closuretop: a change to the library cannot change
the inputs.  Every generator takes a ``random.Random`` and returns plain
data; ``write_inputs`` turns a workload's pool into files that the
operations read.  The pool is stratified: the seed chooses the content of
each input, never the mix of sizes, so runs with different seeds do the
same amount of work per pass.
"""
from __future__ import annotations

import itertools
import json
import os
import pickle
import random

import numpy as np

POOL_FILE = "pool.pickle"

# ---------------------------------------------------------------------------
# raw generators


def l1_metric(rng: random.Random, n: int, coord_range: int):
    """Distance matrix of n distinct integer points of [0, R]^2 under l1."""
    used = set()
    coords = []
    while len(coords) < n:
        c = (rng.randint(0, coord_range), rng.randint(0, coord_range))
        if c not in used:
            used.add(c)
            coords.append(c)
    return [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in coords]
            for a in coords]


def weighted_digraph(rng: random.Random, n: int, p: float, max_weight: int):
    """Edges {(a, b): w} on points 0..n-1, every point on some edge."""
    edges = {}
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < p:
                edges[(a, b)] = rng.randint(1, max_weight)
    for a in range(n):
        if not any(a in e for e in edges):
            b = (a + 1) % n
            edges[(a, b)] = rng.randint(1, max_weight)
    return edges


def closure_relation(rng: random.Random, n: int, density: float):
    """Reflexive relation as a list of closure sets on points 0..n-1."""
    return [{i} | {j for j in range(n) if j != i and rng.random() < density}
            for i in range(n)]


def interval_relation(name: str):
    """Closures of the two-point interval: j1 indiscrete, jplus 0 -> 1."""
    if name == "j1":
        return [{0, 1}, {0, 1}]
    return [{0, 1}, {1}]


def power_relation(base, n: int, kind: str):
    """n-fold product of a relation on points 0..k-1; points are tuples.

    kind "x" relates tuples coordinatewise; "box" also requires that at
    most one coordinate differs.
    """
    pts = list(itertools.product(range(len(base)), repeat=n))
    rel = {}
    for t in pts:
        cl = set()
        for s in pts:
            diff = [i for i in range(n) if s[i] != t[i]]
            if all(s[i] in base[t[i]] for i in range(n)) and \
                    (kind == "x" or len(diff) <= 1):
                cl.add(s)
        rel[t] = cl
    return pts, rel


# ---------------------------------------------------------------------------
# work proxies.  Op cost varies by an order of magnitude between random
# inputs of one size, so each class accepts a random input only when a
# proxy for its work lies in a band.  The proxies predict the measured op
# time to within 10-25 % and use no library code.


def banded(rng, draw, proxy, band):
    """Draw inputs until proxy(input) lies in band = (low, high)."""
    for _ in range(100000):
        x = draw(rng)
        if band[0] <= proxy(x) <= band[1]:
            return x
    raise RuntimeError(f"no input with work in {band} after 100000 draws")


def _maximal_clique_work(adj, n):
    """Sum of 2^|C| over the maximal cliques C of a graph (bitmask rows)."""
    total = 0

    def grow(size, P, X):
        nonlocal total
        if not P and not X:
            total += 1 << size
            return
        pivot = ((P | X) & -(P | X)).bit_length() - 1
        cand = P & ~adj[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            grow(size + 1, P & adj[v], X & adj[v])
            P &= ~bit
            X |= bit

    grow(0, (1 << n) - 1, 0)
    return total


def flag_work(weights, n):
    """Clique work summed over the stages of a symmetric weight matrix
    (None for no edge): every stage's complex is rebuilt from scratch."""
    stages = sorted({w for row in weights for w in row if w is not None} | {0})
    return sum(_maximal_clique_work(
        [sum(1 << b for b in range(n) if b != a and weights[a][b] is not None
             and weights[a][b] <= t) for a in range(n)], n) for t in stages)


def cech_work(D):
    """Subsets of every closed ball, summed over the stages."""
    n = len(D)
    stages = sorted({v for row in D for v in row})
    return sum(1 << sum(1 for b in range(n) if D[x][b] <= t)
               for t in stages for x in range(n))


def homomorphisms(src, tgt):
    """All maps src -> tgt preserving closure, by backtracking.

    src maps each point to its closure; tgt is a list of closure sets.
    Maps are tuples of target indices in src's point order.
    """
    order = list(src)
    pos = {p: i for i, p in enumerate(order)}
    earlier = [[pos[q] for q in src[p] if pos[q] < i]
               for i, p in enumerate(order)]
    later = [[j for j, q in enumerate(order[:i]) if p in src[q]]
             for i, p in enumerate(order)]
    image = [0] * len(order)
    out = []

    def extend(i):
        if i == len(order):
            out.append(tuple(image))
            return
        for v in range(len(tgt)):
            # earlier points in c(p) must land in c(v), and v in the
            # closure of every earlier point whose closure holds p
            if all(image[j] in tgt[v] for j in earlier[i]) and \
                    all(v in tgt[image[j]] for j in later[i]):
                image[i] = v
                extend(i + 1)

    extend(0)
    return out


def relation_matrix(closures):
    """R[a, b] is True iff b lies in the closure of a."""
    R = np.zeros((len(closures), len(closures)), dtype=bool)
    for a, cl in enumerate(closures):
        R[a, list(cl)] = True
    return R


def cube3_count(rel, interval, kind):
    """Singular 3-cubes of a space: pairs of 2-cubes (bottom, top) whose
    vertices satisfy the relations that the third coordinate adds."""
    _, cube2 = power_relation(interval_relation(interval), 2, kind)
    verts = list(cube2)
    faces = np.array(homomorphisms(cube2, rel), dtype=np.intp)
    if faces.size == 0:
        return 0
    R = relation_matrix(rel)
    ok = np.ones((len(faces), len(faces)), dtype=bool)
    for iv, v in enumerate(verts):
        for w in cube2[v]:
            if kind == "box" and w != v:
                continue
            up = R[np.ix_(faces[:, iv], faces[:, verts.index(w)])]
            ok &= up
            if interval == "j1":  # the indiscrete interval also relates 1 to 0
                ok &= up.T
    return int(ok.sum())


def map_graph_work(src, tgt, maps, product):
    """Map pairs plus, for every pair joined both ways by one edge
    condition, a search over a third of the maps: the cost of building
    the one-step graph of a long interval."""
    F = np.array(maps, dtype=np.intp)
    R = relation_matrix(tgt)
    E = np.ones((len(maps), len(maps)), dtype=bool)
    for x, cl in enumerate(src):
        for y in (cl if product == "x" else (x,)):
            E &= R[np.ix_(F[:, x], F[:, y])]
    n = len(maps)
    return n * n + int((E & E.T).sum()) * n // 4


def mutual_weights(edges, n):
    """Symmetric weights of a digraph: an edge exists once both arrows do."""
    return [[max(edges[(a, b)], edges[(b, a)])
             if (a, b) in edges and (b, a) in edges else None
             for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# file formats read by the library


def metric_csv(D) -> str:
    n = len(D)
    lines = [",".join(f"m{i}" for i in range(n))]
    lines += [",".join(str(v) for v in row) for row in D]
    return "\n".join(lines) + "\n"


def digraph_text(edges) -> str:
    return "".join(f"v{a} v{b} {w}\n" for (a, b), w in sorted(edges.items()))


def space_json(labels, rel) -> str:
    """Space file; rel maps each label to the labels in its closure."""
    return json.dumps({"points": list(labels),
                       "closure": {x: sorted(rel[x]) for x in labels}})


def relation_space_json(prefix: str, closures) -> str:
    labels = [f"{prefix}{i}" for i in range(len(closures))]
    return space_json(labels, {labels[i]: [labels[j] for j in closures[i]]
                               for i in range(len(closures))})


def function_csv(prefix: str, values) -> str:
    return "".join(f"{prefix}{i},{v}\n" for i, v in enumerate(values))


def map_json(src_prefix, tgt_prefix, f) -> str:
    return json.dumps({f"{src_prefix}{i}": f"{tgt_prefix}{v}"
                       for i, v in enumerate(f)})


# ---------------------------------------------------------------------------
# workload pools.  Each item is a dict with "cls" (its class), "files"
# (name -> text) and the facts its oracle needs.  Class sizes are fixed;
# they put the median op and the 90th-percentile op inside a class, not
# on the cost step between two classes.

PERSIST_CLASSES = (
    # (class, copies, points, coordinate or weight range, work band)
    ("vr-8", 6, 8, 6, (1000, 1070)),
    ("digraph-13", 24, 13, 20, (1800, 2050)),
    ("cech-8", 10, 8, 8, (7700, 8400)),
    ("vr-9", 30, 9, 10, (2250, 2450)),
    ("cech-9", 14, 9, 10, (19500, 21500)),
    ("vr-10", 16, 10, 14, (5250, 5600)),
)


def persist_pool(rng: random.Random):
    pool = []
    for cls, copies, n, spread, band in PERSIST_CLASSES:
        kind = cls.split("-")[0]
        for _ in range(copies):
            if kind == "digraph":
                edges = banded(
                    rng, lambda r: weighted_digraph(r, n, 0.8, spread),
                    lambda e: flag_work(mutual_weights(e, n), n), band)
                pool.append({"cls": cls, "kind": kind, "n": n, "edges": edges,
                             "files": {"g.txt": digraph_text(edges)}})
                continue
            work = (lambda D: flag_work(D, n)) if kind == "vr" else cech_work
            D = banded(rng, lambda r: l1_metric(r, n, spread), work, band)
            pool.append({"cls": cls, "kind": kind, "n": n, "dist": D,
                         "files": {"m.csv": metric_csv(D)}})
    return pool


HOMOLOGY_THEORIES = ("j1-times", "j1-box", "jplus-times", "jplus-box")
# Op time is close to proportional to the number of 3-cubes for every
# theory, so the classes are bands on that count.  The j1 theories only
# take a few values near each tier.  (tier, copies) and bands per theory:
HOMOLOGY_TIERS = (("small", 4), ("medium", 5), ("large", 2))
HOMOLOGY_BANDS = {
    "j1-times": ((513, 514), (1021, 1022), (1275, 1530)),
    "j1-box": ((513, 514), (999, 1000), (1486, 1584)),
    "jplus-times": ((440, 520), (950, 1100), (1500, 1800)),
    "jplus-box": ((440, 520), (950, 1100), (1500, 1800)),
}
# One larger space whose degree-3 boundary matrix, densified as int64 by
# _linalg, is about 1e6 cells: peak memory then shows that matrix.
# (theory, band on 3-cubes, copies)
HOMOLOGY_LARGE = ("jplus-box", (7000, 7500), 1)


def homology_pool(rng: random.Random):
    """Random spaces of 5-6 points with closure density 0.3-0.6, and
    interval powers; each runs under z and under f2."""
    pool = []
    for theory in HOMOLOGY_THEORIES:
        interval, kind = theory.split("-")
        kind = "x" if kind == "times" else "box"

        tiers = list(zip(HOMOLOGY_TIERS, HOMOLOGY_BANDS[theory]))
        if theory == HOMOLOGY_LARGE[0]:
            tiers.append((("xl", HOMOLOGY_LARGE[2]), HOMOLOGY_LARGE[1]))
        for (tier, copies), band in tiers:
            # one size for the large space, so that its matrix, and with
            # it peak memory, varies little from seed to seed
            sizes = (6,) if tier == "xl" else (5, 6)

            def draw(r):
                return closure_relation(r, r.choice(sizes),
                                        r.uniform(0.3, 0.6))

            for _ in range(copies):
                rel = banded(rng, draw,
                             lambda rel: cube3_count(rel, interval, kind), band)
                pool.append({"cls": f"{theory}-{tier}", "theory": theory,
                             "power": None,
                             "files": {"s.json": relation_space_json("p", rel)}})
        # interval powers have vanishing reduced homology; J1 x J1 is left
        # out because its 65536 degree-3 tables take seconds per op
        base = interval_relation(interval)
        for dim in ((1,) if theory == "j1-times" else (1, 2)):
            pts, rel = power_relation(base, dim, kind)
            # the seed only relabels the points of an interval power
            names = [f"i{i}" for i in range(len(pts))]
            rng.shuffle(names)
            label = dict(zip(pts, names))
            text = space_json(names, {label[t]: [label[s] for s in rel[t]]
                                      for t in pts})
            pool.append({"cls": f"{theory}-power{dim}", "theory": theory,
                         "power": dim, "files": {"s.json": text}})
    return pool


TOWER_THEORIES = ("simplicial-j1", "simplicial-jplus", "j1-times", "jplus-box")
# (points, density, band on tower_work, copies) per theory
TOWER_CLASSES = {
    "simplicial-j1": ((6, 0.45, (800, 930), 8), (7, 0.4, (1120, 1320), 6)),
    "simplicial-jplus": ((6, 0.45, (2550, 2950), 8), (7, 0.4, (3950, 4600), 6)),
    "j1-times": ((6, 0.45, (1550, 1800), 8), (7, 0.4, (2250, 2600), 6)),
    "jplus-box": ((6, 0.45, (7200, 8400), 8), (7, 0.4, (12800, 14900), 6)),
}


def tower_shape(theory, n):
    """The degree-n shape (n = 1, 2) of a theory as a closure relation."""
    interval, kind = theory.split("-")
    if interval == "simplicial":
        return {i: set(range(i if kind == "jplus" else 0, n + 1))
                for i in range(n + 1)}
    _, cube = power_relation(interval_relation(interval), n,
                             "x" if kind == "times" else "box")
    return cube


def tower_work(theory, rel, f, g):
    """Degree-1 shapes times degree-2 shapes, the size of the field
    elimination, summed over the sublevel stages of f and of g."""
    edge, face = tower_shape(theory, 1), tower_shape(theory, 2)
    total = 0
    for h in (f, g):
        for t in sorted(set(h)):
            keep = [i for i in range(len(rel)) if h[i] <= t]
            sub = [{keep.index(j) for j in rel[i] if j in keep} for i in keep]
            total += len(homomorphisms(edge, sub)) * \
                len(homomorphisms(face, sub))
    return total


# A long grid: sparse spaces of 12 points with 10 relation pairs, f
# distinct on 0-30, so every tower has about 12 stages and the pairwise
# compositions of tower_to_diagram are about half of the op.  These are
# the pool's slowest ops, so the 90th-percentile op is one of them.
# (points, relation pairs, band on tower_work, copies), over q only.
LONG_GRID_CLASS = (12, 10, (1050, 1450), 16)


def sparse_relation(rng: random.Random, n: int, pairs: int):
    """Reflexive relation on points 0..n-1 with exactly `pairs` others."""
    rel = [{i} for i in range(n)]
    others = [(a, b) for a in range(n) for b in range(n) if a != b]
    for a, b in rng.sample(others, pairs):
        rel[a].add(b)
    return rel


def _tower_item(cls, theory, coeffs, rel, f, g):
    return {"cls": cls, "theory": theory, "coeffs": coeffs, "f": f, "g": g,
            "files": {"s.json": relation_space_json("p", rel),
                      "f.csv": function_csv("p", f),
                      "g.csv": function_csv("p", g)}}


def tower_pool(rng: random.Random):
    pool = []
    for theory in TOWER_THEORIES:
        for coeffs in ("q", "f2"):
            for n, density, band, copies in TOWER_CLASSES[theory]:
                def draw(r):
                    rel = closure_relation(r, n, density)
                    f = [r.randint(0, 6) for _ in range(n)]
                    g = [min(6, max(0, v + r.randint(-2, 2))) for v in f]
                    return rel, f, g

                for _ in range(copies):
                    rel, f, g = banded(rng, draw,
                                       lambda x: tower_work(theory, *x), band)
                    pool.append(_tower_item(f"{theory}-{coeffs}-{n}", theory,
                                            coeffs, rel, f, g))
    n, pairs, band, copies = LONG_GRID_CLASS

    def draw_long(r):
        f = r.sample(range(31), n)
        g = [min(30, max(0, v + r.randint(-2, 2))) for v in f]
        return sparse_relation(r, n, pairs), f, g

    for _ in range(copies):
        rel, f, g = banded(rng, draw_long,
                           lambda x: tower_work("simplicial-j1", *x), band)
        pool.append(_tower_item(f"long-grid-q-{n}", "simplicial-j1", "q",
                                rel, f, g))
    return pool


HOMOTOPY_INTERVALS = ("j1", "top:2", "top:3", "jplus", "leq:2")
# (source points, target points, density, band on map_graph_work, copies
# per product).  top:3 costs far more than the other intervals and its
# cost follows map_graph_work, so the 90th-percentile op is a top:3 op of
# the middle class.
HOMOTOPY_CLASSES = ((4, 4, 0.4, (2200, 2700), 6),
                    (4, 5, 0.45, (12000, 14500), 6),
                    (5, 5, 0.4, (40000, 48000), 3))


def homotopy_pool(rng: random.Random):
    """Map pairs; every interval runs on each pair so verdicts can agree."""
    pool = []
    for product in ("x", "box"):
        for ns, nt, density, band, copies in HOMOTOPY_CLASSES:
            def draw(r):
                src = closure_relation(r, ns, density)
                tgt = closure_relation(r, nt, density)
                return src, tgt, homomorphisms(dict(enumerate(src)), tgt)

            for _ in range(copies):
                src, tgt, maps = banded(
                    rng, draw, lambda x: map_graph_work(*x, product), band)
                f, g = rng.choice(maps), rng.choice(maps)
                files = {"src.json": relation_space_json("x", src),
                         "tgt.json": relation_space_json("y", tgt),
                         "f.json": map_json("x", "y", f),
                         "g.json": map_json("x", "y", g)}
                pair = len(pool) // len(HOMOTOPY_INTERVALS)
                for interval in HOMOTOPY_INTERVALS:
                    pool.append({"cls": f"{ns}x{nt}-{interval}",
                                 "product": product, "interval": interval,
                                 "pair": pair, "src": src, "tgt": tgt,
                                 "f": f, "g": g, "n_maps": len(maps),
                                 "files": files})
    return pool


POOLS = {
    "persist-metric": persist_pool,
    "homology-cubical": homology_pool,
    "tower-sublevel": tower_pool,
    "homotopy-search": homotopy_pool,
}


def make_pool(workload: str, seed: int):
    """The workload's inputs for a seed, each with a stable item number."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload](rng)
    for i, item in enumerate(pool):
        item["id"] = i
    return pool


def write_inputs(pool, root: str):
    """Write each item's files to root/<id>/<name>, and the pool itself."""
    for item in pool:
        item["paths"] = {name: os.path.join(root, str(item["id"]), name)
                         for name in item["files"]}
        for name, path in item["paths"].items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item["files"][name])
    with open(os.path.join(root, POOL_FILE), "wb") as fh:
        pickle.dump(pool, fh)


def read_pool(root: str):
    """The pool write_inputs saved under root."""
    with open(os.path.join(root, POOL_FILE), "rb") as fh:
        return pickle.load(fh)
