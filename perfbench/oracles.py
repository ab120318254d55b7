"""Checks of every answer, run after the timed phase.

Each oracle takes the workload's ops and the first answer read for each
op, and returns the set of op ids whose answer is wrong.  The benchmark's
own checks (union-find, an F2 reduction of the 2-skeleton, universal
coefficients, literal continuity on X x J) use no library code; the
cross-pipeline check of tower-sublevel (the reduction route) calls the
library outside the timed phase.
"""
from __future__ import annotations

import itertools

import gen

# ---------------------------------------------------------------------------
# persist-metric


def _edge_weights(item):
    """Birth of each edge {a, b} of the stage complexes, None if never."""
    n = item["n"]
    if item["kind"] == "digraph":
        return gen.mutual_weights(item["edges"], n)
    D = item["dist"]
    if item["kind"] == "vr":
        return D
    # cech: both ends in the closed ball of one point
    return [[min(max(D[x][a], D[x][b]) for x in range(n)) for b in range(n)]
            for a in range(n)]


def degree0_pairs(item):
    """Degree-0 bars by union-find over edge births (all points born at 0)."""
    n = item["n"]
    W = _edge_weights(item)
    edges = sorted((W[a][b], a, b) for a in range(n) for b in range(a + 1, n)
                   if W[a][b] is not None)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pairs = []
    for t, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            if t > 0:
                pairs.append([0.0, float(t)])
    pairs += [[0.0, None]] * len({find(a) for a in range(n)})
    return _sorted(pairs)


def _sorted(pairs):
    return sorted(pairs, key=lambda bd: (bd[0], float("inf") if bd[1] is None
                                         else bd[1]))


def degree1_pairs(item):
    """Degree-1 bars by the benchmark's own F2 reduction of the filtered
    2-skeleton: vertices at 0, edges at their births, triangles when all
    three edges exist (VR) or all three points share a ball (Cech)."""
    n = item["n"]
    W = _edge_weights(item)
    cells = [(0, (v,)) for v in range(n)]
    cells += [(W[a][b], (a, b)) for a in range(n) for b in range(a + 1, n)
              if W[a][b] is not None]
    for tri in itertools.combinations(range(n), 3):
        if item["kind"] == "cech":
            D = item["dist"]
            cells.append((min(max(D[x][v] for v in tri) for x in range(n)),
                          tri))
        elif all(W[a][b] is not None
                 for a, b in itertools.combinations(tri, 2)):
            cells.append((max(W[a][b] for a, b in
                              itertools.combinations(tri, 2)), tri))
    cells.sort(key=lambda c: (c[0], len(c[1])))
    index = {s: i for i, (_, s) in enumerate(cells)}
    owner = {}      # lowest-row pivot -> reduced column
    positive = []
    pairs = []
    for j, (t, s) in enumerate(cells):
        col = 0
        for face in itertools.combinations(s, len(s) - 1) if len(s) > 1 \
                else ():
            col ^= 1 << index[face]
        while col and (col.bit_length() - 1) in owner:
            col ^= owner[col.bit_length() - 1]
        if not col:
            positive.append(j)
            continue
        low = col.bit_length() - 1
        owner[low] = col
        if len(cells[low][1]) == 2 and cells[low][0] != t:
            pairs.append([float(cells[low][0]), float(t)])
    pairs += [[float(cells[j][0]), None] for j in positive
              if len(cells[j][1]) == 2 and j not in owner]
    return _sorted(pairs)


def check_persist(ops, answers):
    bad = set()
    for op in ops:
        ans = answers.get(op["id"])
        if ans is None:
            continue
        item = op["item"]
        if ans.get("0") != degree0_pairs(item) or \
                ans.get("1") != degree1_pairs(item):
            bad.add(op["id"])
    return bad


# ---------------------------------------------------------------------------
# homology-cubical


def _even(torsion):
    return sum(1 for d in torsion if d % 2 == 0)


def uct_consistent(z, f2):
    """F2 ranks from Z ranks and torsion by universal coefficients."""
    for n in z:
        below = z.get(str(int(n) - 1), [0, []])[1]
        if f2[n][0] != z[n][0] + _even(z[n][1]) + _even(below):
            return False
    return True


def check_homology(ops, answers):
    bad = set()
    groups = {}
    for op in ops:
        if op["id"] in answers:
            groups.setdefault(op["group"], {})[op["variant"]] = op
    for group in groups.values():
        ans = {v: answers[op["id"]] for v, op in group.items()}
        power = next(iter(group.values()))["item"]["power"] is not None
        ok = True
        if power:
            ok = all(a[n] == [0, []] for a in ans.values() for n in a)
        if ok and len(ans) == 2:
            ok = set(ans["z"]) == set(ans["f2"]) and \
                uct_consistent(ans["z"], ans["f2"])
        if not ok:
            bad.update(op["id"] for op in group.values())
    return bad


# ---------------------------------------------------------------------------
# tower-sublevel


def reduction_pairs(item, which):
    """Diagrams of one function by the boundary-reduction route."""
    from closuretop import filtrations as flt
    from closuretop import persistence as P
    from closuretop import spaces
    from workloads import diagram_answer
    X = spaces.space_from_json(item["files"]["s.json"])
    f = flt.sublevel_from_csv(item["files"][f"{which}.csv"])
    D = P.persistence_complex(flt.filtered_from_sublevel(X, f), "vr",
                              max_dim=1, coefficients="f2")
    return [diagram_answer(D[k]) for k in (0, 1)]


def check_tower(ops, answers):
    bad = set()
    for op in ops:
        ans = answers.get(op["id"])
        if ans is None:
            continue
        item = op["item"]
        sup = max(abs(a - b) for a, b in zip(item["f"], item["g"]))
        ok = all(d <= sup for d in ans["bottleneck"])
        if ok and item["theory"] == "simplicial-j1":
            # degree-0 bars do not depend on the field; degree 1 is
            # compared over f2, the reduction route's field
            degrees = 2 if item["coeffs"] == "f2" else 1
            ok = all(ans[w][:degrees] == reduction_pairs(item, w)[:degrees]
                     for w in ("f", "g"))
        if not ok:
            bad.add(op["id"])
    return bad


# ---------------------------------------------------------------------------
# homotopy-search


def interval_closures(name):
    """Closure sets of the interval named as on the CLI."""
    if name == "j1":
        name = "top:1"
    if name == "jplus":
        return [{0, 1}, {1}]
    family, m = name.split(":")
    m = int(m)
    if family == "top":
        return [set(range(m + 1)) for _ in range(m + 1)]
    if family == "leq":
        return [set(range(i, m + 1)) for i in range(m + 1)]
    raise ValueError(f"no oracle for interval {name!r}")


def literal_homotopy(maps, src, tgt, J, product):
    """Is H(x, i) = maps[i][x] continuous on the literal product X x J?"""
    pts = [(x, i) for x in range(len(src)) for i in range(len(J))]
    for (x, i) in pts:
        for (y, j) in pts:
            near = y in src[x] and j in J[i]
            if product == "box":
                near = near and (x == y or i == j)
            if near and maps[j][y] not in tgt[maps[i][x]]:
                return False
    return True


def _edge_ok(u, v, src, tgt, product):
    """The pair condition for a J-edge i -> j with h_i = u, h_j = v."""
    if product == "box":
        return all(v[x] in tgt[u[x]] for x in range(len(src)))
    return all(v[y] in tgt[u[x]] for x in range(len(src)) for y in src[x])


def one_step(a, b, src, tgt, J, product, maps):
    """Find middle slots of a (J, product) homotopy from a to b.

    Slots are filled one at a time against the pair conditions of the
    J-edges to slots already filled; a complete tuple must then pass the
    literal check on X x J.
    """
    m = len(J) - 1
    slots = [a] + [None] * (m - 1) + [b]

    def fits(i):
        for j in range(m + 1):
            if j == i or slots[j] is None:
                continue
            if j in J[i] and not _edge_ok(slots[i], slots[j], src, tgt, product):
                return False
            if i in J[j] and not _edge_ok(slots[j], slots[i], src, tgt, product):
                return False
        return True

    def fill(i):
        if i == m:
            return literal_homotopy(slots, src, tgt, J, product)
        for h in maps:
            slots[i] = h
            if fits(i) and fill(i + 1):
                return True
        slots[i] = None
        return False

    return fill(1)


def witness_ok(item, stages):
    src, tgt = item["src"], item["tgt"]
    try:
        chain = [tuple(int(s[f"x{i}"][1:]) for i in range(len(src)))
                 for s in stages]
    except (KeyError, ValueError):
        return False
    if not chain or chain[0] != tuple(item["f"]) or \
            chain[-1] != tuple(item["g"]):
        return False
    maps = gen.homomorphisms(dict(enumerate(src)), tgt)
    if not set(chain) <= set(maps):  # a stage that is not continuous
        return False
    J = interval_closures(item["interval"])
    return all(one_step(a, b, src, tgt, J, item["product"], maps) or
               one_step(b, a, src, tgt, J, item["product"], maps)
               for a, b in zip(chain, chain[1:]))


EQUIVALENT_INTERVALS = ({"j1", "top:2", "top:3"}, {"jplus", "leq:2"})


def check_homotopy(ops, answers):
    bad = set()
    groups = {}
    for op in ops:
        ans = answers.get(op["id"])
        if ans is None:
            continue
        item = op["item"]
        groups.setdefault(op["group"], []).append(op)
        if ans["homotopic"] and not witness_ok(item, ans["stages"]):
            bad.add(op["id"])
    for group in groups.values():
        for family in EQUIVALENT_INTERVALS:
            members = [op for op in group if op["item"]["interval"] in family]
            if len({answers[op["id"]]["homotopic"] for op in members}) > 1:
                bad.update(op["id"] for op in members)
    return bad


CHECKS = {
    "persist-metric": check_persist,
    "homology-cubical": check_homology,
    "tower-sublevel": check_tower,
    "homotopy-search": check_homotopy,
}
