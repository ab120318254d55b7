"""Metric and digraph filtrations, decorations, product laws, parsing."""
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from closuretop import (BadParameter, Decoration, FilteredClosureSpace,
                        FiniteClosureSpace, FiniteMetric, NegativeEpsilon,
                        ParseError,
                        ProductKind, WeightedDigraph, build_space,
                        digraph_from_text, filtered_from_metric,
                        filtered_from_sublevel, filtered_from_weighted_digraph,
                        l1_product, linf_product, metric_closure,
                        metric_from_csv, metric_from_matrix, parse_number,
                        product, stage_at, subspace, sublevel_from_csv)
from conftest import rand_metric, rand_space


def test_parse_number():
    assert parse_number("0.5") == Fraction(1, 2)
    assert parse_number("3/7") == Fraction(3, 7)
    assert parse_number(" 2 ") == 2
    with pytest.raises(ParseError):
        parse_number("abc")


def test_metric_validation():
    with pytest.raises(BadParameter):
        metric_from_matrix(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(BadParameter):
        metric_from_matrix(["a", "b"], [[0, 0], [0, 0]])  # zero off-diagonal
    metric_from_matrix(["a", "b"], [[0, 0], [0, 0]], pseudo=True)
    with pytest.raises(BadParameter):
        metric_from_matrix(["a", "b", "c"],
                           [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle


def test_triangle_check_is_exact_and_names_the_first_triple():
    # 0.1 + 0.2 rounds to 0.30000000000000004 in floats; exactly it is less
    with pytest.raises(BadParameter, match=r"\('a', 'b', 'c'\)"):
        metric_from_matrix(["a", "b", "c"],
                           [[0, 0.1, 0.30000000000000004], [0.1, 0, 0.2],
                            [0.30000000000000004, 0.2, 0]])
    third = Fraction(1, 3)
    metric_from_matrix(["a", "b", "c"],
                       [[0, third, 0.5], [third, 0, Fraction(1, 5)],
                        [0.5, Fraction(1, 5), 0]])
    # the first failing (x, y, z) in row order, as a plain scan finds it
    d = [[0, 1, 1, 9], [1, 0, 1, 1], [1, 1, 0, 1], [9, 1, 1, 0]]
    with pytest.raises(BadParameter, match=r"\('a', 'b', 'd'\)"):
        metric_from_matrix("abcd", d)
    with pytest.raises(BadParameter, match="finite"):
        metric_from_matrix(["a", "b"], [[0, float("inf")],
                                        [float("inf"), 0]])


def test_metric_closure_decorations():
    M = metric_from_matrix(["a", "b", "c"],
                           [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(NegativeEpsilon):
        metric_closure(M, -1)
    closed = metric_closure(M, 1, Decoration.CLOSED)
    assert closed.closure_map["a"] == frozenset({"a", "b"})
    minus = metric_closure(M, 1, Decoration.MINUS)
    assert minus.closure_map["a"] == frozenset({"a"})
    plus = metric_closure(M, 1, Decoration.PLUS)
    assert plus == closed  # attained infimum on finite metrics
    # strict balls at the next grid value recover the closed balls
    assert metric_closure(M, 2, Decoration.MINUS).closure_map["a"] == \
        frozenset({"a", "b"})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_metric_filtration_monotone_and_symmetric(seed, n):
    M = rand_metric(random.Random(seed), n)
    F = filtered_from_metric(M)
    assert F.grid[0] == 0
    for A, B in zip(F.stages, F.stages[1:]):
        for x in A.points:
            assert A.closure_map[x] <= B.closure_map[x]
    final = F.final_stage()
    assert final.point_set() == frozenset(M.points)
    for x in final.points:  # metric closures are symmetric
        for y in final.closure_map[x]:
            assert x in final.closure_map[y]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_metric_as_digraph_cross_oracle(seed, n):
    """A metric filtered space equals the filtration of the weight digraph
    whose arrows both ways carry the pairwise distances."""
    M = rand_metric(random.Random(seed), n)
    weights = {(x, y): M.dist[(x, y)] for x in M.points for y in M.points
               if x != y}
    G = WeightedDigraph(M.points, weights)
    F1 = filtered_from_metric(M)
    F2 = filtered_from_weighted_digraph(G)
    assert F1.grid == F2.grid
    assert list(F1.stages) == list(F2.stages)


def test_stage_at_step_semantics():
    M = metric_from_matrix(["a", "b"], [[0, 2], [2, 0]])
    F = filtered_from_metric(M)
    assert stage_at(F, -1).points == ()
    assert stage_at(F, 0) is F.stages[0]
    assert stage_at(F, Fraction(3, 2)) is F.stages[0]
    assert stage_at(F, 2) is F.stages[1]
    assert stage_at(F, 100) is F.stages[1]


def test_filtration_validation():
    X1 = build_space(["a"], {"a": {"a"}})
    X2 = build_space(["b"], {"b": {"b"}})
    with pytest.raises(BadParameter):
        FilteredClosureSpace([0, 1], [X1, X2])  # not nested
    with pytest.raises(BadParameter):
        FilteredClosureSpace([1, 0], [X1, X1])  # grid not increasing


def test_sublevel_filtration():
    X = build_space(["a", "b", "c"],
                    {"a": {"a", "b"}, "b": {"b"}, "c": {"b", "c"}})
    F = filtered_from_sublevel(X, {"a": 0, "b": 1, "c": 1})
    assert F.grid == (0, 1)
    assert F.stages[0].point_set() == frozenset({"a"})
    assert F.stages[0].closure_map["a"] == frozenset({"a"})
    assert F.stages[1].point_set() == frozenset({"a", "b", "c"})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_interleaving_inclusions_exist_for_close_functions(seed):
    rng = random.Random(seed)
    X = rand_space(rng, rng.randint(2, 5))
    f = {x: Fraction(rng.randint(0, 4)) for x in X.points}
    g = {x: Fraction(rng.randint(0, 4)) for x in X.points}
    eps = max(abs(f[x] - g[x]) for x in X.points)
    Ff = filtered_from_sublevel(X, f)
    Fg = filtered_from_sublevel(X, g)
    for t in set(Ff.grid) | set(Fg.grid):
        assert Ff.stage_at(t).point_set() <= Fg.stage_at(t + eps).point_set()
        assert Fg.stage_at(t).point_set() <= Ff.stage_at(t + eps).point_set()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_product_laws_at_the_metric_level(seed):
    """Closed-ball closures: the sup metric matches the coordinatewise
    product closure at every scale, and the sum metric matches the
    cross-shaped product at scales below the smallest positive distance."""
    rng = random.Random(seed)
    MX = rand_metric(rng, rng.randint(2, 3))
    MY = rand_metric(rng, rng.randint(2, 3))
    sup = linf_product(MX, MY)
    add = l1_product(MX, MY)
    grid = sorted({d for d in sup.dist.values()} | {Fraction(0)})
    for eps in grid:
        left = metric_closure(sup, eps)
        right = product(metric_closure(MX, eps), metric_closure(MY, eps),
                        ProductKind.PRODUCT)
        assert left == right
    pos = sorted(d for d in add.dist.values() if d > 0)
    if pos:
        eps = pos[0]
        left = metric_closure(add, eps)
        right = product(metric_closure(MX, eps), metric_closure(MY, eps),
                        ProductKind.INDUCTIVE)
        assert left == right


def test_csv_and_text_parsers():
    M = metric_from_csv("a,b\n0,1\n1,0\n")
    assert M.d("a", "b") == 1
    M2 = metric_from_csv("0,2\n2,0\n")
    assert M2.points == ("0", "1")
    with pytest.raises(ParseError):
        metric_from_csv("")
    with pytest.raises(ParseError):
        metric_from_csv("a,b\n0,1\n")
    with pytest.raises(ParseError):
        metric_from_csv("a,b\n0,1,2\n1,0,3\n")
    G = digraph_from_text("# comment\na b 1\nb c 0.5\n")
    assert G.weights[("b", "c")] == Fraction(1, 2)
    with pytest.raises(ParseError):
        digraph_from_text("a b\n")
    with pytest.raises(ParseError):
        digraph_from_text("a b 1\na b 2\n")
    f = sublevel_from_csv("a,0\nb,1.5\n")
    assert f["b"] == Fraction(3, 2)
    with pytest.raises(ParseError):
        sublevel_from_csv("a,0\na,1\n")


def test_digraph_filtration_keeps_loops_and_thresholds_edges():
    G = digraph_from_text("a b 1\nb a 3\n")
    F = filtered_from_weighted_digraph(G)
    assert F.grid == (0, 1, 3)
    assert F.stages[0].closure_map["a"] == frozenset({"a"})
    assert F.stages[1].closure_map["a"] == frozenset({"a", "b"})
    assert F.stages[1].closure_map["b"] == frozenset({"b"})
    assert F.stages[2].closure_map["b"] == frozenset({"a", "b"})


def test_grid_keeps_the_first_of_equal_values_with_its_type():
    """Equal numbers of different types share one grid value, the first
    one given, as a set of the values keeps it; an infinite weight is a
    grid value too."""
    pts = ["a", "b", "c"]
    dist = {("a", "a"): 0, ("b", "b"): 0.0, ("c", "c"): Fraction(0),
            ("a", "b"): 1, ("b", "a"): Fraction(1),
            ("a", "c"): 1.5, ("c", "a"): Fraction(3, 2),
            ("b", "c"): Fraction(1, 2), ("c", "b"): 0.5}
    M = FiniteMetric(pts, dist)
    want = sorted(set(M.dist.values()) | {Fraction(0)})
    F = filtered_from_metric(M)
    assert [(type(t), t) for t in F.grid] == [(type(t), t) for t in want]
    assert F.births["c"] == {"c": 0, "a": 3, "b": 1}
    G = WeightedDigraph(pts, {("a", "b"): 2.0, ("b", "a"): 2,
                              ("b", "c"): float("inf")})
    F = filtered_from_weighted_digraph(G)
    assert [(type(t), t) for t in F.grid] == [
        (Fraction, 0), (float, 2.0), (float, float("inf"))]
    assert F.births["a"]["b"] == F.births["b"]["a"] == 1
    assert F.births["b"]["c"] == 2


def test_grid_of_numpy_integers():
    np = pytest.importorskip("numpy")
    M = FiniteMetric(["a", "b"], {("a", "a"): np.int64(0), ("b", "b"): 0,
                                  ("a", "b"): np.int64(3),
                                  ("b", "a"): Fraction(3)})
    F = filtered_from_metric(M)
    assert F.grid == (0, 3) and F.births["b"] == {"b": 0, "a": 1}


# ---------------------------------------------------------------------------
# the pair-birth table against the per-stage constructions


def _stage_of(grid, stages, t):
    i = bisect_right(grid, t) - 1
    return stages[i] if i >= 0 else None


def _assert_table_matches_stages(F, grid, stages):
    """F equals the filtration of the stage list, stage by stage,
    at, between, below and above the grid values."""
    assert F.grid == tuple(grid)
    assert FilteredClosureSpace(grid, stages) == F
    probes = list(grid) + [grid[0] - 1, grid[-1] + 1]
    probes += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    for t in probes:
        want = _stage_of(grid, stages, t)
        got = F.stage_at(t)
        if want is None:
            assert got.points == ()
        else:
            assert got == want and got.points == want.points


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.booleans(),
       st.sampled_from(list(Decoration)))
def test_metric_table_matches_metric_closures(seed, n, pseudo, dec):
    """The table holds the closed balls; off the grid values, where strict
    and closed balls agree, its stages are every decoration's closures."""
    rng = random.Random(seed)
    M = rand_metric(rng, n, coord_range=rng.choice([2, 8]), pseudo=pseudo)
    F = filtered_from_metric(M)
    grid = sorted(set(M.dist.values()) | {0})
    _assert_table_matches_stages(F, grid, [metric_closure(M, t)
                                           for t in grid])
    for t in [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1]:
        assert F.stage_at(t) == metric_closure(M, t, dec)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_digraph_table_matches_per_weight_stages(seed, n):
    rng = random.Random(seed)
    pts = [f"v{i}" for i in range(n)]
    weights = {(a, b): Fraction(rng.randint(0, 6), rng.randint(1, 2))
               for a in pts for b in pts if a != b and rng.random() < 0.5}
    G = WeightedDigraph(pts, weights)
    F = filtered_from_weighted_digraph(G)
    grid = sorted(set(weights.values()) | {0})
    stages = [FiniteClosureSpace(pts, {x: {x} | {y for (a, y), v in
                                                 weights.items()
                                                 if a == x and v <= t}
                                       for x in pts})
              for t in grid]
    _assert_table_matches_stages(F, grid, stages)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_sublevel_table_matches_subspaces(seed, n):
    rng = random.Random(seed)
    X = rand_space(rng, n, p=rng.choice([0.3, 0.7]))
    f = {x: Fraction(rng.randint(0, 4), rng.randint(1, 3)) for x in X.points}
    F = filtered_from_sublevel(X, f)
    grid = sorted(set(f.values()))
    _assert_table_matches_stages(
        F, grid, [subspace(X, [x for x in X.points if f[x] <= t])
                  for t in grid])


def test_stages_are_built_on_demand_and_cached():
    M = metric_from_matrix(["a", "b", "c"],
                           [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    F = filtered_from_metric(M)
    assert F.births == {"a": {"a": 0, "b": 1, "c": 2},
                        "b": {"a": 1, "b": 0, "c": 1},
                        "c": {"a": 2, "b": 1, "c": 0}}
    assert F.stage(1) is F.stage_at(Fraction(3, 2)) is F.stages[1]
    assert F.final_stage() is F.stages[-1]
    with pytest.raises(IndexError):
        F.stage(3)
    # the stage-list constructor keeps the given stage objects
    stages = [metric_closure(M, t) for t in F.grid]
    G = FilteredClosureSpace(F.grid, stages)
    assert G == F and all(G.stage(i) is s for i, s in enumerate(stages))
