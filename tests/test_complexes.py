"""Complex constructions, functors, adjunctions, contiguity, file formats."""
import itertools
import random

import pytest

from closuretop import (BadParameter, ContinuousMap, Hypergraph, MissingPoint,
                        ParseError, SimplicialComplex, SimplicialMap,
                        build_space, cech, complex_from_text, complex_to_text,
                        contiguous, cosk1, cosk_inf, dc, g_functor, gamma,
                        is_continuous, is_hypergraph_map, is_simplicial,
                        ProductKind, coproduct, j1, load_complex,
                        product, symmetrize, tr1, tr_inf, vr)
from closuretop.complexes import cliques
from conftest import all_spaces, rand_space


def fs(*items):
    return frozenset(frozenset(s) for s in items)


THREE_POINT = build_space(
    ["x", "y", "z"],
    {"x": {"x", "y"}, "y": {"x", "y"}, "z": {"x", "y", "z"}})


def test_vr_and_cech_three_point_example():
    K = vr(THREE_POINT)
    assert K.simplices == fs({"x"}, {"y"}, {"z"}, {"x", "y"})
    C = cech(THREE_POINT)
    assert C.simplices == fs({"x"}, {"y"}, {"z"}, {"x", "y"},
                             {"x", "z"}, {"y", "z"}, {"x", "y", "z"})


def test_vr_is_clique_complex_of_mutual_relation():
    rng = random.Random(3)
    for _ in range(20):
        X = rand_space(rng, rng.randint(1, 5))
        K = vr(X)
        # oracle: brute force over all nonempty subsets
        expected = set()
        for r in range(1, len(X.points) + 1):
            for sub in itertools.combinations(X.points, r):
                if all(b in X.closure_map[a] and a in X.closure_map[b]
                       for a in sub for b in sub):
                    expected.add(frozenset(sub))
        assert K.simplices == frozenset(expected)


def test_cliques_against_combinations():
    """Cliques by size, then lexicographically, against every subset."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 9)
        p = rng.choice([0.2, 0.5, 0.8])
        edges = {(i, j) for i, j in itertools.combinations(range(n), 2)
                 if rng.random() < p}
        later = [sum(1 << j for j in range(i + 1, n) if (i, j) in edges)
                 for i in range(n)]
        expected = [c for r in range(1, n + 1)
                    for c in itertools.combinations(range(n), r)
                    if all(e in edges for e in itertools.combinations(c, 2))]
        assert list(cliques(later)) == expected


def test_cech_brute_force_oracle():
    rng = random.Random(4)
    for _ in range(20):
        X = rand_space(rng, rng.randint(1, 5))
        K = cech(X)
        expected = set()
        for r in range(1, len(X.points) + 1):
            for sub in itertools.combinations(X.points, r):
                if any(set(sub) <= X.closure_map[x] for x in X.points):
                    expected.add(frozenset(sub))
        assert K.simplices == frozenset(expected)


def test_simplicial_complex_validation():
    with pytest.raises(BadParameter):
        SimplicialComplex(["a", "b", "c"],
                          fs({"a"}, {"b"}, {"c"}, {"a", "b", "c"}))
    with pytest.raises(BadParameter):
        SimplicialComplex(["a", "b"], fs({"a"}, {"a", "b"}))  # missing {b}


def test_hypergraph_and_map_validation():
    with pytest.raises(BadParameter):
        Hypergraph(["a", "b"], [set()])
    with pytest.raises(MissingPoint):
        Hypergraph(["a", "b"], [{"a", "c"}])
    with pytest.raises(BadParameter):
        Hypergraph(["a", "a"], [{"a"}])
    H = Hypergraph(["a", "b"], fs({"a", "b"}))
    K = complex_from_text("a b\n", close_downward=True)
    for check, A in ((is_hypergraph_map, H), (is_simplicial, K)):
        assert check({"a": "b", "b": "a"}, A, A)
        with pytest.raises(MissingPoint):
            check({"a": "a"}, A, A)  # undefined at b
        with pytest.raises(MissingPoint):
            check({"a": "a", "b": "z"}, A, A)  # z is not a target point


def test_hypergraph_downward_closure():
    H = Hypergraph(["a", "b", "c"], fs({"a", "b", "c"}, {"a"}))
    assert not H.is_downward_closed()
    D = dc(H)
    assert D.is_downward_closed()
    assert frozenset({"b", "c"}) in D.edges
    K = tr_inf(D)
    assert K.simplices == D.edges
    with pytest.raises(BadParameter):
        tr_inf(H)


def test_gamma_is_downward_closed_cech():
    rng = random.Random(7)
    for _ in range(10):
        X = rand_space(rng, rng.randint(1, 4))
        H = gamma(X)
        assert H.is_downward_closed()
        assert H.edges == cech(X).simplices


def test_g_functor_and_tr1():
    K = SimplicialComplex(["a", "b", "c"],
                          fs({"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"},
                             {"a", "c"}, {"a", "b", "c"}))
    G = g_functor(K)
    assert G.closure_map["a"] == frozenset({"a", "b", "c"})
    T = tr1(K)
    assert T.closure_map["a"] == frozenset({"a", "b", "c"})
    # cosk1 of the triangle graph restores the solid triangle
    assert cosk1(T) == K
    # downward closure makes the union of the simplices at x that of
    # the edges at x
    rng = random.Random(8)
    for _ in range(30):
        X = rand_space(rng, rng.randint(1, 6))
        for L in (vr(X), cech(X)):
            assert g_functor(L) == tr1(L)


def test_cosk_inf_fills_boundaries_iteratively():
    # the hollow triangle gains its 2-cell
    K = complex_from_text("a b\nb c\na c\n", close_downward=True)
    filled = cosk_inf(K)
    assert frozenset({"a", "b", "c"}) in filled.edges
    # the hollow tetrahedron boundary gains the top cell through the
    # increasing-cardinality pass (all triangles are present)
    lines = "\n".join(" ".join(t) for t in
                      itertools.combinations("abcd", 3))
    L = complex_from_text(lines, close_downward=True)
    filled2 = cosk_inf(L)
    assert frozenset({"a", "b", "c", "d"}) in filled2.edges


def _cosk_inf_by_sizes(K):
    """The coskeleton by its rule: by increasing size, add every set all
    of whose maximal proper subsets are present."""
    edges = set(K.simplices)
    pts = sorted(K.points, key=repr)
    for size in range(2, len(pts) + 1):
        for cand in map(frozenset, itertools.combinations(pts, size)):
            if all(cand - {x} in edges for x in cand):
                edges.add(cand)
    return Hypergraph(K.points, edges)


def test_cosk_inf_is_the_full_simplex():
    for n in range(1, 5):
        for K in _all_complexes([f"k{i}" for i in range(n)]):
            full = cosk_inf(K)
            assert full == _cosk_inf_by_sizes(K)
            assert len(full.edges) == 2 ** n - 1


# ---------------------------------------------------------------------------
# adjunctions as vertex-map set equalities, exhaustively on tiny carriers

def _all_vertex_maps(src_pts, tgt_pts):
    for combo in itertools.product(tgt_pts, repeat=len(src_pts)):
        yield dict(zip(src_pts, combo))


def _all_complexes(points):
    """Every simplicial complex on the given labeled points."""
    points = list(points)
    singletons = fs(*[{p} for p in points])
    candidates = [frozenset(s) for r in range(2, len(points) + 1)
                  for s in itertools.combinations(points, r)]
    for keep in itertools.product([False, True], repeat=len(candidates)):
        chosen = set(singletons) | {c for c, k in zip(candidates, keep) if k}
        ok = all(frozenset(t) in chosen
                 for s in chosen for r in range(1, len(s))
                 for t in itertools.combinations(s, r))
        if ok:
            yield SimplicialComplex(points, chosen)


ALL_SPACES_3 = [X for n in (1, 2, 3) for X in all_spaces(n)]
ALL_COMPLEXES_3 = [K for n in (1, 2, 3)
                   for K in _all_complexes([f"k{i}" for i in range(n)])]


def test_adjunction_g_vr():
    """Continuous maps G(K) -> X are exactly simplicial maps K -> VR(X)."""
    for K in ALL_COMPLEXES_3:
        GK = g_functor(K)
        for X in ALL_SPACES_3:
            VRX = vr(X)
            for m in _all_vertex_maps(K.points, X.points):
                assert is_continuous(m, GK, X) == is_simplicial(m, K, VRX)


def test_adjunction_tr1_cosk1():
    """Graph maps tr1(K) -> G are exactly simplicial maps K -> cosk1(G)."""
    graphs = [X for X in ALL_SPACES_3 if symmetrize(X) == X]
    for K in ALL_COMPLEXES_3:
        TK = tr1(K)
        for G in graphs:
            CG = cosk1(G)
            for m in _all_vertex_maps(K.points, G.points):
                assert is_continuous(m, TK, G) == is_simplicial(m, K, CG)


def test_adjunction_dc_inclusion():
    """Hypergraph maps dc(H) -> K are exactly hypergraph maps H -> K
    when K is downward closed."""
    hypers = []
    for n in (1, 2):
        pts = [f"h{i}" for i in range(n)]
        subsets = [frozenset(s) for r in range(1, n + 1)
                   for s in itertools.combinations(pts, r)]
        for keep in itertools.product([False, True], repeat=len(subsets)):
            edges = {s for s, k in zip(subsets, keep) if k}
            hypers.append(Hypergraph(pts, edges))
    closed = [Hypergraph(K.points, K.simplices) for K in ALL_COMPLEXES_3]
    for H in hypers:
        DH = dc(H)
        for K in closed:
            for m in _all_vertex_maps(H.points, K.points):
                assert is_hypergraph_map(m, DH, K) == \
                    is_hypergraph_map(m, H, K)


def test_adjunction_symmetrization():
    """For symmetric S, continuous maps S -> X equal maps S -> s(X)."""
    sym = [X for X in ALL_SPACES_3 if symmetrize(X) == X]
    for S in sym:
        for X in ALL_SPACES_3:
            SX = symmetrize(X)
            for m in _all_vertex_maps(S.points, X.points):
                assert is_continuous(m, S, X) == is_continuous(m, S, SX)


# ---------------------------------------------------------------------------
# contiguity and file formats

def test_contiguity():
    path = complex_from_text("a b\nb c\n", close_downward=True)
    tri = complex_from_text("a b c\n", close_downward=True)
    f = SimplicialMap(path, tri, {"a": "a", "b": "b", "c": "c"})
    g = SimplicialMap(path, tri, {"a": "b", "b": "c", "c": "c"})
    assert contiguous(f, g)
    square = complex_from_text("a b\nb c\nc d\na d\n", close_downward=True)
    idm = SimplicialMap(square, square, {p: p for p in "abcd"})
    rot = SimplicialMap(square, square,
                        {"a": "b", "b": "c", "c": "d", "d": "a"})
    assert not contiguous(idm, rot)


def test_complex_text_roundtrip():
    K = complex_from_text("a b c\nc d\n", close_downward=True)
    K2 = complex_from_text(complex_to_text(K))
    assert K2 == K
    with pytest.raises(ParseError):
        complex_from_text("a b c\n")  # faces missing, no closure requested
    with pytest.raises(ParseError):
        complex_from_text("")
    with pytest.raises(ParseError):
        complex_from_text("a a b\n")


def test_load_complex_and_dimension(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("# a triangle and an edge\na b c\nc d\n")
    K = load_complex(str(path), close_downward=True)
    assert K == complex_from_text("a b c\nc d\n", close_downward=True)
    assert K.dimension() == 2
    assert complex_from_text("a\nb\n").dimension() == 0
    with pytest.raises(ParseError):
        load_complex(str(path))  # faces missing, no closure requested


def test_complex_text_reads_back_vr_and_cech_output():
    """Each point is one token: a tuple as its compact JSON list."""
    X = build_space([(0, 1), (2, 3)], {(0, 1): {(0, 1), (2, 3)},
                                       (2, 3): {(0, 1), (2, 3)}})
    for K in (vr(X), cech(X)):
        text = complex_to_text(K)
        assert text == "[0,1]\n[2,3]\n[0,1] [2,3]\n"
        assert complex_from_text(text) == K
    # a point id holding whitespace, or read as a comment, has no token
    for bad in ("a b", "#a"):
        Y = build_space([bad, "c"], {bad: {bad, "c"}, "c": {"c"}})
        with pytest.raises(BadParameter):
            complex_to_text(cech(Y))


def test_complex_files_read_tuple_points_back():
    """A token that parses as a JSON list names its tuple; any other token
    is its str, so a point whose token names another point is refused."""
    J1 = j1()
    spaces = [product(J1, J1), product(J1, J1, ProductKind.INDUCTIVE),
              coproduct([J1, build_space(["a", "[1"], {"a": {"a", "[1"},
                                                        "[1": {"[1"}})]),
              product(product(J1, J1), J1)]
    for X in spaces:
        for K in (vr(X), cech(X)):
            assert complex_from_text(complex_to_text(K)) == K
    assert complex_from_text("[0,[1,\"b\"]] c\n", True).points == (
        (0, (1, "b")), "c")
    # the str "[1]" would read back as the tuple (1,)
    for bad in ("[1]", "[]"):
        Y = build_space([bad, "c"], {bad: {bad, "c"}, "c": {"c"}})
        with pytest.raises(BadParameter, match="one-token form"):
            complex_to_text(vr(Y))
    with pytest.raises(ParseError, match="nested too deeply"):
        complex_from_text("[" * 5000 + "]" * 5000 + "\n")
    with pytest.raises(ParseError, match="cannot be a JSON object"):
        complex_from_text('[{"a":1}]\n')
    with pytest.raises(ParseError, match="duplicate point"):
        complex_from_text("[0,1]\n[0,1.0]\n")
