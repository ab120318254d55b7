"""Shared random generators for the test suite.

Everything is seeded; tests use explicit random.Random instances so
failures reproduce.  Hypothesis draws its examples from a seed derived
from each test, so the @given tests check the same examples on every run.
"""
import itertools
import random
from fractions import Fraction

from hypothesis import settings

from closuretop import FiniteClosureSpace, FiniteMetric, build_space

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def rand_space(rng: random.Random, n: int, p: float = 0.4,
               prefix: str = "p") -> FiniteClosureSpace:
    """Random reflexive closure space on n labeled points."""
    pts = [f"{prefix}{i}" for i in range(n)]
    cmap = {}
    for x in pts:
        cl = {x} | {y for y in pts if y != x and rng.random() < p}
        cmap[x] = cl
    return build_space(pts, cmap)


def rand_metric(rng: random.Random, n: int, coord_range: int = 8,
                pseudo: bool = False) -> FiniteMetric:
    """Random exact metric: l1 distances of distinct integer plane points."""
    pts = [f"m{i}" for i in range(n)]
    coords = {}
    used = set()
    for x in pts:
        while True:
            c = (rng.randint(0, coord_range), rng.randint(0, coord_range))
            if pseudo or c not in used:
                used.add(c)
                coords[x] = c
                break
    dist = {(a, b): Fraction(abs(coords[a][0] - coords[b][0])
                             + abs(coords[a][1] - coords[b][1]))
            for a in pts for b in pts}
    return FiniteMetric(pts, dist, pseudo=pseudo)


def all_spaces(n: int, prefix: str = "p"):
    """Every reflexive closure structure on n labeled points."""
    pts = [f"{prefix}{i}" for i in range(n)]
    offdiag = [(x, y) for x in pts for y in pts if x != y]
    for bits in itertools.product([False, True], repeat=len(offdiag)):
        cmap = {x: {x} for x in pts}
        for (x, y), b in zip(offdiag, bits):
            if b:
                cmap[x].add(y)
        yield build_space(pts, cmap)


def space_iso_classes(max_n: int, prefix: str = "p"):
    """One representative per isomorphism class, sizes 1..max_n."""
    reps = []
    for n in range(1, max_n + 1):
        pts = [f"{prefix}{i}" for i in range(n)]
        seen = set()
        for X in all_spaces(n, prefix=prefix):
            best = None
            for perm in itertools.permutations(pts):
                rel = frozenset((perm.index(x), perm.index(y))
                                for x in pts for y in X.closure_map[x])
                if best is None or sorted(rel) < sorted(best):
                    best = rel
            if best not in seen:
                seen.add(best)
                reps.append(X)
    return reps
