"""The value-bounded solve against the unbounded path on generated graphs.

A solve reads the walk table only to depth D = min(m, floor(U * F)) and
prunes combine at mass floor(best * F).  The same graphs go through an
unbounded scan of the full depth-m table here, which must pick the same
chain and so the same cut; and a BFS run to depth D must store exactly the
walks of the full table that have at most D darts.
"""

import random
from fractions import Fraction
from operator import add

import pytest

from surfcut.balance import density, parse_custom, quotient
from surfcut.construct import find_embedding, grid_torus, random_planar
from surfcut.cover import shortest_tagged_walks
from surfcut.solver import SolveContext, recover_cut

CUSTOM = parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")
PROFILES = {"quotient": quotient(), "density": density(), "custom": CUSTOM}


def _multigraph(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random non-loop edges, parallels allowed."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < m:
        edges.append(tuple(rng.sample(range(n), 2)))
    return edges


GRAPHS = {
    "torus3x3": lambda: grid_torus(3, 3),
    "torus2x4": lambda: grid_torus(2, 4),
    "g1_n5_m8": lambda: find_embedding(5, _multigraph(5, 8, 1), 1),
    "g1_n6_m9": lambda: find_embedding(6, _multigraph(6, 9, 2), 1),
    "g1_n4_m7": lambda: find_embedding(4, _multigraph(4, 7, 3), 1),
    "g2_n3_m7": lambda: find_embedding(3, _multigraph(3, 7, 4), 2),
    "g2_n3_m8": lambda: find_embedding(3, _multigraph(3, 8, 5), 2),
    "g2_n4_m8": lambda: find_embedding(4, _multigraph(4, 8, 6), 2),
    "planar12": lambda: random_planar(12, 2, seed=7),
    "planar14": lambda: random_planar(14, 4, seed=8),
    "planar16": lambda: random_planar(16, 0, seed=9),
}


def unbounded_best(cover, genus: int, f, n: int, m: int):
    """(value, size, coeffs, chain) of the best chain over every multiset of
    at most genus+1 table walks with total mass <= m whose crossings cancel
    and whose weight k has 1 <= |k| <= n-1; no value bound is used."""
    walks = sorted(
        (w.chain.size, w.k, w.v, w.chain)
        for w in cover.walks.values()
        if not w.chain.is_zero and w.chain.size <= m
    )
    by_v: dict[tuple[int, ...], list[int]] = {}
    for i, (_, _, v, _) in enumerate(walks):
        by_v.setdefault(v, []).append(i)
    best = None

    def fill(picked, left, k, v, mass):
        nonlocal best
        if left == 1:
            # the last walk must cancel the crossings of the others
            start = picked[-1] if picked else 0
            for i in [i for i in by_v.get(tuple(-x for x in v), ()) if i >= start]:
                size, wk, _, _ = walks[i]
                if mass + size > m:
                    return
                if 1 <= abs(k + wk) <= n - 1:
                    chain = walks[i][3]
                    for j in picked:
                        chain = chain + walks[j][3]
                    key = (Fraction(chain.size) / f(Fraction(abs(k + wk), n)), chain.size, chain.coeffs)
                    if best is None or key < best[:3]:
                        best = (*key, chain)
            return
        for i in range(picked[-1] if picked else 0, len(walks)):
            size, wk, wv, _ = walks[i]
            # every later slot takes a walk at least this heavy
            if mass + size * left > m:
                return
            fill(picked + (i,), left - 1, k + wk, tuple(map(add, v, wv)), mass + size)

    for r in range(1, genus + 2):
        fill((), r, 0, (0,) * (2 * genus), 0)
    return best


@pytest.fixture(scope="module")
def contexts():
    return {name: SolveContext(build()) for name, build in GRAPHS.items()}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_bounded_solve_matches_unbounded(name, contexts):
    ctx = contexts[name]
    g = ctx.g
    full = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, g.m)
    assert full.depth_cap == g.m
    for label, f in PROFILES.items():
        det = ctx.solve_detailed(f)
        depth = det.cover.depth_cap
        assert 1 <= depth <= g.m
        value, size, coeffs, chain = unbounded_best(full, ctx.genus, f, g.n, g.m)
        comb = det.combine
        assert (comb.value, comb.sigma.size, comb.sigma.coeffs) == (value, size, coeffs), label
        assert det.result == recover_cut(g, chain, f), label
        shallow = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
        assert shallow.depth_cap == depth
        assert shallow.walks == {k: w for k, w in full.walks.items() if w.length <= depth}, label
        assert det.cover.walks == shallow.walks, label
