"""The value-bounded solve against the unbounded path on generated graphs.

A solve reads the walk table only to depth D = min(m, floor(U * F)) and
prunes combine at summed walk length floor(best * F).  The same graphs go
through an unbounded scan of the full depth-m table here, which must pick
the same chain and so the same cut; a BFS run to depth D must store exactly
the walks of the full table that have at most D darts; and combine must give
the same result at depth D on any table at least that deep.
"""

import math
import random
from fractions import Fraction
from operator import add

import pytest
from test_fuzz import seeded_multigraphs

from surfcut.balance import density, make_balance, parse_custom, quotient
from surfcut.construct import find_embedding, grid_torus, random_planar
from surfcut.cover import shortest_tagged_walks
from surfcut.dual import IntegerChain
from surfcut.solver import SolveContext, balance_table, combine_and_minimize, recover_cut

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
    "g2_n3_m9": lambda: seeded_multigraphs(2, 6, seed=6, n_range=(3, 4))[0],
    "planar12": lambda: random_planar(12, 2, seed=7),
    "planar14": lambda: random_planar(14, 4, seed=8),
    "planar16": lambda: random_planar(16, 0, seed=9),
}
# graphs with a walk within the solve depth whose chain is smaller than its
# length, one that crosses an edge both ways: combine prunes on length, and
# the unbounded scan here on chain size, so the two bounds differ on these
CANCELLING = {"g2_n3_m9"}


def unbounded_best(cover, genus: int, f, n: int, m: int):
    """(value, size, coeffs, chain) of the best chain over every multiset of
    at most genus+1 table walks with total mass <= m whose crossings cancel
    and whose weight k has 1 <= |k| <= n-1; no value bound is used."""
    walks = sorted(
        (w.chain.size, k, v, w.chain)
        for (k, v), w in cover.walks.items()
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
                    chain = IntegerChain(tuple(map(sum, zip(*(walks[j][3].coeffs for j in (*picked, i))))))
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


def usable_walks(cover, depth: int) -> dict:
    """The walks of `cover` with length + max_j |v_j| <= depth."""
    return {k: w for k, w in cover.walks.items() if w.length + max(map(abs, k[1]), default=0) <= depth}


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
        depth = det.depth
        assert 1 <= depth <= g.m
        value, size, coeffs, chain = unbounded_best(full, ctx.genus, f, g.n, g.m)
        comb = det.combine
        assert (comb.value, comb.sigma.size, comb.sigma.coeffs) == (value, size, coeffs), label
        assert det.result == recover_cut(g, chain, f), label
        shallow = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
        assert shallow.depth_cap == depth
        assert shallow.walks == {k: w for k, w in full.walks.items() if w.length <= depth}, label
        # the solve's table is usable: at depth D it keeps the walks a sum
        # of at most D darts can use, those with length + max_j |v_j| <= D
        usable = usable_walks(shallow, depth)
        assert det.cover.depth_cap >= depth and usable_walks(det.cover, depth) == usable, label
        if det.cover.depth_cap == depth:
            assert det.cover.walks == usable, label
        if name in CANCELLING:
            assert any(w.chain.size < w.length for w in shallow.walks.values()), label


def test_deep_table_combines_as_a_table_built_to_each_depth(corpus_contexts):
    # a solve hands combine its context's one table, which may be deeper than
    # the solve; at every depth d up to that table's, combine on it must give
    # the whole result a table built to d gives.  Corpus, planar and grid
    # tables are cheap to depth m; the seeded ones (None) go one dart past
    # the solve depth.
    cases = [(ctx, ctx.g.m) for ctx in corpus_contexts.values()]
    planar = (random_planar(12, 2, seed=7), random_planar(14, 4, seed=8), random_planar(16, 0, seed=9))
    cases += [(SolveContext(g), g.m) for g in (*planar, grid_torus(2, 3), grid_torus(2, 4))]
    seeded = (*seeded_multigraphs(2, 6, seed=2), *seeded_multigraphs(3, 4, seed=3))
    cases += [(SolveContext(g), None) for g in seeded]
    checked = found = 0
    for ctx, deep_depth in cases:
        deep_depth = deep_depth or min(ctx.g.m, ctx.solve_detailed(quotient()).depth + 1)
        deep = ctx.walk_table(deep_depth)
        for depth in range(deep_depth + 1):
            fresh = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
            for label, f in PROFILES.items():
                args = (ctx.loops, balance_table(f, ctx.g.n), ctx.g.n, ctx.g.m, depth)
                want = combine_and_minimize(fresh, *args)
                assert combine_and_minimize(deep, *args) == want, (ctx.g.n, ctx.g.m, depth, label)
                checked += 1
                found += want is not None
    assert (len(cases), checked, found) == (50, 1464, 1161)


def test_solve_order_does_not_change_results(corpus_graphs):
    # one context solved for the four profiles in order, in reverse, and
    # after its full table is built gives what a fresh context per profile gives
    profiles = [*PROFILES.values(), make_balance("expansion")]

    def outcome(ctx, f):
        det = ctx.solve_detailed(f)
        # D = floor(U * F), in integers; density's F has denominator n^2
        n, m = ctx.g.n, ctx.g.m
        U = min(Fraction(cut) / f(Fraction(k, n)) for k, (cut, _) in ctx.fewest_cut_edges.items())
        assert det.depth == min(m, math.floor(U * Fraction(*balance_table(f, n)[n // 2]))), (n, m, f.kind)
        return det.result, det.combine

    for name, g in corpus_graphs.items():
        want = [outcome(SolveContext(g), f) for f in profiles]
        ctx = SolveContext(g)
        assert [outcome(ctx, f) for f in profiles] == want, name
        assert [outcome(ctx, f) for f in reversed(profiles)] == want[::-1], name
        assert ctx.cover.depth_cap == g.m
        assert [outcome(ctx, f) for f in profiles] == want, name
