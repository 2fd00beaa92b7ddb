import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from surfcut import homology, solver
from surfcut.balance import density, parse_custom, quotient
from surfcut.construct import from_cyclic_orders, grid_torus
from surfcut.dual import IntegerChain, cut_chain
from surfcut.embedding import mirror_image
from surfcut.homology import build_weight
from surfcut.oracle import brute_force_cut
from surfcut.solver import (
    SolveContext,
    SolverError,
    balance_peak,
    combine_and_minimize,
    recover_cut,
    score_cut,
    solve,
)

CUSTOM = parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")

# value = |cut| / f(|S|/n), worked out by hand per instance
FROZEN = [
    ("k2", quotient(), Fraction(2)),
    ("k2", density(), Fraction(4)),
    ("digon", quotient(), Fraction(4)),
    ("p4", quotient(), Fraction(2)),
    ("c6", quotient(), Fraction(4)),
    ("c6", density(), Fraction(8)),
    ("k4", quotient(), Fraction(8)),
    ("k4", density(), Fraction(16)),
    ("star5", quotient(), Fraction(5)),
    ("k4_torus", quotient(), Fraction(8)),
    ("k5_torus", quotient(), Fraction(15)),
    ("banana25_g2", quotient(), Fraction(10)),
    ("c4_doubled_g2", quotient(), Fraction(8)),
    ("k5_g2", quotient(), Fraction(15)),
    ("c6", CUSTOM, Fraction(4)),
]


@pytest.mark.parametrize(
    "name,f,expected", FROZEN, ids=[f"{n}-{f.kind}" for n, f, _ in FROZEN]
)
def test_frozen_values(name, f, expected, corpus_contexts):
    assert corpus_contexts[name].solve(f).value == expected


def test_score_cut_k4_single_vertex(corpus_graphs):
    r = score_cut(corpus_graphs["k4"], [0], quotient())
    assert r.cut_size == 3
    assert r.balance == Fraction(1, 4)
    assert r.value == Fraction(12)
    assert r.expansion == Fraction(3)
    assert r.S == (0,)


def test_score_cut_canonicalizes_to_side_of_vertex_0(corpus_graphs):
    g = corpus_graphs["k4"]
    a = score_cut(g, [1, 2, 3], quotient())
    b = score_cut(g, [0], quotient())
    assert a == b


def test_score_cut_rejects_trivial_sides(corpus_graphs):
    g = corpus_graphs["c4"]
    with pytest.raises(ValueError):
        score_cut(g, [], quotient())
    with pytest.raises(ValueError):
        score_cut(g, range(g.n), quotient())


@pytest.mark.parametrize("v", [-1, 4], ids=["minus-1", "n"])
def test_score_cut_rejects_vertices_outside_the_graph(v, corpus_graphs):
    # -1 would index the last vertex and n past the end
    with pytest.raises(ValueError, match="out of range"):
        score_cut(corpus_graphs["k4"], [v], quotient())


@pytest.mark.parametrize("name", ["k4", "c5", "k5_torus", "c4_doubled_g2"])
def test_evaluate_chain_matches_cut_score(name, corpus_graphs, corpus_contexts):
    # a cut chain scores |chain| / f(|weight| / n), the quotient of its cut
    g = corpus_graphs[name]
    w = corpus_contexts[name].weight
    f = quotient()
    rng = random.Random(7)
    for _ in range(20):
        S = rng.sample(range(g.n), rng.randrange(1, g.n))
        c = cut_chain(g, S)
        assert Fraction(c.size) / f(Fraction(abs(w.evaluate(c)), g.n)) == score_cut(g, S, f).value


def test_combine_on_single_edge(corpus_contexts):
    ctx = corpus_contexts["k2"]
    comb = combine_and_minimize(ctx.cover, ctx.loops, quotient(), ctx.g.n, ctx.g.m)
    assert comb.sigma.coeffs == (-1,)
    assert comb.k == -1
    assert comb.value == Fraction(2)
    assert len(comb.walks_used) == 1
    assert comb.candidates == 2


@pytest.mark.parametrize(
    "name", ["theta_torus", "banana24_torus", "k4_torus", "k5_torus", "banana25_g2"]
)
def test_combine_matches_plain_enumeration(name, corpus_contexts):
    # every multiset of at most genus+1 walks, with no pruning at all
    ctx = corpus_contexts[name]
    n, m, f = ctx.g.n, ctx.g.m, quotient()
    walks = [w for w in ctx.cover.walks.values() if not w.chain.is_zero and w.chain.size <= m]
    best, masses = None, []
    for r in range(1, ctx.genus + 2):
        pool = [w for w in walks if w.chain.size <= m - r + 1]
        mass = [w.chain.size for w in pool]
        for idx in itertools.combinations_with_replacement(range(len(pool)), r):
            total = sum(mass[i] for i in idx)
            if total > m:
                continue
            if any(sum(c) for c in zip(*(pool[i].v for i in idx))):
                continue
            k = sum(pool[i].k for i in idx)
            if not 1 <= abs(k) <= n - 1:
                continue
            masses.append(total)
            chain = IntegerChain(tuple(map(sum, zip(*(pool[i].chain.coeffs for i in idx)))))
            key = (Fraction(chain.size) / f(Fraction(abs(k), n)), chain.size, chain.coeffs, k)
            best = key if best is None else min(best, key)
    comb = combine_and_minimize(ctx.cover, ctx.loops, f, n, m)
    assert (comb.value, comb.sigma.coeffs, comb.k) == (best[0], best[2], best[3])
    # the mass limit floor(best * F) starts at m and never drops below floor(OPT * F)
    floor_limit = math.floor(best[0] * balance_peak(f, n))
    assert sum(1 for x in masses if x <= floor_limit) <= comb.candidates <= len(masses)


@pytest.mark.parametrize("name", ["p4", "c6", "k4", "apollonian7"])
def test_planar_combinations_use_one_walk(name, corpus_contexts):
    det = corpus_contexts[name].solve_detailed(quotient())
    assert len(det.combine.walks_used) == 1


def test_recover_cut_picks_cheapest_level():
    # path 0-1-2, chain = cut({0}) + cut({0,1}), potential levels 3,2,1
    g = from_cyclic_orders(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]])
    sigma = IntegerChain(coeffs=(1, 1))
    r = recover_cut(g, sigma, quotient())
    assert r.S == (0,)
    assert r.value == Fraction(3)


def test_recover_cut_rejects_non_potential():
    g = from_cyclic_orders(3, [(0, 1), (1, 2), (2, 0)], [[0, 5], [1, 2], [3, 4]])
    with pytest.raises(SolverError, match="not a potential"):
        recover_cut(g, IntegerChain(coeffs=(1, 0, 0)), quotient())


def test_recover_cut_rejects_zero_chain(corpus_graphs):
    g = corpus_graphs["c4"]
    with pytest.raises(ValueError, match="zero chain"):
        recover_cut(g, IntegerChain.zero(g.m), quotient())


def test_chain_value_equals_cut_value(corpus_contexts):
    for name in ("c5", "k4", "k33_torus", "series33_g2"):
        det = corpus_contexts[name].solve_detailed(density())
        assert det.combine.value == det.result.value
        assert det.combine.sigma.size == det.result.cut_size


@pytest.mark.parametrize("name", ["c5", "k4", "k5_torus", "c4_doubled_g2"])
def test_root_choice_does_not_change_value(name, corpus_graphs):
    g = corpus_graphs[name]
    values = {solve(g, quotient(), root=r).value for r in range(g.n)}
    assert len(values) == 1


@pytest.mark.parametrize("name", ["c5", "k4", "k5_torus", "banana25_g2"])
def test_mirror_image_same_value(name, corpus_graphs):
    g = corpus_graphs[name]
    assert solve(mirror_image(g), quotient()).value == solve(g, quotient()).value


def test_context_caches_walk_table(corpus_graphs, monkeypatch):
    # a solve builds its table only when no table at least as deep exists
    depths = []
    build = solver.shortest_tagged_walks

    def counted(dual, w, system, depth):
        depths.append(depth)
        return build(dual, w, system, depth)

    monkeypatch.setattr(solver, "shortest_tagged_walks", counted)
    ctx = SolveContext(corpus_graphs["k5_torus"])
    a = ctx.solve_detailed(quotient())
    b = ctx.solve_detailed(quotient())
    assert a.cover is b.cover
    assert depths == [a.cover.depth_cap] and a.cover.depth_cap < ctx.g.m
    assert ctx.cover is ctx.cover
    assert ctx.cover.depth_cap == ctx.g.m and len(depths) == 2
    c = ctx.solve_detailed(density())
    assert len(depths) == 2
    assert c.cover.walks == {
        key: walk for key, walk in ctx.cover.walks.items() if walk.length <= c.cover.depth_cap
    }


def test_solver_errors_name_the_instance(corpus_graphs, monkeypatch):
    build = solver.shortest_tagged_walks
    monkeypatch.setattr(
        solver, "shortest_tagged_walks", lambda *args: dataclasses.replace(build(*args), walks={})
    )
    with pytest.raises(SolverError) as err:
        SolveContext(corpus_graphs["k4_torus"]).solve(quotient())
    assert str(err.value) == (
        "no null-homologous combination found; walk table is incomplete (n=4, m=6, genus 1)"
    )


def test_one_bfs_tree_per_context(corpus_graphs, monkeypatch):
    # the weight grows the primal tree; the loops and U read it from there
    roots = []
    build = homology._bfs_tree

    def counted(g, root):
        roots.append(root)
        return build(g, root)

    monkeypatch.setattr(homology, "_bfs_tree", counted)
    monkeypatch.setattr(solver, "_bfs_tree", counted, raising=False)
    SolveContext(corpus_graphs["k5_g2"], 2).solve(quotient())
    assert roots == [2]


def test_root_out_of_range_is_rejected(corpus_graphs):
    with pytest.raises(ValueError, match="out of range for 4 vertices"):
        SolveContext(corpus_graphs["k4"], 9).solve(quotient())


def test_context_genus_matches_manifest(manifest, corpus_contexts):
    # the loop system reads the genus off its tree-cotree split
    want = {item["name"]: item["genus"] for item in manifest}
    assert {name: ctx.genus for name, ctx in corpus_contexts.items()} == want


def _tree_side(g, tree_edges, e, start):
    """Vertices joined to `start` by tree edges other than e."""
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for d in g.out_darts[u]:
            if (d >> 1) in tree_edges and d >> 1 != e and g.heads[d] not in seen:
                seen.add(g.heads[d])
                stack.append(g.heads[d])
    return sorted(seen)


# balls alone give a larger U on the 3x4 torus grid, subtree sides alone on
# k4, k5_torus and k5_g2
EXTRA_GRAPHS = {"grid_torus_3x4": grid_torus(3, 4)}


@pytest.mark.parametrize("name", ["k4", "star5", "c7", "k5_torus", "k5_g2", "grid_torus_3x4"])
def test_cut_upper_bound_scores_vertex_and_subtree_cuts(name, corpus_graphs):
    g = EXTRA_GRAPHS[name] if name in EXTRA_GRAPHS else corpus_graphs[name]
    ctx = SolveContext(g)
    w = ctx.weight
    # the positive dart of a tree edge enters the subtree it weighs
    subtrees = [
        _tree_side(g, w.tree_edges, e, g.heads[2 * e] if w.values[e] > 0 else g.tails[2 * e])
        for e in w.tree_edges
    ]
    # the first k vertices of the BFS from r; k = 1 gives the single vertices
    balls = [build_weight(g, r).order[:k] for r in range(g.n) for k in range(1, g.n)]
    for f in (quotient(), density(), CUSTOM):
        want = min(score_cut(g, S, f).value for S in subtrees + balls)
        assert ctx.upper_bound(f) == want
        assert brute_force_cut(g, f).best.value <= want


def test_balance_peak_is_the_largest_value():
    for f in (quotient(), density(), CUSTOM, parse_custom("0 0\n1/10 1/2\n")):
        for n in range(2, 21):
            assert balance_peak(f, n) == max(f(Fraction(k, n)) for k in range(1, n))
