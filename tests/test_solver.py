import dataclasses
import functools
import gc
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
import solver_reference
from graph_families import handle_rows, workload_graphs
from test_fuzz import seeded_multigraphs
from test_value_bound import GRAPHS as VALUE_BOUND_GRAPHS
from walk_oracle import mirror_image

from surfcut import embedding, homology, solver
from surfcut.balance import BalanceFunction, density, make_balance, parse_custom, quotient
from surfcut.construct import from_cyclic_orders, grid_torus, random_planar
from surfcut.cover import CoverResult, TaggedWalk, shortest_tagged_walks, tag_layout
from surfcut.dual import IntegerChain, cut_chain
from surfcut.homology import build_weight
from surfcut.oracle import brute_force_cut
from surfcut.solver import (
    SolveContext,
    SolverError,
    balance_table,
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
        assert Fraction(c.size) / f(Fraction(abs(w.values.dot(c)), g.n)) == score_cut(g, S, f).value


def test_combine_on_single_edge(corpus_contexts):
    ctx = corpus_contexts["k2"]
    table = balance_table(quotient(), ctx.g.n)
    comb = combine_and_minimize(ctx.cover, ctx.loops, table, ctx.g.n, ctx.g.m, ctx.g.m)
    assert comb.sigma.coeffs == (-1,)
    assert ctx.weight.values.dot(comb.sigma) == -1
    assert comb.value == Fraction(2)
    assert len(comb.walks_used) == 1
    assert comb.candidates == 2


def test_combine_without_a_cancelling_sum_returns_none(corpus_contexts):
    ctx = corpus_contexts["k4_torus"]
    # the index of ctx.cover is built first; a replaced table must not inherit it
    assert ctx.cover.by_length[0]
    empty = dataclasses.replace(ctx.cover, darts={})
    table = balance_table(quotient(), ctx.g.n)
    assert combine_and_minimize(empty, ctx.loops, table, ctx.g.n, ctx.g.m, ctx.g.m) is None


def packed_table(walks, n, m, genus, depth):
    """A full walk table of `walks`, tag -> darts, with each tag packed as the
    cover packs it: digits k + depth (n - 1), then v_1 + depth ... v_2g +
    depth, the v digits in the radix of tag_layout."""
    radix, _, k_offset, _ = tag_layout(n, genus, depth)

    def pack(k, v):
        q = k + k_offset
        for x in v:
            q = q * radix + x + depth
        return q

    darts = {pack(k, v): d for (k, v), d in sorted(walks.items())}
    table = CoverResult(darts=darts, n=n, m=m, genus=genus, depth_cap=depth, usable=False, states_per_start=(0,))
    assert table.walks == {tag: TaggedWalk(d, m) for tag, d in sorted(walks.items())}
    return table


def test_packed_crossing_vectors_do_not_carry(corpus_contexts):
    # two one-dart walks of a genus-2 depth-1 table: twice the first plus the
    # second crosses the loops (3, -1, 0, 0) times, and in the mirrored table
    # (0, 0, -1, 3) times.  v_1 is the highest digit, so a radix of
    # 2 * depth + 1 = 3 would pack the mirrored sum to 0, passing it as a
    # cancelling sum
    ctx = corpus_contexts["series33_g2"]
    n, m = ctx.g.n, ctx.g.m
    for first, second in (((1, 0, 0, 0), (1, -1, 0, 0)), ((0, 0, 0, 1), (0, 0, -1, 1))):
        table = packed_table({(0, first): (0,), (1, second): (2,)}, n, m, 2, 1)
        assert combine_and_minimize(table, ctx.loops, balance_table(quotient(), n), n, m, 1) is None


def test_combine_ties_go_to_the_smaller_chain_then_coefficients():
    # quotient at n = 4 scores f(1/4) = 1/4 and f(2/4) = 1/2.  Each table has
    # candidates tied on value; a later one must win exactly when its (size,
    # coefficients) is smaller.  Cases: the walks, genus, depth, then the
    # winner's tags, coefficients and value, and the candidate count
    cases = [
        # one dart at |k| = 1 (value 1 / (1/4) = 4) against two darts at |k| = 2
        ({(1, ()): (0,), (2, ()): (2, 4)}, 0, 2, [(1, ())], (1, 0, 0, 0), 4, 2),
        # one dart each at |k| = 1, the second scanned with the smaller coefficients
        ({(-1, ()): (2,), (1, ()): (1,)}, 0, 1, [(1, ())], (-1, 0, 0, 0), 4, 2),
        # four darts at |k| = 2 (value 8), then a two-walk sum at |k| = 2 whose
        # length 4 is within best * f(2/4) = 4, so the last slot counts it, and
        # which cancels on edge 0 to size 2 (value 4): a sum whose walks cancel
        # may not win, so the earlier chain, larger, stays
        (
            {(2, (0, 0)): (6, 8, 10, 12), (2, (1, 0)): (0, 2, 4), (0, (-1, 0)): (1,)},
            1,
            4,
            [(2, (0, 0))],
            (0, 0, 0, 1, 1, 1, 1, 0),
            8,
            2,
        ),
        # a two-walk sum with the very chain of the one walk scanned first
        # does not replace it
        (
            {(1, (0, 0)): (0, 2), (1, (1, 0)): (0,), (0, (-1, 0)): (2,)},
            1,
            2,
            [(1, (0, 0))],
            (1, 1, 0, 0),
            8,
            3,
        ),
    ]
    for walks, genus, depth, used, coeffs, value, candidates in cases:
        m = len(coeffs)
        table = packed_table(walks, 4, m, genus, depth)
        system = types.SimpleNamespace(genus=genus)
        comb = combine_and_minimize(table, system, balance_table(quotient(), 4), 4, m, depth)
        assert (list(comb.walks_used), comb.sigma.coeffs, comb.value) == (used, coeffs, value)
        assert comb.candidates == candidates


def test_solve_evaluates_f_once_per_side_size(corpus_contexts, monkeypatch):
    # a solve evaluates f.ratio at a / n for each a <= n // 2 to fill its
    # balance table, which U, the depth D and combine all read, and score_cut
    # calls f once more for the returned cut, which evaluates ratio there
    names = ["star5", "tree7", "apollonian12_del", "k5_torus", "grid33_torus", "series33_g2"]
    call, ratio = BalanceFunction.__call__, BalanceFunction.ratio
    calls = []
    monkeypatch.setattr(BalanceFunction, "__call__", lambda self, x: calls.append(("call", x)) or call(self, x))
    monkeypatch.setattr(BalanceFunction, "ratio", lambda self, a, n: calls.append(("ratio", a, n)) or ratio(self, a, n))
    for name in names:
        ctx = corpus_contexts[name]
        n = ctx.g.n
        for f in (quotient(), density(), CUSTOM):
            calls.clear()
            x = Fraction(len(ctx.solve_detailed(f).result.S), n)
            table = [("ratio", a, n) for a in range(1, n // 2 + 1)]
            assert calls == [*table, ("call", x), ("ratio", x.numerator, x.denominator)], (name, f.kind)


# genus-3 draws read at depth 2, name -> index in seeded_multigraphs(3, 8,
# seed=3): the draws whose depth-2 tables keep the plain enumeration of up
# to four walks under about a second
SHALLOW_GENUS3 = {"genus3_1": 1, "genus3_6": 6, "genus3_7": 7}


def enumeration_context(name, corpus_contexts):
    """A corpus context, or a genus-3 draw's pipeline with its full depth-2 table as the cover."""
    if name in corpus_contexts:
        return corpus_contexts[name]
    ctx = SolveContext(seeded_multigraphs(3, 8, seed=3)[SHALLOW_GENUS3[name]])
    cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, 2)
    return types.SimpleNamespace(g=ctx.g, genus=ctx.genus, loops=ctx.loops, weight=ctx.weight, cover=cover)


@pytest.mark.parametrize(
    "name", ["theta_torus", "banana24_torus", "k4_torus", "k5_torus", "banana25_g2", *SHALLOW_GENUS3]
)
def test_combine_matches_plain_enumeration(name, corpus_contexts):
    # every multiset of at most genus+1 walks, with no pruning at all
    ctx = enumeration_context(name, corpus_contexts)
    n, m, f = ctx.g.n, ctx.g.m, quotient()
    walks = [
        (key, w) for key, w in ctx.cover.walks.items() if not w.chain.is_zero and w.chain.size <= m
    ]
    best, lengths = None, []
    for r in range(1, ctx.genus + 2):
        pool = [(key, w) for key, w in walks if w.chain.size <= m - r + 1]
        mass = [w.chain.size for _, w in pool]
        for idx in itertools.combinations_with_replacement(range(len(pool)), r):
            if sum(mass[i] for i in idx) > m:
                continue
            picked = [pool[i] for i in idx]
            if any(sum(c) for c in zip(*(v for (_, v), _ in picked))):
                continue
            k = sum(wk for (wk, _), _ in picked)
            if not 1 <= abs(k) <= n - 1:
                continue
            lengths.append((sum(w.length for _, w in picked), k))
            chain = IntegerChain(tuple(map(sum, zip(*(w.chain.coeffs for _, w in picked)))))
            key = (Fraction(chain.size) / f(Fraction(abs(k), n)), chain.size, chain.coeffs, k)
            best = key if best is None else min(best, key)
    comb = combine_and_minimize(ctx.cover, ctx.loops, balance_table(f, n), n, m, m)
    assert (comb.value, comb.sigma.coeffs, ctx.weight.values.dot(comb.sigma)) == (best[0], best[2], best[3])
    # the limit on summed walk length starts at m and never drops below
    # floor(OPT * F), the last slot skips a sum only when its length passes
    # best * f(|k|/n) >= OPT * f(|k|/n), and a sum's chain size is at most its length
    peak = Fraction(*balance_table(f, n)[n // 2])
    floor_limit = min(m, math.floor(best[0] * peak))
    never_skipped = sum(1 for x, k in lengths if x <= floor_limit and x <= best[0] * f(Fraction(abs(k), n)))
    assert never_skipped <= comb.candidates <= len(lengths)


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
        recover_cut(g, IntegerChain((0,) * g.m), quotient())


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
    # a solve builds its table, usable, only when no table at least as deep
    # exists; ctx.cover puts the full one in its place
    depths = []
    build = solver.shortest_tagged_walks

    def counted(dual, w, system, depth, usable=False):
        depths.append(depth)
        return build(dual, w, system, depth, usable)

    monkeypatch.setattr(solver, "shortest_tagged_walks", counted)
    ctx = SolveContext(corpus_graphs["k5_torus"])
    a = ctx.solve_detailed(quotient())
    b = ctx.solve_detailed(quotient())
    assert a.cover is b.cover and a.cover.usable
    assert depths == [a.depth] and a.depth < ctx.g.m
    assert ctx.cover is ctx.cover
    assert ctx.cover.depth_cap == ctx.g.m and not ctx.cover.usable and len(depths) == 2
    c = ctx.solve_detailed(density())
    assert len(depths) == 2
    assert c.cover is ctx.cover and c.depth < ctx.g.m


def test_solves_at_one_depth_share_one_table_and_index(corpus_graphs):
    # the combine index does not depend on f, so the four solves of a
    # genus-2 context that all read depth 6 build it once
    ctx = SolveContext(corpus_graphs["k5_g2"])
    tables = [ctx.solve_detailed(f).cover for f in (quotient(), density(), make_balance("expansion"), CUSTOM)]
    assert {table.depth_cap for table in tables} == {6} and ctx.g.m == 10
    assert all(table is tables[0] for table in tables)
    assert all(table.by_length is tables[0].by_length for table in tables)
    # combine reads packed tags and decodes only the walks it picks, so no
    # solve builds the decoded table
    assert "walks" not in vars(tables[0])


def test_solves_leave_no_reference_cycles():
    # everything a solve builds is freed by refcount, so with the collector
    # off nothing is left for it to find
    graphs = [random_planar(16, 2, s) for s in range(5)] + [grid_torus(3, 4)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            SolveContext(g).solve(quotient())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["star5", "apollonian9_del"])
def test_one_table_and_index_across_depths(name, corpus_graphs, monkeypatch):
    # the four profiles alternate between two depths here, the first the
    # deeper, and every solve reads the one table and its one combine index
    indexed = []
    build = CoverResult.by_length.func

    def counted(cover):
        indexed.append(cover.depth_cap)
        return build(cover)

    by_length = functools.cached_property(counted)
    by_length.__set_name__(CoverResult, "by_length")
    monkeypatch.setattr(CoverResult, "by_length", by_length)
    ctx = SolveContext(corpus_graphs[name])
    dets = [ctx.solve_detailed(f) for f in (quotient(), density(), make_balance("expansion"), CUSTOM)]
    depths = [det.depth for det in dets]
    assert len(set(depths)) == 2 and depths[:2] == depths[2:] and depths[0] > depths[1]
    assert all(det.cover is dets[0].cover for det in dets)
    assert indexed == [depths[0]]


def test_solver_errors_name_the_instance(corpus_graphs, monkeypatch):
    build = solver.shortest_tagged_walks
    monkeypatch.setattr(
        solver, "shortest_tagged_walks", lambda *args, **kw: dataclasses.replace(build(*args, **kw), darts={})
    )
    with pytest.raises(SolverError) as err:
        SolveContext(corpus_graphs["k4_torus"]).solve(quotient())
    assert str(err.value) == (
        "no null-homologous combination found; walk table is incomplete (n=4, m=6, genus 1)"
    )


def test_one_bfs_tree_per_context(corpus_graphs, monkeypatch):
    # the weight grows the primal tree; the loops and U read it from there.
    # The dual's connectivity check and cotree run bfs_tree on the dual.
    roots = []
    build = embedding.bfs_tree
    g = corpus_graphs["k5_g2"]

    def counted(graph, root, skip=frozenset()):
        if graph is g:
            roots.append(root)
        return build(graph, root, skip)

    for module in (embedding, homology, solver):
        monkeypatch.setattr(module, "bfs_tree", counted, raising=False)
    SolveContext(g, 2).solve(quotient())
    assert roots == [2]


def test_root_out_of_range_is_rejected(corpus_graphs):
    with pytest.raises(ValueError, match="out of range for 4 vertices"):
        SolveContext(corpus_graphs["k4"], 9).solve(quotient())


def test_context_rejects_a_one_vertex_graph(corpus_contexts):
    # the dual of a path on 3 vertices: one face, two loops, nothing to cut
    dual = corpus_contexts["p3"].dual
    assert dual.n == 1
    with pytest.raises(ValueError, match="needs at least 2 vertices to cut, graph has 1"):
        SolveContext(dual)


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


def _seed_sides(g):
    """The subtree sides of the weight tree and the BFS balls: the sides U is grown from."""
    w = build_weight(g, 0)
    # the positive dart of a tree edge enters the subtree it weighs
    subtrees = [
        _tree_side(g, w.tree_edges, e, g.heads[2 * e] if w.values.coeffs[e] > 0 else g.tails[2 * e])
        for e in w.tree_edges
    ]
    # the first k vertices of the BFS from r; k = 1 gives the single vertices
    balls = [build_weight(g, r).order[:k] for r in range(g.n) for k in range(1, g.n)]
    return subtrees + balls


def _seed_table(g):
    """Each side size's fewest cut edges over the seed sides alone, without the moves."""
    table = {}
    for side in _seed_sides(g):
        k = min(len(side), g.n - len(side))
        cut = cut_chain(g, set(side)).size
        if k not in table or cut < table[k][0]:
            table[k] = (cut, sum(1 << v for v in side))
    return table


def _side(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# balls alone give a larger U on the 3x4 torus grid, subtree sides alone on
# k4, k5_torus and k5_g2; the moves lower the quotient U of random_planar(20, 2, 1)
EXTRA_GRAPHS = {"grid_torus_3x4": grid_torus(3, 4), "random_planar_20_2_1": random_planar(20, 2, 1)}


@pytest.mark.parametrize(
    "name", ["k4", "star5", "c7", "k5_torus", "k5_g2", "grid_torus_3x4", "random_planar_20_2_1"]
)
def test_cut_upper_bound_scores_vertex_and_subtree_cuts(name, corpus_graphs):
    g = EXTRA_GRAPHS[name] if name in EXTRA_GRAPHS else corpus_graphs[name]
    ctx = SolveContext(g)
    seeds = _seed_sides(g)
    witnesses = [_side(S) for _, S in ctx.fewest_cut_edges.values()]
    for f in (quotient(), density(), CUSTOM):
        seed_best = min(score_cut(g, S, f).value for S in seeds)
        U = ctx.upper_bound(balance_table(f, g.n))
        assert U <= seed_best
        assert U == min(score_cut(g, S, f).value for S in witnesses)
        assert brute_force_cut(g, f, cap=g.n).best.value <= U
        if name == "random_planar_20_2_1" and f.kind == "quotient":
            assert U < seed_best


def test_fewest_cut_edges_witnesses(corpus_graphs):
    # corpus (multigraphs banana25_g2 and c4_doubled_g2 among them), planar
    # graphs n 16-40 with 0-8 edges deleted, and genus-2 multigraphs
    graphs = [
        *corpus_graphs.values(),
        *(random_planar(n, n % 9, n) for n in range(16, 41)),
        *seeded_multigraphs(2, 6, seed=2),
    ]
    for g in graphs:
        table = solver.fewest_cut_edges(g, build_weight(g, 0))
        assert sorted(table) == list(range(1, g.n // 2 + 1))
        for k, (cut, S) in table.items():
            side = set(_side(S))
            assert len(side) == k and cut_chain(g, side).size == cut, (g.n, g.m, k)


def test_recovered_cut_above_the_upper_bound_is_an_error(corpus_graphs, monkeypatch):
    # one edge too few for the optimum's side size: U falls below OPT
    g = corpus_graphs["k4"]
    best = brute_force_cut(g, quotient()).best
    k = len(best.S)
    table = dict(solver.fewest_cut_edges(g, build_weight(g, 0)))
    table[k] = (best.cut_size - 1, table[k][1])
    monkeypatch.setattr(SolveContext, "fewest_cut_edges", property(lambda self: table))
    with pytest.raises(SolverError) as err:
        SolveContext(g).solve(quotient())
    assert str(err.value) == (
        "recovered cut scores worse than the upper bound U; walk table too shallow (n=4, m=6, genus 0)"
    )


DIFF_GRAPHS = [
    *(random_planar(n, d, s) for n in (10, 14, 18, 22, 30, 40) for d in (0, 2, 4, 8) for s in (1, 2, 3)),
    *(grid_torus(p, q) for p, q in ((3, 3), (3, 4), (4, 4), (5, 5), (5, 6), (6, 6))),
]


def test_local_search_keeps_every_answer_at_a_lower_depth():
    # the seeds alone give the U of a solve without the moves
    lower = 0
    for g in DIFF_GRAPHS:
        ctx, seeded = SolveContext(g), SolveContext(g)
        seeded.fewest_cut_edges = _seed_table(g)
        for f in (quotient(), density(), make_balance("expansion")):
            got, want = ctx.solve_detailed(f), seeded.solve_detailed(f)
            assert got.result == want.result, (g.n, g.m, f.kind)
            assert got.depth <= want.depth
            lower += got.depth < want.depth
    assert lower > 0


def test_summed_depth_on_small_planar_graphs():
    # D and floor(OPT * F) summed over random_planar(n, d, 1), n 16-20, d 0-4,
    # quotient: a change that loosens U raises the first sum (360 without the moves)
    f = quotient()
    depth = ideal = 0
    for n in range(16, 21):
        for d in range(5):
            g = random_planar(n, d, 1)
            det = SolveContext(g).solve_detailed(f)
            depth += det.depth
            ideal += min(g.m, math.floor(det.result.value * Fraction(*balance_table(f, n)[n // 2])))
    assert (depth, ideal) == (320, 299)


def test_balance_peak_is_the_largest_value():
    for f in (quotient(), density(), CUSTOM, parse_custom("0 0\n1/10 1/2\n")):
        for n in range(2, 21):
            table = balance_table(f, n)
            assert Fraction(*table[n // 2]) == max(f(Fraction(k, n)) for k in range(1, n))
            # every entry: at odd n the two middle entries share a value, at even n one is its own mirror
            assert len(table) == n and table[0] is None
            assert table[1:] == [f(Fraction(a, n)).as_integer_ratio() for a in range(1, n)], (f.kind, n)


def test_fewest_cut_edges_matches_the_dart_scan(corpus_graphs, tmp_path):
    # the BFS balls grown on bit masks give the dart-scanning version's cut
    # table and sides, from every root: the corpus, the three workloads'
    # graphs at seeds 201-203, test_value_bound's graphs and the handle rows
    graphs = {**corpus_graphs, **handle_rows()}
    graphs.update((name, build()) for name, build in VALUE_BOUND_GRAPHS.items())
    for seed in (201, 202, 203):
        graphs.update(workload_graphs(seed, tmp_path))
    for name, g in graphs.items():
        for r in range(g.n):
            w = build_weight(g, r)
            assert solver.fewest_cut_edges(g, w) == solver_reference.fewest_cut_edges(g, w), (name, r)
