import dataclasses
import hashlib
import json
from fractions import Fraction
from math import floor
from operator import add
from pathlib import Path

import pytest
from test_fuzz import seeded_multigraphs
from walk_oracle import enumerate_closed_walks, theta_dart

from surfcut.balance import quotient
from surfcut.construct import complete_edges, cycle_edges, find_embedding, grid_torus, random_planar
from surfcut.cover import dump_walks, shortest_tagged_walks, tag_layout
from surfcut.dual import IntegerChain, build_dual
from surfcut.embedding import trace_faces
from surfcut.homology import build_loop_system, build_weight
from surfcut.solver import SolveContext, balance_table

# sha256 of dump_walks(ctx.cover) per corpus instance, in manifest order; the
# full walk table does not depend on the balance function
WALK_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "corpus_walk_digests.json").read_text(encoding="utf-8")
)
# per corpus instance, in manifest order, the sum and the sha256 of the
# space-joined states_per_start of two tables: "full", ctx.cover, and
# "solve", the usable table a quotient solve builds to its depth D
STATE_COUNTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "corpus_state_counts.json").read_text(encoding="utf-8")
)


def pipeline(g, root=0):
    dual = build_dual(g, trace_faces(g))
    w = build_weight(g, root)
    system = build_loop_system(g, dual, w)
    return dual, w, system


def test_single_edge_walk_table():
    g = find_embedding(2, [(0, 1)], 0)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    # the dual is one vertex with one loop: the empty walk and the two
    # directions of the loop, weighing +1 and -1
    assert set(cover.walks) == {(0, ()), (1, ()), (-1, ())}
    assert cover.walks[(0, ())].darts == ()
    assert cover.walks[(1, ())].darts == (0,)
    assert cover.walks[(-1, ())].darts == (1,)


def test_dump_format_frozen():
    g = find_embedding(2, [(0, 1)], 0)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    assert dump_walks(cover) == "-1 1 1\n0 0\n1 1 0\n"


# (graph, depth, None for m): K5 on the torus and on the double torus, and
# a genus-3 draw at depth 5, since its full table has 740 k tags; each gives
# every coordinate of v a nonzero value on some tag
TAG_GRAPHS = {
    "k5_torus": lambda: (find_embedding(5, complete_edges(5), 1), None),
    "k5_g2": lambda: (find_embedding(5, complete_edges(5), 2), None),
    "genus3": lambda: (seeded_multigraphs(3, 1, seed=3)[0], 5),
}


@pytest.mark.parametrize("name", list(TAG_GRAPHS))
def test_walks_are_closed_and_tagged_consistently(name):
    # a walk's tag is stored only as its key, so the key is checked against
    # the darts
    g, depth = TAG_GRAPHS[name]()
    depth = depth or g.m
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, depth)
    assert all(any(v[j] for _, v in cover.walks) for j in range(2 * system.genus))
    thetas = [theta_dart(system, d) for d in range(dual.num_darts)]
    for (k, v), walk in cover.walks.items():
        assert walk.length <= depth
        if walk.darts:
            assert dual.tails[walk.darts[0]] == dual.heads[walk.darts[-1]]
            for a, b in zip(walk.darts, walk.darts[1:]):
                assert dual.heads[a] == dual.tails[b]
        assert sum(w.values.dart_coeff(d) for d in walk.darts) == k
        acc = [0] * (2 * system.genus)
        for d in walk.darts:
            for j, x in enumerate(thetas[d]):
                acc[j] += x
        assert tuple(acc) == v
        # stored chain matches the dart sequence
        signed = [0] * g.m
        for d in walk.darts:
            signed[d >> 1] += 1 if d % 2 == 0 else -1
        assert walk.chain.coeffs == tuple(signed)


def test_search_is_reproducible():
    g = find_embedding(4, complete_edges(4), 1)
    dual, w, system = pipeline(g)
    a = shortest_tagged_walks(dual, w, system, g.m)
    b = shortest_tagged_walks(dual, w, system, g.m)
    assert list(a.walks) == list(b.walks)
    assert all(a.walks[key].darts == b.walks[key].darts for key in a.walks)
    assert dump_walks(a) == dump_walks(b)


def test_state_counts_within_bound():
    g = find_embedding(6, cycle_edges(6), 0)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    # one BFS run per start dart of the dual, each within the covering state
    # space V' x [-K..K], K = m (n - 1), of this planar graph
    assert len(cover.states_per_start) == dual.num_darts
    assert all(1 <= s <= dual.n * (2 * g.m * (g.n - 1) + 1) for s in cover.states_per_start)


def test_weights_outside_the_state_box_are_rejected():
    # an int state whose weight coordinate left its box would alias another
    # state, so the search refuses dart weights that could push it out
    g = find_embedding(2, [(0, 1)], 0)
    dual, w, system = pipeline(g)
    heavy = dataclasses.replace(w, values=IntegerChain((g.m * g.n + 1,)))
    with pytest.raises(AssertionError, match="escaped its analytic bounds"):
        shortest_tagged_walks(dual, heavy, system, g.m)


def test_state_box_follows_the_depth():
    # the box is depth * (n - 1) for k and depth for each v_j, so a dart
    # weight of n or a crossing count of 2 is one step past it
    g = find_embedding(4, complete_edges(4), 1)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, 3)
    assert cover.depth_cap == 3
    # the box V' x [-9..9] x [-3..3]^2 bounds every run
    assert max(cover.states_per_start) <= dual.n * 19 * 7 * 7
    assert all(walk.length <= 3 for walk in cover.walks.values())
    heavy = dataclasses.replace(w, values=IntegerChain((g.n,) + w.values.coeffs[1:]))
    twice = IntegerChain((2,) + system.loops[0].coeffs[1:])
    crossed = dataclasses.replace(system, loops=(twice,) + system.loops[1:])
    for weight, loops in ((heavy, system), (w, crossed)):
        with pytest.raises(AssertionError, match="escaped its analytic bounds"):
            shortest_tagged_walks(dual, weight, loops, 3)


def test_depth_zero_keeps_only_the_empty_walk():
    # at depth 0 the state box holds only the origin, so a dart taken there
    # would alias the origin's tag
    g = find_embedding(2, [(0, 1)], 0)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, 0)
    assert {key: walk.darts for key, walk in cover.walks.items()} == {(0, ()): ()}


def test_shortest_walk_beats_any_longer_witness():
    # tags reachable at length L must never be stored with a longer walk
    g = find_embedding(4, complete_edges(4), 1)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    for d in range(dual.num_darts):
        u, x = dual.tails[d], dual.heads[d]
        if u == x:
            key = (w.values.dart_coeff(d), theta_dart(system, d))
            assert key in cover.walks and cover.walks[key].length <= 1


def test_ties_go_to_the_smallest_dart_sequence(corpus_contexts):
    # every rotation of a closed walk, and of its reverse (whose tag is
    # negated), is a closed walk; the table must keep the smallest
    # (length, darts) of each tag among all of them
    checked = 0
    for name, ctx in corpus_contexts.items():
        if ctx.dual.n > 4:
            continue
        smallest = {}
        for darts, k, v in enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=5):
            rev = tuple(d ^ 1 for d in reversed(darts))
            neg = (-k, tuple(-x for x in v))
            for seq, tag in ((darts, (k, v)), (rev, neg)):
                for i in range(max(len(seq), 1)):
                    form = (len(seq), seq[i:] + seq[:i])
                    if tag not in smallest or form < smallest[tag]:
                        smallest[tag] = form
        for key, walk in ctx.cover.walks.items():
            if walk.length <= 5:
                assert (walk.length, walk.darts) == smallest[key], (name, key)
        checked += 1
    assert checked >= 10


def test_every_corpus_walk_table_is_pinned(manifest):
    assert list(WALK_DIGESTS) == list(STATE_COUNTS) == [item["name"] for item in manifest]


@pytest.mark.parametrize("name", list(WALK_DIGESTS))
def test_corpus_walk_tables_frozen(name, corpus_contexts):
    dump = dump_walks(corpus_contexts[name].cover)
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == WALK_DIGESTS[name]


@pytest.mark.parametrize("name", list(STATE_COUNTS))
def test_corpus_state_counts_frozen(name, corpus_contexts):
    # the states each run visits, pruned or not, pin how the BFS walks the
    # covering, which the stored walks alone do not
    ctx = corpus_contexts[name]
    solve = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, solver_depth(ctx), usable=True)
    for key, cover in (("full", ctx.cover), ("solve", solve)):
        states = cover.states_per_start
        digest = hashlib.sha256(" ".join(map(str, states)).encode("utf-8")).hexdigest()
        assert [sum(states), digest] == STATE_COUNTS[name][key], (name, key)


def reference_tagged_walks(dual, w, system, depth):
    """The covering BFS with no prune, every closed state's walk rebuilt.

    States are (face, k, v) tuples.  One run per start dart d0 leaves the
    start face by d0, then expands every state up to `depth` darts, taking
    darts >= d0 in ascending order with a FIFO frontier.  Returns the walk
    table as (tag, darts) pairs in tag order, and the states of each run.
    """
    nd = dual.num_darts
    weights = [w.values.dart_coeff(d) for d in range(nd)]
    thetas = [theta_dart(system, d) for d in range(nd)]
    zero = (0,) * (2 * system.genus)
    best = {(0, zero): ()}
    states = []
    for d0 in range(nd):
        t0 = dual.tails[d0]
        origin = (t0, 0, zero)
        parent = {origin: None}
        frontier = [origin]
        for level in range(depth):
            nxt = []
            for s in frontier:
                face, k, v = s
                for d in dual.out_darts[face] if level else (d0,):
                    if d < d0:
                        continue
                    ns = (dual.heads[d], k + weights[d], tuple(map(add, v, thetas[d])))
                    if ns not in parent:
                        parent[ns] = (s, d)
                        nxt.append(ns)
            frontier = nxt
        states.append(len(parent))
        for s in parent:
            if s == origin or s[0] != t0:
                continue
            darts = []
            x = s
            while parent[x] is not None:
                x, d = parent[x]
                darts.append(d)
            key = (s[1], s[2])
            if key not in best or len(darts) < len(best[key]):
                best[key] = tuple(reversed(darts))
    return sorted(best.items()), tuple(states)


def solver_depth(ctx):
    """The depth D a quotient solve reads the walk table to."""
    table = balance_table(quotient(), ctx.g.n)
    return min(ctx.g.m, floor(ctx.upper_bound(table) * Fraction(*table[ctx.g.n // 2])))


# (graph, second depth): each graph is compared at its solve depth D and at
# the second depth, None for the edge count m; graphs whose unpruned search
# to depth m takes more than a second get a smaller second depth
DIFFERENTIAL_GRAPHS = {
    "planar": lambda: [(random_planar(n, d, d + 1), None) for n in (10, 14, 17, 20) for d in range(5)],
    "torus": lambda: [
        (grid_torus(3, 3), None),
        *((grid_torus(p, q), 6) for p, q in ((3, 4), (4, 4), (4, 5), (5, 5))),
    ],
    "genus2": lambda: [(g, min(g.m, 6)) for g in seeded_multigraphs(2, 6, seed=2)],
    "genus3": lambda: [(g, 4) for g in seeded_multigraphs(3, 4, seed=3)],
}


def test_walks_come_in_tag_order():
    # the tag digits of a state int sort like (k, v), so the table is built
    # in tag order, and the dump and combine rely on that
    graphs = [grid_torus(4, 4), *seeded_multigraphs(2, 6, seed=2), *seeded_multigraphs(3, 4, seed=3)]
    for g in graphs:
        ctx = SolveContext(g)
        depth = solver_depth(ctx)
        for d in (depth, depth - 1):
            cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, d)
            assert len(cover.walks) > 1
            assert list(cover.walks) == sorted(cover.walks), (g.n, g.m, d)


@pytest.mark.parametrize("family", list(DIFFERENTIAL_GRAPHS))
def test_pruned_search_matches_unpruned_reference(family):
    # the prune drops only states that cannot close within the depth, so
    # the table (tags, darts and order) is the unpruned one, from no more
    # states per run
    for g, second in DIFFERENTIAL_GRAPHS[family]():
        ctx = SolveContext(g)
        for depth in (solver_depth(ctx), second or g.m):
            cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
            walks, states = reference_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
            assert [(key, walk.darts) for key, walk in cover.walks.items()] == walks, (g.n, g.m, depth)
            assert len(cover.states_per_start) == len(states)
            assert all(a <= b for a, b in zip(cover.states_per_start, states)), (g.n, g.m, depth)


def test_prune_drops_states():
    ctx = SolveContext(random_planar(20, 0, 1))
    depth = solver_depth(ctx)
    cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
    _, states = reference_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
    assert sum(cover.states_per_start) < sum(states)


def test_every_depth_is_the_deepest_table_restricted(corpus_contexts):
    # a walk of exactly d darts is closed on the last level a depth-d run
    # reaches, so every depth is checked, not only the solve depths; small
    # corpus files go to depth m, seeded multigraphs one past the solve depth
    names = ("k4_doubled", "k33_torus", "series33_g2", "c4_doubled_g2")
    cases = [(ctx, ctx.g.m) for ctx in map(corpus_contexts.get, names)]
    seeded = map(SolveContext, (*seeded_multigraphs(2, 4, seed=2), *seeded_multigraphs(3, 3, seed=3)))
    cases += [(ctx, min(ctx.g.m, solver_depth(ctx) + 1)) for ctx in seeded]
    for ctx, top in cases:
        full = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, top)
        for d in range(top + 1):
            cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, d)
            within = [(key, walk) for key, walk in full.walks.items() if walk.length <= d]
            assert list(cover.walks.items()) == within, (ctx.g.n, ctx.g.m, d)


def test_usable_table_is_the_full_table_filtered(corpus_contexts):
    # a usable table keeps exactly the walks with length + max_j |v_j| <= D,
    # each with the darts the full table stores, in the same order and from
    # no more states per run; at genus 0 it is the full table, flag off
    dropped = 0
    for name, ctx in corpus_contexts.items():
        for depth in range(1, min(ctx.g.m, 7) + 1):
            full = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth)
            cover = shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth, usable=True)
            if not ctx.genus:
                assert cover == full and not cover.usable, (name, depth)
                continue
            assert cover.usable and not full.usable
            want = [
                (key, walk.darts)
                for key, walk in full.walks.items()
                if walk.length + max(map(abs, key[1])) <= depth
            ]
            assert [(key, walk.darts) for key, walk in cover.walks.items()] == want, (name, depth)
            assert all(a <= b for a, b in zip(cover.states_per_start, full.states_per_start)), (name, depth)
            dropped += len(full.darts) - len(cover.darts)
    assert dropped > 0


def test_context_reuses_a_usable_table_only_within_its_depth(corpus_graphs):
    # a solve's table is usable and serves every depth up to its own; the
    # full table, which ctx.cover puts in its place, serves every depth
    g = corpus_graphs["k5_torus"]
    ctx = SolveContext(g)
    table = ctx.walk_table(4)
    assert table.usable and table.depth_cap == 4
    assert ctx.walk_table(3) is table and ctx.walk_table(4) is table
    deeper = ctx.walk_table(5)
    assert deeper is not table and deeper.usable and deeper.depth_cap == 5
    full = ctx.cover
    assert not full.usable and full.depth_cap == g.m and ctx.cover is full
    assert ctx.walk_table(5) is full and ctx.walk_table(g.m) is full
    # at genus 0 no table is usable, and a full one at depth m is kept
    g = corpus_graphs["k4"]
    ctx = SolveContext(g)
    shallow = ctx.walk_table(2)
    assert not shallow.usable and ctx.cover is not shallow and ctx.cover.depth_cap == g.m
    ctx = SolveContext(g)
    assert ctx.cover is ctx.walk_table(g.m) and ctx.walk_table(2) is ctx.cover


def test_index_is_the_walks_sorted_by_length_then_tag(corpus_contexts):
    # by_length, restated from the decoded table: the nonempty walks in
    # (length, tag) order, each entry's k its tag's weight and its packed v
    # sum v_j R**(2g - j) with R the radix of tag_layout, and per packed v
    # the ascending indices of its entries.  The corpus is read at depth m,
    # the seeded draws at the differential test's depths.
    tables = [ctx.cover for ctx in corpus_contexts.values()]
    for g, second in (*DIFFERENTIAL_GRAPHS["genus2"](), *DIFFERENTIAL_GRAPHS["genus3"]()):
        ctx = SolveContext(g)
        for depth in (solver_depth(ctx), second):
            tables.append(shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, depth))
    for cover in tables:
        radix = tag_layout(cover.n, cover.genus, cover.depth_cap)[0]
        entries, by_v, chains = cover.by_length
        tags = [cover.tag(q) for _, q, _, _, _ in entries]
        want = sorted((w.length, tag) for tag, w in cover.walks.items() if w.length)
        assert [(entry[0], tag) for entry, tag in zip(entries, tags)] == want
        for (length, q, k, v, darts), (tk, tv) in zip(entries, tags):
            assert (k, v) == (tk, sum(x * radix**j for j, x in enumerate(reversed(tv))))
            assert darts == cover.walks[tk, tv].darts and length == len(darts)
        same_v = {}
        for i, entry in enumerate(entries):
            same_v.setdefault(entry[3], []).append(i)
        assert by_v == same_v
        assert len(chains) == len(entries)
