import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from walk_oracle import enumerate_closed_walks, min_tag_table, theta_dart

from surfcut.balance import BalanceFunction, density, make_balance, parse_custom, quotient
from surfcut.construct import cycle_edges, random_planar
from surfcut.embedding import EmbeddedGraph
from surfcut.oracle import brute_force_cut
from surfcut.solver import score_cut


def _sides(n: int) -> list[tuple[int, ...]]:
    """The 2^(n-1) - 1 proper sides holding vertex 0, in ascending mask order."""
    return [
        (0,) + tuple(v for v in range(1, n) if mask >> (v - 1) & 1)
        for mask in range(2 ** (n - 1) - 1)
    ]


def test_enumerates_every_side_containing_vertex_0(corpus_graphs):
    g = corpus_graphs["c4"]
    results = [score_cut(g, S, quotient()) for S in _sides(g.n)]
    report = brute_force_cut(g, quotient())
    assert report.best == min(results, key=lambda r: r.sort_key)


def test_complement_scores_identically(corpus_graphs):
    # every side scores like its complement, so the sides holding vertex 0
    # reach the least value over all 2^n - 2 proper sides
    g = corpus_graphs["c5"]
    values = {}
    for size in range(1, g.n):
        for S in itertools.combinations(range(g.n), size):
            values[S] = score_cut(g, S, density()).value
    for S, value in values.items():
        assert values[tuple(v for v in range(g.n) if v not in S)] == value
    assert brute_force_cut(g, density()).best.value == min(values.values())


def test_c4_quotient_values(corpus_graphs):
    g = corpus_graphs["c4"]
    report = brute_force_cut(g, quotient())
    assert report.best.value == Fraction(4)
    assert score_cut(g, (0,), quotient()).value == Fraction(8)
    assert score_cut(g, (0, 2), quotient()).value == Fraction(8)
    assert report.best == score_cut(g, (0, 1), quotient())


@pytest.mark.parametrize("name", ["p4", "k4", "k33_torus", "series33_g2"])
def test_witness_is_optimal_and_connected(name, corpus_graphs):
    g = corpus_graphs[name]
    report = brute_force_cut(g, quotient())
    w = _connected_witness(g, [score_cut(g, S, quotient()) for S in _sides(g.n)])
    assert w is not None
    assert w.value == report.best.value
    # recompute connectivity from scratch on both sides
    for side in (set(w.S), set(range(g.n)) - set(w.S)):
        assert _connected(g, side)


def test_vertex_cap(corpus_graphs):
    with pytest.raises(ValueError, match="capped"):
        brute_force_cut(corpus_graphs["c4"], quotient(), cap=3)


def test_one_vertex_graph_is_rejected(corpus_contexts):
    # the dual of a path on 3 vertices: one face, two loops, nothing to cut
    g = corpus_contexts["p3"].dual
    assert g.n == 1
    with pytest.raises(ValueError, match="graph has 1"):
        brute_force_cut(g, quotient())


def _connected(g, side):
    seen = {min(side)}
    stack = [min(side)]
    while stack:
        v = stack.pop()
        for d in g.out_darts[v]:
            u = g.heads[d]
            if u in side and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == side


def _connected_witness(g, results):
    """The first side in sort_key order tied at the least value whose two
    halves are both connected, or None; results scores every side of _sides."""
    order = sorted(results, key=lambda r: r.sort_key)
    return next(
        (
            r for r in order
            if r.value == order[0].value
            and _connected(g, set(r.S))
            and _connected(g, set(range(g.n)) - set(r.S))
        ),
        None,
    )


def test_brute_force_matches_plain_scoring(corpus_graphs, corpus_contexts):
    # the definition restated: score every side holding vertex 0 on its own
    # and take the sort_key minimum; a tied side whose two halves are both
    # connected exists on every graph here
    profiles = [quotient(), density(), make_balance("expansion"), parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")]
    graphs = list(corpus_graphs.values()) + [
        random_planar(12, 2, seed=5),
        random_planar(12, 4, seed=6),
        corpus_contexts["k4_torus"].dual,  # 2 vertices, 2 loops
        corpus_contexts["apollonian12_del"].dual,  # 15 vertices, 1 loop
        *map(_seeded_multigraph, range(2, 13)),
    ]
    for g in graphs:
        for f in profiles:
            results = [score_cut(g, S, f) for S in _sides(g.n)]
            witness = _connected_witness(g, results)
            report = brute_force_cut(g, f)
            assert report.best == min(results, key=lambda r: r.sort_key)
            assert witness is not None and witness.value == report.best.value


def _count_balance_calls(monkeypatch) -> list:
    calls = []
    call = BalanceFunction.__call__

    def counted(f, x):
        calls.append(x)
        return call(f, x)

    monkeypatch.setattr(BalanceFunction, "__call__", counted)
    return calls


@pytest.mark.parametrize("name", ["c5", "k4", "k33_torus", "series33_g2", "apollonian12_del"])
def test_best_calls_f_once_per_side_size(name, corpus_graphs, monkeypatch):
    # n - 1 sizes, then score_cut once for best
    g = corpus_graphs[name]
    calls = _count_balance_calls(monkeypatch)
    for f in (quotient(), density(), parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")):
        calls.clear()
        brute_force_cut(g, f)
        assert len(calls) == g.n


def test_repeated_calls_give_the_same_report(corpus_graphs):
    g = corpus_graphs["series33_g2"]
    for f in (quotient(), density()):
        early = brute_force_cut(g, f)
        late = brute_force_cut(g, f)
        assert early == late


def test_report_holds_no_per_side_data():
    # with the report still referenced, nothing of the scan's 131071 sides
    # at n = 18 may stay allocated: the report is one CutResult
    g = random_planar(18, 2, seed=18)
    tracemalloc.start()
    try:
        report = brute_force_cut(g, quotient(), cap=18)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.best.S[0] == 0
    assert held < 2**20, held


def _multigraph(n: int, edges: list[tuple[int, int]]) -> EmbeddedGraph:
    """Edges in order, each vertex's darts rotated in ascending order."""
    tails = [x for edge in edges for x in edge]
    heads = [x for u, v in edges for x in (v, u)]
    rotation = [0] * len(tails)
    for v in range(n):
        ds = [d for d, t in enumerate(tails) if t == v]
        for a, b in zip(ds, ds[1:] + ds[:1]):
            rotation[a] = b
    return EmbeddedGraph(n=n, tails=tuple(tails), heads=tuple(heads), rotation=tuple(rotation), allow_loops=True)


def _seeded_multigraph(n: int) -> EmbeddedGraph:
    """A connected multigraph on n vertices, drawn from seed n, for every
    branch of the oracle's increments: edges of multiplicity 2 and 3, to
    vertex 0 too, loops, from n = 3 on vertex 1 joined only to vertices
    above it, and from n = 4 on no edge between vertices 1 and n - 1."""
    rng = random.Random(n)
    # a spanning tree with no edge at vertex 1 from below, 0-2 three times,
    # then more pairs, never 0-1 or 1-(n - 1), each pair's edge count set to
    # 1 to 3
    mult = {(0, 1): 3} if n == 2 else {(1, 2): 1, (0, 2): 3}
    for v in range(3, n):
        mult[rng.choice([u for u in range(v) if u != 1]), v] = 1
    for _ in range(n):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in ((0, 1), (1, n - 1)) and mult.get((u, v)) != 3:
            mult[u, v] = rng.randint(1, 3)
    edges = [pair for pair, count in mult.items() for _ in range(count)]
    edges += [(v, v) for v in rng.sample(range(n), 2)]
    rng.shuffle(edges)
    return _multigraph(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges])


def test_seeded_multigraphs_reach_every_branch():
    # per vertex v and lower vertex u, the oracle's increments take the
    # multiplicity of uv, zero or not, at u = 0 and at u >= 1
    for n in range(2, 13):
        g = _seeded_multigraph(n)
        masks, _ = g.neighbour_masks
        assert _connected(g, set(range(n))), n
        assert any(u == v for u, v in zip(g.tails, g.heads)), n
        assert len(masks[0]) == 3 and max(map(len, masks)) == 3, n
        if n >= 3:
            assert masks[1][0] and not masks[1][0] & 0b11, n
        if n >= 4:
            assert any(not masks[v][0] >> u & 1 for v in range(2, n) for u in range(1, v)), n


def test_sixteen_vertex_multigraph_matches_plain_scoring():
    # the widest key: |S| fills all of n.bit_length() = 5 bits at n = 16,
    # and edges of multiplicity up to 4 give each vertex several layers
    rng = random.Random(16)
    edges = cycle_edges(16) + [(rng.randrange(16), rng.randrange(16)) for _ in range(12)]
    edges += [(0, 15), (0, 15), (0, 15), (7, 8), (5, 5), (15, 15)]
    g = _multigraph(16, edges)
    assert g.n == 16 and any(u == v for u, v in edges)
    results = [score_cut(g, S, quotient()) for S in _sides(g.n)]
    witness = _connected_witness(g, results)
    report = brute_force_cut(g, quotient())
    assert report.best == min(results, key=lambda r: r.sort_key)
    assert witness is not None and witness.value == report.best.value


def test_neighbour_masks_count_parallel_edges_and_skip_loops():
    rng = random.Random(5)
    edges = cycle_edges(7) + [(rng.randrange(7), rng.randrange(7)) for _ in range(20)]
    edges += [(0, 3), (0, 3), (0, 3), (2, 2), (4, 4), (4, 4)]
    g = _multigraph(7, edges)
    masks, deg = g.neighbour_masks
    count = [[0] * g.n for _ in range(g.n)]
    for u, v in edges:
        if u != v:
            count[u][v] += 1
            count[v][u] += 1
    assert max(max(row) for row in count) >= 3
    for v in range(g.n):
        assert deg[v] == sum(count[v]) == sum(1 for d in g.out_darts[v] if g.heads[d] != v)
        assert len(masks[v]) == max(count[v])
        for j, mask in enumerate(masks[v]):
            assert mask == sum(1 << u for u in range(g.n) if count[v][u] > j), (v, j)
    # a vertex with only loops has no masks and degree 0
    assert _multigraph(1, [(0, 0), (0, 0)]).neighbour_masks == (((),), (0,))


def test_triangle_dual_walk_classes(corpus_contexts):
    # dual of a triangle: two vertices, three parallel edges.  Up to rotation
    # and reversal there are exactly 6 closed walks of length 2: three that
    # repeat one edge and three that pair distinct edges.
    ctx = corpus_contexts["c3"]
    walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=2)
    assert [len(darts) for darts, _, _ in walks].count(2) == 6
    assert [len(darts) for darts, _, _ in walks].count(0) == 1
    assert len(walks) == 7


def test_walk_tags_close_up(corpus_contexts):
    ctx = corpus_contexts["theta_torus"]
    walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=4)
    assert any(any(v) for _, _, v in walks)
    for darts, k, v in walks:
        if not darts:
            continue
        dg = ctx.dual
        assert dg.tails[darts[0]] == dg.heads[darts[-1]]
        assert k == sum(ctx.weight.values.dart_coeff(d) for d in darts)
        assert v == tuple(map(sum, zip(*(theta_dart(ctx.loops, d) for d in darts))))


def test_min_tags_match_cover_table(corpus_contexts):
    ctx = corpus_contexts["theta_torus"]
    m = ctx.g.m
    table = min_tag_table(
        enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=m)
    )
    covered = {key: w.length for key, w in ctx.cover.walks.items()}
    assert covered == {key: n for key, n in table.items() if n <= m}


def test_length_cap(corpus_contexts):
    ctx = corpus_contexts["c3"]
    with pytest.raises(ValueError, match="capped"):
        enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=9)


@pytest.mark.parametrize("name", ["c3", "c4", "k2", "digon", "theta", "theta_torus", "k4"])
def test_walk_classes_match_plain_enumeration(corpus_contexts, name):
    # every closed dart sequence up to length 4, reduced to its class, must
    # be exactly the set of classes the enumerator returns
    ctx = corpus_contexts[name]
    dg = ctx.dual
    expected = set()
    for length in range(1, 5):
        for seq in itertools.product(range(dg.num_darts), repeat=length):
            if all(dg.heads[a] == dg.tails[b] for a, b in zip(seq, seq[1:] + seq[:1])):
                rev = tuple(d ^ 1 for d in reversed(seq))
                expected.add(min(s[i:] + s[:i] for s in (seq, rev) for i in range(length)))
    walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=4)
    assert walks[0][0] == ()
    assert [darts for darts, _, _ in walks[1:]] == sorted(expected, key=lambda s: (len(s), s))
