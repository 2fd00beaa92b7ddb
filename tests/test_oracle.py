import itertools
from fractions import Fraction

import pytest

from surfcut.balance import density, make_balance, parse_custom, quotient
from surfcut.construct import random_planar
from surfcut.oracle import (
    brute_force_cut,
    enumerate_closed_walks,
    min_tag_table,
)
from surfcut.solver import score_cut


def test_enumerates_every_side_containing_vertex_0(corpus_graphs):
    g = corpus_graphs["c4"]
    report = brute_force_cut(g, quotient())
    assert len(report.all_values) == 2 ** (g.n - 1) - 1
    assert all(0 in S for S in report.all_values)
    assert report.best.value == min(report.all_values.values())


def test_complement_scores_identically(corpus_graphs):
    g = corpus_graphs["c5"]
    report = brute_force_cut(g, density())
    for S, value in report.all_values.items():
        comp = [v for v in range(g.n) if v not in S]
        assert score_cut(g, comp, density()).value == value


def test_c4_quotient_values(corpus_graphs):
    report = brute_force_cut(corpus_graphs["c4"], quotient())
    assert report.best.value == Fraction(4)
    assert report.all_values[(0,)] == Fraction(8)
    assert report.all_values[(0, 2)] == Fraction(8)


@pytest.mark.parametrize("name", ["p4", "k4", "k33_torus", "series33_g2"])
def test_witness_is_optimal_and_connected(name, corpus_graphs):
    g = corpus_graphs[name]
    report = brute_force_cut(g, quotient())
    w = report.minimal_witness
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


def test_brute_force_matches_plain_scoring(corpus_graphs, corpus_contexts):
    # the definition restated: score every side holding vertex 0 on its own,
    # take the sort_key minimum, then the first tied side whose two halves
    # are both connected
    profiles = [quotient(), density(), make_balance("expansion"), parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")]
    graphs = list(corpus_graphs.values()) + [
        random_planar(12, 2, seed=5),
        random_planar(12, 4, seed=6),
        corpus_contexts["k4_torus"].dual,  # 2 vertices, 2 loops
        corpus_contexts["apollonian12_del"].dual,  # 15 vertices, 1 loop
    ]
    for g in graphs:
        sides = [
            [0] + [v for v in range(1, g.n) if mask >> (v - 1) & 1]
            for mask in range(2 ** (g.n - 1) - 1)
        ]
        for f in profiles:
            results = [score_cut(g, S, f) for S in sides]
            order = sorted(results, key=lambda r: r.sort_key)
            best = order[0]
            witness = next(
                (
                    r for r in order
                    if r.value == best.value
                    and _connected(g, set(r.S))
                    and _connected(g, set(range(g.n)) - set(r.S))
                ),
                None,
            )
            report = brute_force_cut(g, f)
            assert list(report.all_values.items()) == [(r.S, r.value) for r in results]
            assert report.best == best
            assert report.minimal_witness == witness


def test_triangle_dual_walk_classes(corpus_contexts):
    # dual of a triangle: two vertices, three parallel edges.  Up to rotation
    # and reversal there are exactly 6 closed walks of length 2: three that
    # repeat one edge and three that pair distinct edges.
    ctx = corpus_contexts["c3"]
    walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=2)
    assert [w.length for w in walks].count(2) == 6
    assert [w.length for w in walks].count(0) == 1
    assert len(walks) == 7


def test_walk_tags_close_up(corpus_contexts):
    ctx = corpus_contexts["theta_torus"]
    walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=4)
    for w in walks:
        if not w.darts:
            continue
        dg = ctx.dual
        assert dg.tails[w.darts[0]] == dg.heads[w.darts[-1]]
        assert w.k == sum(ctx.weight.dart_value(d) for d in w.darts)


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
    assert walks[0].darts == ()
    assert [w.darts for w in walks[1:]] == sorted(expected, key=lambda s: (len(s), s))
