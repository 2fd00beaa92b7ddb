import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from surfcut.construct import complete_edges, cycle_edges, find_embedding
from surfcut.cover import dump_walks, shortest_tagged_walks
from surfcut.dual import build_dual
from surfcut.embedding import trace_faces
from surfcut.homology import build_loop_system, build_weight
from surfcut.oracle import enumerate_closed_walks

# sha256 of dump_walks(ctx.cover) per corpus instance, in manifest order; the
# full walk table does not depend on the balance function
WALK_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "corpus_walk_digests.json").read_text(encoding="utf-8")
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


def test_walks_are_closed_and_tagged_consistently():
    g = find_embedding(5, complete_edges(5), 1)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    for (k, v), walk in cover.walks.items():
        assert walk.k == k and walk.v == v
        assert walk.length <= g.m
        if walk.darts:
            assert dual.tails[walk.darts[0]] == dual.heads[walk.darts[-1]]
            for a, b in zip(walk.darts, walk.darts[1:]):
                assert dual.heads[a] == dual.tails[b]
        assert sum(w.dart_value(d) for d in walk.darts) == k
        acc = [0] * (2 * system.genus)
        for d in walk.darts:
            for j, x in enumerate(system.theta_dart(d)):
                acc[j] += x
        assert tuple(acc) == v
        # stored chain matches the dart sequence
        for e in range(g.m):
            signed = sum(1 if d % 2 == 0 else -1 for d in walk.darts if d >> 1 == e)
            assert walk.chain.coeffs[e] == signed


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
    # one BFS run per start dart of the dual
    assert len(cover.states_per_start) == dual.num_darts
    assert all(1 <= s <= cover.state_space_bound for s in cover.states_per_start)


def test_weights_outside_the_state_box_are_rejected():
    # an int state whose weight coordinate left its box would alias another
    # state, so the search refuses dart weights that could push it out
    g = find_embedding(2, [(0, 1)], 0)
    dual, w, system = pipeline(g)
    heavy = dataclasses.replace(w, values=(g.m * g.n + 1,))
    with pytest.raises(AssertionError, match="escaped its analytic bounds"):
        shortest_tagged_walks(dual, heavy, system, g.m)


def test_state_box_follows_the_depth():
    # the box is depth * (n - 1) for k and depth for each v_j, so a dart
    # weight of n or a crossing count of 2 is one step past it
    g = find_embedding(4, complete_edges(4), 1)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, 3)
    assert cover.depth_cap == 3
    assert cover.state_space_bound == dual.n * 19 * 7 * 7
    assert all(walk.length <= 3 for walk in cover.walks.values())
    heavy = dataclasses.replace(w, values=(g.n,) + w.values[1:])
    crossed = dataclasses.replace(system, theta_rows=((2, 0),) + system.theta_rows[1:])
    for weight, loops in ((heavy, system), (w, crossed)):
        with pytest.raises(AssertionError, match="escaped its analytic bounds"):
            shortest_tagged_walks(dual, weight, loops, 3)


def test_shortest_walk_beats_any_longer_witness():
    # tags reachable at length L must never be stored with a longer walk
    g = find_embedding(4, complete_edges(4), 1)
    dual, w, system = pipeline(g)
    cover = shortest_tagged_walks(dual, w, system, g.m)
    for d in range(dual.num_darts):
        u, x = dual.tails[d], dual.heads[d]
        if u == x:
            key = (w.dart_value(d), system.theta_dart(d))
            assert key in cover.walks and cover.walks[key].length <= 1


def test_ties_go_to_the_smallest_dart_sequence(corpus_contexts):
    # every rotation of a closed walk, and of its reverse (whose tag is
    # negated), is a closed walk; the table must keep the smallest
    # (length, darts) of each tag among all of them
    checked = 0
    for name, ctx in corpus_contexts.items():
        if ctx.faces.face_count > 4:
            continue
        smallest = {}
        for walk in enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=5):
            rev = tuple(d ^ 1 for d in reversed(walk.darts))
            neg = (-walk.k, tuple(-x for x in walk.v))
            for seq, tag in ((walk.darts, (walk.k, walk.v)), (rev, neg)):
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
    assert list(WALK_DIGESTS) == [item["name"] for item in manifest]


@pytest.mark.parametrize("name", list(WALK_DIGESTS))
def test_corpus_walk_tables_frozen(name, corpus_contexts):
    dump = dump_walks(corpus_contexts[name].cover)
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == WALK_DIGESTS[name]
