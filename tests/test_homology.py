import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from walk_oracle import companion_cycles, theta_dart

from surfcut.construct import (
    banana_edges,
    complete_edges,
    find_embedding,
    grid_torus,
    path_edges,
    random_planar,
)
from surfcut.dual import IntegerChain, build_dual, cut_chain, walk_coeffs
from surfcut.embedding import EmbeddingError, trace_faces
from surfcut.homology import WeightFunction, build_loop_system, build_weight

TORUS_K5 = find_embedding(5, complete_edges(5), 1)
GENUS2 = find_embedding(2, banana_edges(5), 2)


def test_path_weights_are_subtree_sizes():
    g = find_embedding(3, path_edges(3), 0)
    w = build_weight(g, root=0)
    # both edges point away from the root; subtrees have sizes 2 and 1
    assert w.values.coeffs == (2, 1)
    assert w.tree_edges == frozenset({0, 1})


def test_weights_zero_off_tree():
    w = build_weight(TORUS_K5, root=0)
    assert len(w.tree_edges) == TORUS_K5.n - 1
    for e in range(TORUS_K5.m):
        if e not in w.tree_edges:
            assert w.values.coeffs[e] == 0
        assert abs(w.values.coeffs[e]) <= TORUS_K5.n


@pytest.mark.parametrize("root", [0, 2, 4])
def test_cut_weight_is_far_side_size(root):
    g = TORUS_K5
    w = build_weight(g, root)
    rng = random.Random(11)
    for _ in range(60):
        S = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
        want = g.n - len(S) if root in S else -len(S)
        assert w.values.dot(cut_chain(g, S)) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=9999), st.integers(min_value=1, max_value=30))
def test_cut_weight_random_planar(seed, subset_bits):
    g = random_planar(6, deletions=1, seed=seed)
    w = build_weight(g, root=0)
    S = {v for v in range(g.n) if subset_bits >> v & 1}
    if not S or len(S) == g.n:
        S = {0}
    want = g.n - len(S) if 0 in S else -len(S)
    assert w.values.dot(cut_chain(g, S)) == want


@pytest.mark.parametrize(
    "g,expect",
    [(find_embedding(4, complete_edges(4), 0), 0), (TORUS_K5, 1), (GENUS2, 2), (grid_torus(3, 3), 1)],
    ids=["k4-planar", "k5-torus", "banana25-g2", "grid33-torus"],
)
def test_loop_counts(g, expect):
    dual = build_dual(g, trace_faces(g))
    w = build_weight(g)
    system = build_loop_system(g, dual, w)
    tree_edges = w.tree_edges
    assert system.genus == expect
    assert len(system.loops) == 2 * expect
    assert len(system.leftover_edges) == 2 * expect
    # edges split three ways
    all_edges = set(range(g.m))
    assert tree_edges | system.cotree_edges | set(system.leftover_edges) == all_edges
    assert len(tree_edges) + len(system.cotree_edges) + len(system.leftover_edges) == g.m


def test_loops_are_closed_at_root():
    # a loop is the chain of a closed walk, so as much enters each vertex as
    # leaves it; the tree stretch it shares on both sides of the root cancels
    g = TORUS_K5
    dual = build_dual(g, trace_faces(g))
    for root in (0, 3):
        system = build_loop_system(g, dual, build_weight(g, root))
        for loop in system.loops:
            for v in range(g.n):
                assert sum(loop.dart_coeff(d) for d in g.out_darts[v]) == 0


@pytest.mark.parametrize("g", [TORUS_K5, GENUS2, grid_torus(3, 3)], ids=["k5", "banana25", "grid33"])
def test_theta_vanishes_on_dual_faces(g):
    dual = build_dual(g, trace_faces(g))
    system = build_loop_system(g, dual, build_weight(g))
    zero = (0,) * (2 * system.genus)
    for walk in trace_faces(dual).facial_walks:
        assert system.theta(IntegerChain(walk_coeffs(g.m, walk))) == zero


@pytest.mark.parametrize("g", [TORUS_K5, GENUS2], ids=["k5", "banana25"])
def test_theta_vanishes_on_cuts(g):
    dual = build_dual(g, trace_faces(g))
    system = build_loop_system(g, dual, build_weight(g))
    zero = (0,) * (2 * system.genus)
    rng = random.Random(3)
    for _ in range(40):
        S = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
        assert system.theta(cut_chain(g, S)) == zero


@pytest.mark.parametrize("g", [TORUS_K5, GENUS2, grid_torus(3, 3)], ids=["k5", "banana25", "grid33"])
def test_companions_cross_their_own_loop_once(g):
    dual = build_dual(g, trace_faces(g))
    w = build_weight(g)
    system = build_loop_system(g, dual, w)
    for j, comp in enumerate(companion_cycles(dual, w, system)):
        t = system.theta(comp)
        assert abs(t[j]) == 1
        assert all(x == 0 for i, x in enumerate(t) if i != j)


def test_theta_dart_antisymmetry():
    dual = build_dual(TORUS_K5, trace_faces(TORUS_K5))
    system = build_loop_system(TORUS_K5, dual, build_weight(TORUS_K5))
    for d in range(TORUS_K5.num_darts):
        plus = theta_dart(system, d)
        minus = theta_dart(system, d ^ 1)
        assert tuple(-x for x in plus) == minus


def test_planar_loop_system_is_empty():
    g = find_embedding(4, complete_edges(4), 0)
    dual = build_dual(g, trace_faces(g))
    system = build_loop_system(g, dual, build_weight(g))
    assert system.genus == 0
    assert system.loops == ()
    assert system.theta(cut_chain(g, {0})) == ()


def test_cotree_that_fails_to_span_is_rejected(corpus_graphs):
    # triangle 0-1-2 bounds a face of the planar K4, so a "tree" holding its
    # three edges cuts that face off in the dual
    g = corpus_graphs["k4"]
    triangle = [d for d in range(0, g.num_darts, 2) if {g.tails[d], g.heads[d]} <= {0, 1, 2}]
    assert len(triangle) == 3
    w = WeightFunction(values=IntegerChain((0,) * g.m), parent_dart=(-1, *triangle), order=(0, 1, 2, 3))
    with pytest.raises(EmbeddingError, match="dual cotree failed to span"):
        build_loop_system(g, build_dual(g, trace_faces(g)), w)
